package serving

import (
	"context"
	"testing"

	"cardnet/internal/obs"
)

func testObsCounter(name string) uint64 { return obs.Default.Counter(name).Value() }

func TestCacheLRUEviction(t *testing.T) {
	c := newEstimateCache(4, 1) // one shard of 4 for a deterministic LRU order
	gen := c.Gen()
	for i := 0; i < 4; i++ {
		c.Put(cacheKey{uint64(i), 0}, []float64{float64(i)}, gen)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := c.Get(cacheKey{0, 0}); !ok {
		t.Fatal("warm key missing")
	}
	c.Put(cacheKey{99, 0}, []float64{99}, gen)
	if c.Len() != 4 {
		t.Fatalf("len=%d after eviction, want 4", c.Len())
	}
	if _, ok := c.Get(cacheKey{1, 0}); ok {
		t.Fatal("LRU victim still cached")
	}
	for _, h := range []uint64{0, 2, 3, 99} {
		if _, ok := c.Get(cacheKey{h, 0}); !ok {
			t.Fatalf("key %d evicted, want key 1 only", h)
		}
	}
}

func TestCacheKeyIncludesTau(t *testing.T) {
	c := newEstimateCache(8, 2)
	gen := c.Gen()
	c.Put(cacheKey{7, 1}, []float64{1}, gen)
	c.Put(cacheKey{7, 2}, []float64{2}, gen)
	v1, ok1 := c.Get(cacheKey{7, 1})
	v2, ok2 := c.Get(cacheKey{7, 2})
	if !ok1 || !ok2 || v1[0] != 1 || v2[0] != 2 {
		t.Fatalf("(h,τ) keys collided: %v %v", v1, v2)
	}
	if _, ok := c.Get(cacheKey{7, 3}); ok {
		t.Fatal("unexpected hit on uncached τ")
	}
}

func TestCacheInvalidateDropsEntriesAndStalePuts(t *testing.T) {
	c := newEstimateCache(16, 4)
	gen := c.Gen()
	c.Put(cacheKey{1, 0}, []float64{1}, gen)
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("len=%d after invalidate", c.Len())
	}
	// A worker that snapshotted the old generation must not repopulate.
	c.Put(cacheKey{2, 0}, []float64{2}, gen)
	if c.Len() != 0 {
		t.Fatal("stale-generation Put was accepted")
	}
	c.Put(cacheKey{2, 0}, []float64{2}, c.Gen())
	if c.Len() != 1 {
		t.Fatal("fresh-generation Put was dropped")
	}
}

func TestHashXDistinguishesVectors(t *testing.T) {
	a := []float64{1, 0, 1, 0}
	b := []float64{0, 1, 0, 1}
	cc := []float64{1, 0, 1, 1}
	if hashX(a) == hashX(b) || hashX(a) == hashX(cc) || hashX(b) == hashX(cc) {
		t.Fatal("hash collision on tiny binary vectors")
	}
	if hashX(a) != hashX([]float64{1, 0, 1, 0}) {
		t.Fatal("hash not deterministic")
	}
}

// End-to-end cache behaviour: repeat traffic hits, swap invalidates, and
// post-swap answers come from the new model.
func TestEngineCacheHitAndInvalidateOnSwap(t *testing.T) {
	m1, m2 := testModel(10), testModel(20)
	reg := NewRegistry(m1)
	e := NewEngine(reg, Config{MaxBatch: 4, CacheEntries: 128})
	defer e.Close()

	x := binVec(5, m1.InDim)
	v1, err := e.Estimate(context.Background(), x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := m1.EstimateEncoded(x, 3); v1 != want {
		t.Fatalf("cold estimate %v != model %v", v1, want)
	}
	if e.CacheLen() == 0 {
		t.Fatal("nothing cached after a miss")
	}

	hitsBefore := testObsCounter("serving.cache.hits")
	v1b, err := e.Estimate(context.Background(), x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v1b != v1 {
		t.Fatalf("cached value %v != original %v", v1b, v1)
	}
	if testObsCounter("serving.cache.hits") == hitsBefore {
		t.Fatal("repeat estimate did not hit the cache")
	}

	if _, err := reg.Swap(m2); err != nil {
		t.Fatal(err)
	}
	if n := e.CacheLen(); n != 0 {
		t.Fatalf("cache holds %d entries after swap, want 0", n)
	}
	v2, err := e.Estimate(context.Background(), x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := m2.EstimateEncoded(x, 3); v2 != want {
		t.Fatalf("post-swap estimate %v != new model %v (stale cache?)", v2, want)
	}
	if v2 == v1 {
		t.Fatal("post-swap estimate identical to old model's — swap had no effect")
	}

	// All-τ curves are cached under their own key.
	all1, err := e.EstimateAll(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	all2, err := e.EstimateAll(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range all1 {
		if all1[i] != all2[i] {
			t.Fatalf("cached all-τ curve diverged at %d", i)
		}
	}
}
