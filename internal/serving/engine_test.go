package serving

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/infer"
)

// testModel returns a small untrained model; serving behaviour does not
// depend on trained weights, and distinct seeds give distinct estimates,
// which is what the swap tests need.
func testModel(seed int64) *core.Model {
	cfg := core.DefaultConfig(8)
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 4
	cfg.PhiHidden = []int{16, 16}
	cfg.ZDim = 8
	cfg.Accel = true
	cfg.Seed = seed
	return core.New(cfg, 24)
}

func binVec(seed int64, dim int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, dim)
	for i := range x {
		x[i] = float64(rng.Intn(2))
	}
	return x
}

func TestEngineMatchesDirectModel(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{MaxBatch: 4, MaxWait: time.Millisecond})
	defer e.Close()

	for i := 0; i < 10; i++ {
		x := binVec(int64(i), m.InDim)
		tau := i % (m.Cfg.TauMax + 1)
		got, err := e.Estimate(context.Background(), x, tau)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.EstimateEncoded(x, tau); got != want {
			t.Fatalf("query %d: engine %v != model %v", i, got, want)
		}
		all, err := e.EstimateAll(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		want := m.EstimateAllTaus(x)
		for j := range want {
			if all[j] != want[j] {
				t.Fatalf("query %d τ=%d: engine %v != model %v", i, j, all[j], want[j])
			}
		}
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{})
	defer e.Close()

	if _, err := e.Estimate(context.Background(), make([]float64, m.InDim-1), 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short x: err=%v", err)
	}
	if _, err := e.Estimate(context.Background(), make([]float64, m.InDim), -1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative tau: err=%v", err)
	}
	if _, err := e.Estimate(context.Background(), make([]float64, m.InDim), m.Cfg.TauMax+1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("huge tau: err=%v", err)
	}
	if _, err := e.EstimateAll(context.Background(), nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil x: err=%v", err)
	}
}

// Size-triggered flush: with a far-away deadline, a full batch must flush on
// its own — if the size trigger were broken, these requests would sit for
// the whole MaxWait and the test would time out.
func TestBatcherFlushesOnSize(t *testing.T) {
	m := testModel(1)
	const batch = 4
	e := NewEngine(NewRegistry(m), Config{
		MaxBatch: batch, MaxWait: time.Hour, Workers: 1, CacheEntries: -1,
	})
	defer e.Close()

	var wg sync.WaitGroup
	errs := make(chan error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Estimate(context.Background(), binVec(int64(i), m.InDim), 1)
			errs <- err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("size flush never fired: batch stuck behind the 1h deadline")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Deadline-triggered flush: a lone request in a large-batch engine must
// complete in roughly MaxWait, not wait for peers that never come.
func TestBatcherFlushesOnDeadline(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{
		MaxBatch: 1024, MaxWait: 5 * time.Millisecond, Workers: 1, CacheEntries: -1,
	})
	defer e.Close()

	start := time.Now()
	if _, err := e.Estimate(context.Background(), binVec(1, m.InDim), 2); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("lone request took %v", waited)
	}
}

// Concurrent traffic through one worker must coalesce into multi-request
// batches (the whole point of the subsystem).
func TestBatcherCoalesces(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{
		MaxBatch: 8, MaxWait: time.Second, Workers: 1, CacheEntries: -1,
	})
	defer e.Close()

	callsBefore, rowsBefore := coreBatchCounters()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Estimate(context.Background(), binVec(int64(i), m.InDim), i%3); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	calls, rows := coreBatchCounters()
	if gotRows := rows - rowsBefore; gotRows != n {
		t.Fatalf("batched rows: %d, want %d", gotRows, n)
	}
	if gotCalls := calls - callsBefore; gotCalls >= n {
		t.Fatalf("no coalescing: %d forward passes for %d requests", gotCalls, n)
	}
}

func coreBatchCounters() (calls, rows uint64) {
	return testObsCounter("core.estimate_batch.calls"), testObsCounter("core.estimate_batch.rows")
}

// Admission control: a full queue rejects instead of blocking. Built without
// workers so the rejection is deterministic.
func TestSubmitOverloadedWhenQueueFull(t *testing.T) {
	m := testModel(1)
	e := &Engine{cfg: Config{QueueDepth: 1}.withDefaults(), reg: NewRegistry(m), q: make(chan *request, 1)}
	r := func() *request { return &request{x: binVec(1, m.InDim), done: make(chan result, 1)} }
	if err := e.submit(r()); err != nil {
		t.Fatal(err)
	}
	if err := e.submit(r()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second submit: err=%v, want ErrOverloaded", err)
	}
	if _, err := e.Estimate(context.Background(), binVec(1, m.InDim), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Estimate on full queue: err=%v, want ErrOverloaded", err)
	}
}

// Saturation smoke test with real workers: every request either succeeds or
// is rejected with ErrOverloaded; nothing hangs or fails another way.
func TestEngineSaturationDegradesGracefully(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{
		MaxBatch: 2, MaxWait: 100 * time.Microsecond, QueueDepth: 2, Workers: 1, CacheEntries: -1,
	})
	defer e.Close()

	var ok, overloaded, other atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := e.Estimate(context.Background(), binVec(int64(g*100+i), m.InDim), i%(m.Cfg.TauMax+1))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					overloaded.Add(1)
				default:
					other.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("unexpected failures under saturation: %d", other.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under saturation")
	}
	t.Logf("saturation: ok=%d overloaded=%d", ok.Load(), overloaded.Load())
}

// Per-request deadlines: an already-expired context is reported as such and
// never occupies forward-pass capacity.
func TestEngineHonorsContextDeadline(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{CacheEntries: -1})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Estimate(ctx, binVec(1, m.InDim), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err=%v", err)
	}
}

func TestEngineClosedRejects(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{})
	e.Close()
	e.Close() // idempotent
	if _, err := e.Estimate(context.Background(), binVec(1, m.InDim), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine: err=%v", err)
	}
}

// Hot swap under fire: hammer the engine from many goroutines while the
// registry swaps retrained (re-seeded) models; zero requests may fail, and
// answers must always come from one of the installed models' served
// artifacts. The f32 input runs with the cache off so every answer is a
// fresh forward: it must bit-equal the f32 plan output of an installed model
// (plan rows do not depend on batch composition), so an f64 answer served
// while a swap is in flight fails the test.
func TestSwapUnderLoadZeroFailures(t *testing.T) {
	f32 := func(m *core.Model, x []float64, tau int) float64 {
		p, _ := infer.Lower(m, infer.PrecisionF32) // fails only for tiers without a plan
		return p.EstimateAllTaus(x)[tau]
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want func(m *core.Model, x []float64, tau int) float64
	}{
		{"f64", Config{Precision: infer.PrecisionF64}, (*core.Model).EstimateEncoded},
		{"f32-nocache", Config{Precision: infer.PrecisionF32, CacheEntries: -1}, f32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxBatch, cfg.MaxWait, cfg.QueueDepth = 8, 200*time.Microsecond, 4096
			swapUnderLoad(t, cfg, tc.want)
		})
	}
}

func swapUnderLoad(t *testing.T, cfg Config, answer func(m *core.Model, x []float64, tau int) float64) {
	models := []*core.Model{testModel(1), testModel(2), testModel(3)}
	reg := NewRegistry(models[0])
	e := NewEngine(reg, cfg)
	defer e.Close()

	dim := models[0].InDim
	const nx = 16
	xs := make([][]float64, nx)
	want := make([]map[float64]bool, nx) // valid answers per query: any installed model
	for i := range xs {
		xs[i] = binVec(int64(i), dim)
		want[i] = map[float64]bool{}
		for _, m := range models {
			want[i][answer(m, xs[i], i%(models[0].Cfg.TauMax+1))] = true
		}
	}
	stop := make(chan struct{})
	var failures, wrong, served atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := (g + i) % nx
				v, err := e.Estimate(context.Background(), xs[q], q%(models[0].Cfg.TauMax+1))
				if errors.Is(err, ErrOverloaded) {
					continue // backpressure is not a failure
				}
				if err != nil {
					failures.Add(1)
					return
				}
				served.Add(1)
				if !want[q][v] {
					wrong.Add(1)
					return
				}
			}
		}(g)
	}

	for swap := 1; swap <= 6; swap++ {
		time.Sleep(5 * time.Millisecond)
		if _, err := reg.Swap(models[swap%len(models)]); err != nil {
			t.Fatal(err)
		}
		if g := e.Precision(); g.Tier != cfg.Precision {
			t.Fatalf("swap %d: gate refused the %s tier: %+v", swap, cfg.Precision, g)
		}
	}
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d requests failed during swaps", failures.Load())
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d answers matched no installed model", wrong.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served during the swap storm")
	}
	if _, v := reg.Current(); v != 7 {
		t.Fatalf("registry version %d, want 7", v)
	}
}
