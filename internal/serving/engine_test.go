package serving

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/obs"
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

// The engine answers exactly what the model computes at every precision
// tier, and its answers are monotone in θ (Lemma 2). With the cache off,
// single-τ estimates for τ = 0..τmax of several x come from concurrent
// goroutines, so they land in batches of differing composition; each must
// bit-equal the direct curve for x, as must EstimateAll, and the curve must
// be non-decreasing in τ.
func TestEngineMatchesDirectModel(t *testing.T) {
	m := testModel(1)
	plan, _ := infer.Lower(m, infer.PrecisionF32) // fails only for tiers without a plan
	for tier, direct := range map[infer.Precision]func([]float64) []float64{
		infer.PrecisionF64: m.EstimateAllTaus, infer.PrecisionF32: plan.EstimateAllTaus,
	} {
		e := NewEngine(NewRegistry(m), Config{MaxBatch: 4, Precision: tier, CacheEntries: -1})
		defer e.Close()
		const nx = 6
		taus := m.Cfg.TauMax + 1
		got := make([]float64, nx*taus) // got[i*taus+τ] answers x_i at τ
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := e.Estimate(context.Background(), binVec(int64(i/taus), m.InDim), i%taus)
				if err != nil {
					t.Error(err)
				}
				got[i] = v
			}(i)
		}
		wg.Wait()
		for i := 0; i < nx; i++ {
			x := binVec(int64(i), m.InDim)
			all, err := e.EstimateAll(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			want := direct(x)
			for tau := range want {
				if v := got[i*taus+tau]; v != want[tau] || all[tau] != want[tau] {
					t.Fatalf("%s x%d τ=%d: Estimate %v, EstimateAll %v, direct %v", tier, i, tau, v, all[tau], want[tau])
				}
				if tau > 0 && want[tau] < want[tau-1] {
					t.Fatalf("%s x%d: estimate falls from %v at τ=%d to %v", tier, i, want[tau-1], tau-1, want[tau])
				}
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

// parkedEngine returns a one-worker, cache-off engine whose only worker is
// parked inside a batch: its first fresh curve blocks in CurveCheck until
// release is called. While the worker is held, a test can queue requests
// deterministically. The parking request's batch, counters included, is
// complete on return. release is idempotent; test cleanup releases the
// worker and closes the engine.
func parkedEngine(t *testing.T, m *core.Model, maxBatch int) (e *Engine, release func()) {
	parked, gate := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	e = NewEngine(NewRegistry(m), Config{MaxBatch: maxBatch, Workers: 1, CacheEntries: -1,
		CurveCheck: func([]float64) { parkOnce.Do(func() { close(parked) }); <-gate }})
	wait := estimateAsync(t, e, m.InDim, 1)
	<-parked
	release = func() { releaseOnce.Do(func() { close(gate); wait() }) }
	t.Cleanup(e.Close)
	t.Cleanup(release)
	return e, release
}

// estimateAsync issues n single-τ estimates from their own goroutines and
// returns a function that waits for them all.
func estimateAsync(t *testing.T, e *Engine, dim, n int) (wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Estimate(context.Background(), binVec(int64(i), dim), i%3); err != nil {
				t.Error(err)
			}
		}(i)
	}
	return wg.Wait
}

// batchCounts are the forward-pass and flush-reason counters.
type batchCounts struct{ calls, rows, size, idle, shutdown uint64 }

func readBatchCounts() batchCounts {
	c := testObsCounter
	return batchCounts{c("core.estimate_batch.calls"), c("core.estimate_batch.rows"),
		c("serving.batch.flush_size"), c("serving.batch.flush_idle"), c("serving.batch.flush_shutdown")}
}

func (a batchCounts) minus(b batchCounts) batchCounts {
	return batchCounts{a.calls - b.calls, a.rows - b.rows, a.size - b.size, a.idle - b.idle, a.shutdown - b.shutdown}
}

// checkParkedBacklog queues n requests behind a parked worker, optionally
// starts Close, then releases the worker and checks how the counters moved
// while the backlog drained.
func checkParkedBacklog(t *testing.T, maxBatch, n int, closeFirst bool, want batchCounts) {
	t.Helper()
	m := testModel(1)
	e, release := parkedEngine(t, m, maxBatch)
	wait := estimateAsync(t, e, m.InDim, n)
	for len(e.q) < n {
		time.Sleep(50 * time.Microsecond)
	}
	before := readBatchCounts()
	if closeFirst {
		go e.Close()
		for closed := false; !closed; runtime.Gosched() {
			e.mu.RLock()
			closed = e.closed
			e.mu.RUnlock()
		}
	}
	release()
	wait()
	e.Close()
	if got := readBatchCounts().minus(before); got != want {
		t.Fatalf("%d queued requests, MaxBatch %d: counters moved by %+v, want %+v", n, maxBatch, got, want)
	}
}

// A lone request flushes at once as a one-row idle batch: the batcher never
// waits for peers that are not already queued.
func TestBatcherFlushesOnIdle(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{MaxBatch: 1024, Workers: 1, CacheEntries: -1})
	defer e.Close()
	before, tr := readBatchCounts(), obs.NewTrace()
	if _, err := e.EstimateTraced(context.Background(), binVec(1, m.InDim), 2, tr); err != nil {
		t.Fatal(err)
	}
	if f := tr.Fields(); f["flush"] != FlushIdle || f["batch_size"] != 1 {
		t.Fatalf("lone request: flush=%v batch_size=%v, want %q and 1", f["flush"], f["batch_size"], FlushIdle)
	}
	if got, want := readBatchCounts().minus(before), (batchCounts{calls: 1, rows: 1, idle: 1}); got != want {
		t.Fatalf("counters moved by %+v, want %+v", got, want)
	}
}

// Up to MaxBatch requests queued during a forward pass coalesce into exactly
// one forward pass over all of them: an idle flush when fewer than MaxBatch
// wait, a size flush at exactly MaxBatch.
func TestBatcherCoalesces(t *testing.T) {
	checkParkedBacklog(t, 8, 3, false, batchCounts{calls: 1, rows: 3, idle: 1})
	checkParkedBacklog(t, 8, 8, false, batchCounts{calls: 1, rows: 8, size: 1})
}

// A backlog larger than MaxBatch splits into full size-flushed batches, and
// the remainder leaves as an idle flush once the queue is empty.
func TestBatcherFlushesOnSize(t *testing.T) {
	checkParkedBacklog(t, 4, 9, false, batchCounts{calls: 3, rows: 9, size: 2, idle: 1})
}

// A caller whose context expires while its request is queued is counted as
// expired exactly once, although both the caller and the worker see it.
func TestBatcherCountsExpiredOnce(t *testing.T) {
	m := testModel(1)
	e, release := parkedEngine(t, m, 8)
	before := testObsCounter("serving.expired")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := e.Estimate(ctx, binVec(1, m.InDim), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
	release()
	e.Close() // the worker has now taken and dropped the expired request
	if got := testObsCounter("serving.expired") - before; got != 1 {
		t.Fatalf("serving.expired moved by %d, want 1", got)
	}
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
		MaxBatch: 2, QueueDepth: 2, Workers: 1, CacheEntries: -1,
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
			cfg.MaxBatch, cfg.QueueDepth = 8, 4096
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
