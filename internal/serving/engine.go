package serving

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/tensor"
)

// Config tunes the engine. Zero values take the documented defaults.
type Config struct {
	// MaxBatch is the most requests coalesced into one forward pass
	// (default 32). 1 disables batching. A batch never waits to fill: it
	// takes what is already queued and flushes once the queue is empty.
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded (default 256).
	QueueDepth int
	// Workers is the number of batch-running goroutines (default half the
	// CPUs, at least 1). Each worker forms and runs its own batches; the
	// model forward pass is goroutine-safe.
	Workers int
	// CacheEntries is the estimate-cache capacity; 0 uses the default 4096,
	// negative disables the cache.
	CacheEntries int
	// CacheShards is the cache shard count, rounded up to a power of two
	// (default 8).
	CacheShards int
	// CurveCheck, when set, receives every freshly computed τ-sweep estimate
	// curve (cache hits are not re-checked). The drift monitor wires its
	// monotonicity validator here. The callback must not retain the slice and
	// must be cheap: it runs on the batch worker's hot path.
	CurveCheck func(curve []float64)
	// Precision selects the inference tier: "f64" (default) is the exact
	// forward; "f32" serves through the compiled fused plan — but only after
	// the accuracy-delta gate passes. A failed gate falls back to f64 (see
	// Engine.Precision for the verdict).
	Precision infer.Precision
	// GateMaxDelta bounds the q-error p99 inflation a compiled tier may show
	// versus f64 before it is refused (0 = infer.DefaultGateMaxDelta).
	GateMaxDelta float64
	// GateSweep is the number of validation queries the gate evaluates
	// (0 = infer.DefaultGateSweep).
	GateSweep int
	// GateSeed seeds the gate's pseudo-random validation sweep.
	GateSeed int64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 8
	}
	if c.Precision == "" {
		c.Precision = infer.PrecisionF64
	}
	return c
}

// request is one queued estimate; done is buffered so a worker can always
// complete a request whose caller has already given up on its deadline.
type request struct {
	ctx  context.Context
	x    []float64
	tau  int
	all  bool
	h    uint64 // hash of x, set when the cache is enabled
	done chan result

	tr  *obs.Trace // optional request trace (nil when untraced)
	enq time.Time  // when submit enqueued the request (for queue-wait)
}

type result struct {
	val float64
	all []float64
}

// Engine is the batched inference front-end over a model Registry. Create
// with NewEngine, serve with Estimate/EstimateAll, stop with Close (which
// drains queued requests before returning).
type Engine struct {
	cfg    Config
	reg    *Registry
	cache  *estimateCache
	shadow atomic.Pointer[ShadowTap] // optional dual-run tap (nil = off)

	q      chan *request
	mu     sync.RWMutex // guards closed against concurrent submits
	closed bool
	wg     sync.WaitGroup
}

// ShadowTap receives every freshly computed batch after its results have been
// delivered: xs holds the encoded inputs (one row per live request) and live
// the corresponding τ-sweep estimate curves served to clients. The autopilot
// wires its shadow evaluator here to dual-run a sampled fraction of traffic
// through a candidate model without affecting responses.
//
// The tap runs on the batch worker's hot path: it must return quickly (copy
// the rows it wants to keep and hand off to its own goroutine) and must not
// retain or mutate either matrix — the engine reuses nothing, but the slices
// alias response data that was already delivered.
type ShadowTap func(xs, live *tensor.Matrix)

// NewEngine hands the configured precision tier and gate to the registry
// (which recompiles the live model at them), starts cfg.Workers batch
// workers over the registry's artifact, and hooks cache invalidation to
// registry swaps. An engine owns its registry's compile settings.
func NewEngine(reg *Registry, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		reg:   reg,
		cache: newEstimateCache(cfg.CacheEntries, cfg.CacheShards),
		q:     make(chan *request, cfg.QueueDepth),
	}
	if e.cache != nil {
		reg.OnSwap(e.cache.Invalidate)
	}
	reg.configure(cfg.Precision, infer.GateConfig{
		MaxQErrP99Delta: cfg.GateMaxDelta,
		Sweep:           cfg.GateSweep,
		Seed:            cfg.GateSeed,
	})
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Registry exposes the engine's model registry (for the reload endpoint).
func (e *Engine) Registry() *Registry { return e.reg }

// Precision reports the gate verdict of the live artifact: which tier was
// requested, which tier is actually serving, and the measured q-error
// delta. Exposed through /healthz.
func (e *Engine) Precision() infer.GateResult { return e.reg.Served().Gate }

// SetShadowTap installs (or, with nil, removes) the batch shadow tap. Safe to
// call concurrently with serving; the next batch sees the new tap.
func (e *Engine) SetShadowTap(tap ShadowTap) {
	if tap == nil {
		e.shadow.Store(nil)
		return
	}
	e.shadow.Store(&tap)
}

// CacheLen reports the number of cached estimates (0 when disabled).
func (e *Engine) CacheLen() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.Len()
}

// Estimate returns the cardinality estimate for an encoded query x at
// transformed threshold τ, batching the forward pass with concurrent
// requests. It fails fast with ErrOverloaded when the queue is full, ErrClosed
// after Close, ErrBadInput on shape/τ violations, and the context error when
// ctx expires first.
func (e *Engine) Estimate(ctx context.Context, x []float64, tau int) (float64, error) {
	return e.EstimateTraced(ctx, x, tau, nil)
}

// EstimateTraced is Estimate carrying an optional request trace: the engine
// marks the cache, queue.wait, batch.form, and forward stages on it and
// annotates batch size and flush reason. A nil trace costs nothing.
func (e *Engine) EstimateTraced(ctx context.Context, x []float64, tau int, tr *obs.Trace) (float64, error) {
	m, _ := e.reg.Current()
	if len(x) != m.InDim {
		return 0, fmt.Errorf("%w: x has %d features, model expects %d", ErrBadInput, len(x), m.InDim)
	}
	if tau < 0 || tau > m.Cfg.TauMax {
		return 0, fmt.Errorf("%w: tau %d outside [0, %d]", ErrBadInput, tau, m.Cfg.TauMax)
	}
	mRequests.Inc()
	r := &request{ctx: ctx, x: x, tau: tau, done: make(chan result, 1), tr: tr}
	if e.cache != nil {
		r.h = hashX(x)
		v, ok := e.cache.Get(cacheKey{r.h, tau})
		markCache(tr, ok)
		if ok {
			return v[0], nil
		}
	}
	res, err := e.dispatch(ctx, r)
	return res.val, err
}

// EstimateAll returns the full estimate curve (every τ in [0, TauMax]) for
// one encoded query, with the same batching, caching, and failure modes as
// Estimate. Callers must not mutate the returned slice.
func (e *Engine) EstimateAll(ctx context.Context, x []float64) ([]float64, error) {
	return e.EstimateAllTraced(ctx, x, nil)
}

// EstimateAllTraced is EstimateAll with an optional request trace.
func (e *Engine) EstimateAllTraced(ctx context.Context, x []float64, tr *obs.Trace) ([]float64, error) {
	m, _ := e.reg.Current()
	if len(x) != m.InDim {
		return nil, fmt.Errorf("%w: x has %d features, model expects %d", ErrBadInput, len(x), m.InDim)
	}
	mRequests.Inc()
	r := &request{ctx: ctx, x: x, all: true, done: make(chan result, 1), tr: tr}
	if e.cache != nil {
		r.h = hashX(x)
		v, ok := e.cache.Get(cacheKey{r.h, tauAll})
		markCache(tr, ok)
		if ok {
			return v, nil
		}
	}
	res, err := e.dispatch(ctx, r)
	return res.all, err
}

// markCache closes the cache-lookup stage on a traced request.
func markCache(tr *obs.Trace, hit bool) {
	if tr == nil {
		return
	}
	mStageCache.ObserveDuration(tr.Mark(StageCache))
	tr.Annotate("cache_hit", hit)
}

// dispatch submits r and waits for its result or the context deadline.
func (e *Engine) dispatch(ctx context.Context, r *request) (result, error) {
	if err := e.submit(r); err != nil {
		return result{}, err
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case res := <-r.done:
		return res, nil
	case <-done:
		mExpired.Inc() // the only count: run drops expired requests silently
		return result{}, ctx.Err()
	}
}

// submit enqueues without blocking: admission control is the queue bound.
func (e *Engine) submit(r *request) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	r.enq = time.Now()
	select {
	case e.q <- r:
		mQueueDepth.Set(float64(len(e.q)))
		return nil
	default:
		mOverloaded.Inc()
		return ErrOverloaded
	}
}

// Close stops admission, drains every queued request through the workers,
// and waits for them to finish — the graceful-shutdown half of the server's
// SIGTERM handling.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.q)
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for r := range e.q {
		batchStart := time.Now()
		batch, reason := e.collect(r)
		e.run(batch, batchStart, reason)
	}
}

// collect forms a batch starting from first without ever waiting: it takes
// the requests already queued until the batch is full (size flush) or the
// queue is empty (idle flush). A lone request pays no batching delay, and
// batches grow only from requests that arrived while the workers were busy,
// which is when coalescing pays. The returned reason names which condition
// flushed the batch; every flush is counted under its reason.
func (e *Engine) collect(first *request) ([]*request, string) {
	batch := []*request{first}
	for len(batch) < e.cfg.MaxBatch {
		select {
		case r, ok := <-e.q:
			if !ok { // Close drained the queue: flush what we have
				mFlushShutdown.Inc()
				return batch, FlushShutdown
			}
			batch = append(batch, r)
		default:
			mFlushIdle.Inc()
			return batch, FlushIdle
		}
	}
	mFlushSize.Inc()
	return batch, FlushSize
}

// run executes one batch: expired requests are dropped (their callers see
// the same expired context and return its error), the rest share a single
// stacked forward pass on the live artifact, and every result is delivered
// and cached. The artifact is loaded once and the cache generation before
// it, so a concurrent swap can neither fail the batch, nor mix two
// artifacts in it, nor let its results poison the post-swap cache.
//
// For traced requests the batching interval is split per request at
// batchStart: time from enqueue to batchStart is queue-wait (clamped into
// [enq, flush] — a request that joined mid-formation waited zero), and the
// remainder until the flush instant is batch-formation. Both stages plus the
// shared forward pass tile each request's wall time exactly, so the
// per-stage histograms sum to the end-to-end latency.
func (e *Engine) run(batch []*request, batchStart time.Time, reason string) {
	flush := time.Now()
	mQueueDepth.Set(float64(len(e.q)))
	var gen uint64
	if e.cache != nil {
		gen = e.cache.Gen() // before the artifact load: stale Puts must lose
	}
	served := e.reg.Served()

	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		if r.ctx == nil || r.ctx.Err() == nil {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	mBatchSize.Observe(float64(len(live)))
	for _, r := range live {
		if r.tr == nil {
			continue
		}
		split := batchStart
		if split.Before(r.enq) {
			split = r.enq
		}
		if split.After(flush) {
			split = flush
		}
		mStageQueue.ObserveDuration(r.tr.MarkAt(StageQueueWait, split))
		mStageForm.ObserveDuration(r.tr.MarkAt(StageBatchForm, flush))
		r.tr.Annotate("batch_size", len(live))
		r.tr.Annotate("flush", reason)
	}

	xs := tensor.NewMatrix(len(live), served.Model.InDim)
	for i, r := range live {
		copy(xs.Row(i), r.x)
	}
	all := served.EstimateAllTausBatch(xs)
	fwdEnd := time.Now()
	for _, r := range live {
		if r.tr != nil {
			mStageForward.ObserveDuration(r.tr.MarkAt(StageForward, fwdEnd))
		}
	}
	for i, r := range live {
		row := all.Row(i)
		if e.cfg.CurveCheck != nil {
			e.cfg.CurveCheck(row)
		}
		if r.all {
			vals := append([]float64(nil), row...)
			if e.cache != nil {
				e.cache.Put(cacheKey{r.h, tauAll}, vals, gen)
			}
			r.done <- result{all: vals}
			continue
		}
		v := row[r.tau]
		if e.cache != nil {
			e.cache.Put(cacheKey{r.h, r.tau}, []float64{v}, gen)
		}
		r.done <- result{val: v}
	}
	if e.cache != nil {
		mCacheSize.Set(float64(e.cache.Len()))
	}
	if tp := e.shadow.Load(); tp != nil {
		(*tp)(xs, all)
	}
}
