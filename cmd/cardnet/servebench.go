package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/metrics"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
	"cardnet/internal/tensor"
)

// batchPoint is one batched-throughput measurement: batched estimates per
// second at the given batch size, its speedup over the per-request path, and
// whether every batched estimate was byte-identical to the per-sample one.
type batchPoint struct {
	Size      int     `json:"size"`
	QPS       float64 `json:"qps"`
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
}

// engineBench measures the full serving engine under concurrent load with
// the estimate cache disabled (cold) vs enabled over repeating traffic
// (warm), plus the observed cache hit ratio of the warm run.
type engineBench struct {
	ColdQPS  float64 `json:"cold_qps"`
	WarmQPS  float64 `json:"warm_qps"`
	Speedup  float64 `json:"speedup"`
	HitRatio float64 `json:"hit_ratio"`
}

// traceBench quantifies the request-tracing layer. Every request pays the
// trace marks (sampling only gates JSONL emission), so the honest cost is
// traced-vs-untraced per-request latency through the engine; the traces in
// turn yield the per-stage breakdown an operator reads off /metrics:
// queue-wait quantiles, mean formed-batch size, and the flush-reason mix.
type traceBench struct {
	Untraced       latencyStats      `json:"untraced"`
	Traced         latencyStats      `json:"traced"`
	OverheadP50Pct float64           `json:"overhead_p50_pct"`
	QueueWaitP50Us float64           `json:"queue_wait_p50_us"`
	QueueWaitP95Us float64           `json:"queue_wait_p95_us"`
	MeanBatchSize  float64           `json:"mean_batch_size"`
	FlushMix       map[string]uint64 `json:"flush_mix"`
}

// precisionPoint is one (tier, batch size) forward-path measurement of the
// precision trajectory: per-call latency quantiles, estimate throughput, and
// the p50 speedup over the f64 tier at the same batch size.
type precisionPoint struct {
	Batch      int     `json:"batch"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
	QPS        float64 `json:"qps"`
	SpeedupP50 float64 `json:"speedup_p50"`
}

// precisionTier is one tier of the trajectory: the gate verdict (which tier
// actually serves, the measured q-error delta, Lemma-2 violation count) and
// the latency points across batch sizes. A failed gate records the fallback
// and measures the f64 path it would actually serve.
type precisionTier struct {
	Tier           string           `json:"tier"`
	Served         string           `json:"served"`
	GatePass       bool             `json:"gate_pass"`
	QErrP99Delta   float64          `json:"q_err_p99_delta"`
	MonoViolations int              `json:"mono_violations"`
	Reason         string           `json:"reason"`
	Points         []precisionPoint `json:"points"`
}

// precisionSection is the f64→f32 trajectory of the compiled inference
// fast path, measured on the direct forward (no queue/cache) at each batch
// size — the per-batch cost a serving worker pays.
type precisionSection struct {
	GateMaxDelta float64         `json:"gate_max_delta"`
	Sweep        int             `json:"sweep"`
	Batches      []int           `json:"batches"`
	Tiers        []precisionTier `json:"tiers"`
}

// serveBenchReport is the results/BENCH_serving.json schema.
type serveBenchReport struct {
	Dataset    string `json:"dataset"`
	Records    int    `json:"records"`
	InDim      int    `json:"in_dim"`
	TauMax     int    `json:"tau_max"`
	Accel      bool   `json:"accel"`
	Calls      int    `json:"calls"`
	PerRequest struct {
		QPS float64 `json:"qps"`
	} `json:"per_request"`
	Batched []batchPoint `json:"batched"`
	Engine  engineBench  `json:"engine"`
	Tracing traceBench   `json:"tracing"`
	// Admission records what overloaded clients see (503 + Retry-After).
	Admission *admissionBench `json:"admission,omitempty"`
	// Precision is the compiled-inference trajectory: f64 vs f32
	// forward latency/throughput with the accuracy-delta gate verdicts.
	Precision *precisionSection `json:"precision,omitempty"`
	// Cluster, Failover, and ClusterTracing are the -cluster router
	// experiments: scaling efficiency over 1/2/4 replicas, the mid-bench
	// replica kill, and the distributed-tracing overhead comparison.
	Cluster        *clusterBenchSection   `json:"cluster,omitempty"`
	Failover       *failoverBenchSection  `json:"failover,omitempty"`
	ClusterTracing *clusterTracingSection `json:"cluster_tracing,omitempty"`
}

// runServeBench measures the three levers of the serving subsystem: the
// batched forward pass vs per-request calls, and the estimate cache under
// repeating concurrent traffic. Instrumentation stays enabled throughout —
// the numbers are what production would see.
func runServeBench(m *core.Model, testX *tensor.Matrix, calls int) (*serveBenchReport, error) {
	if testX == nil || testX.Rows == 0 {
		return nil, fmt.Errorf("no test queries in bundle")
	}
	if calls < 512 {
		calls = 512
	}
	tauMax := m.Cfg.TauMax
	rows := testX.Rows
	tauOf := func(i int) int { return i % (tauMax + 1) }

	rep := &serveBenchReport{InDim: m.InDim, TauMax: tauMax, Accel: m.Cfg.Accel, Calls: calls}

	// Warmup both paths.
	for i := 0; i < 64; i++ {
		m.EstimateEncoded(testX.Row(i%rows), tauOf(i))
	}

	// Per-request baseline: one forward pass per estimate.
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		m.EstimateEncoded(testX.Row(i%rows), tauOf(i))
	}
	rep.PerRequest.QPS = float64(calls) / time.Since(t0).Seconds()

	// Batched path, including the row-copy cost the engine pays.
	for _, size := range []int{8, 16, 32} {
		xs := tensor.NewMatrix(size, m.InDim)
		taus := make([]int, size)
		iters := calls / size
		b0 := time.Now()
		for it := 0; it < iters; it++ {
			for r := 0; r < size; r++ {
				i := it*size + r
				copy(xs.Row(r), testX.Row(i%rows))
				taus[r] = tauOf(i)
			}
			m.EstimateEncodedBatch(xs, taus)
		}
		qps := float64(iters*size) / time.Since(b0).Seconds()
		rep.Batched = append(rep.Batched, batchPoint{
			Size:      size,
			QPS:       qps,
			Speedup:   qps / rep.PerRequest.QPS,
			Identical: verifyBatchIdentical(m, testX, size),
		})
	}

	eng, err := benchEngine(m, testX, calls, tauOf)
	if err != nil {
		return nil, err
	}
	rep.Engine = *eng

	tb, err := benchTracing(m, testX, calls, tauOf)
	if err != nil {
		return nil, err
	}
	rep.Tracing = *tb

	adm, err := runAdmissionBench(m, testX)
	if err != nil {
		return nil, err
	}
	rep.Admission = adm

	prec, err := benchPrecision(m, testX, calls)
	if err != nil {
		return nil, err
	}
	rep.Precision = prec
	return rep, nil
}

// benchPrecision measures the precision trajectory: each tier's direct
// batched forward (the path a serving worker runs per flush) at batch sizes
// 1/8/64, with the accuracy-delta gate evaluated exactly as serving would.
// The f64 tier is the exact forward; f32 runs the compiled fused plan when
// its gate passes and falls back to the f64 forward — recorded as such —
// when it does not.
func benchPrecision(m *core.Model, testX *tensor.Matrix, calls int) (*precisionSection, error) {
	gc := infer.GateConfig{Seed: 1}.WithDefaults()
	sec := &precisionSection{
		GateMaxDelta: gc.MaxQErrP99Delta,
		Sweep:        gc.Sweep,
		Batches:      []int{1, 8, 64},
	}
	baseP50 := map[int]float64{}
	for _, tier := range []infer.Precision{infer.PrecisionF64, infer.PrecisionF32} {
		plan, gate, err := infer.Compile(m, tier, gc)
		if err != nil {
			return nil, err
		}
		forward := m.EstimateAllTausBatch
		if plan != nil {
			forward = plan.EstimateAllTausBatch
		}
		pt := precisionTier{
			Tier:           string(tier),
			Served:         string(gate.Tier),
			GatePass:       gate.Pass,
			QErrP99Delta:   gate.QErrP99Delta,
			MonoViolations: gate.MonoViolations,
			Reason:         gate.Reason,
		}
		for _, batch := range sec.Batches {
			xs := tensor.NewMatrix(batch, m.InDim)
			for r := 0; r < batch; r++ {
				copy(xs.Row(r), testX.Row(r%testX.Rows))
			}
			iters := calls / batch
			if iters < 50 {
				iters = 50
			}
			for i := 0; i < iters/10+1; i++ { // warmup
				forward(xs)
			}
			lats := make([]float64, 0, iters)
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				c0 := time.Now()
				forward(xs)
				lats = append(lats, float64(time.Since(c0).Nanoseconds())/1e3)
			}
			total := time.Since(t0).Seconds()
			st := summarize(lats)
			p := precisionPoint{
				Batch: batch,
				P50Us: st.P50Micros,
				P99Us: st.P99Micros,
				QPS:   float64(iters*batch) / total,
			}
			if tier == infer.PrecisionF64 {
				baseP50[batch] = p.P50Us
				p.SpeedupP50 = 1
			} else if base := baseP50[batch]; base > 0 && p.P50Us > 0 {
				p.SpeedupP50 = base / p.P50Us
			}
			pt.Points = append(pt.Points, p)
		}
		sec.Tiers = append(sec.Tiers, pt)
	}
	return sec, nil
}

// benchTracing drives two otherwise-identical engines — one with per-request
// traces plus the drift monitor's curve check attached, one bare — in
// alternating rounds (so frequency/thermal drift averages out) and compares
// per-request latency. The cache is disabled so every request walks the full
// queue → batch → forward path the traces decompose.
func benchTracing(m *core.Model, testX *tensor.Matrix, calls int, tauOf func(int) int) (*traceBench, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	cfg := serving.Config{
		MaxBatch:     32,
		QueueDepth:   4096,
		CacheEntries: -1,
	}
	mon := monitor.New(monitor.Config{}, obs.NewRegistry())
	tcfg := cfg
	tcfg.CurveCheck = func(curve []float64) { mon.CheckCurve(curve) }
	engU := serving.NewEngine(serving.NewRegistry(m), cfg)
	defer engU.Close()
	engT := serving.NewEngine(serving.NewRegistry(m), tcfg)
	defer engT.Close()

	// run fires one round of concurrent traffic; for the traced engine it
	// also harvests queue-wait durations and formed-batch sizes per request.
	run := func(eng *serving.Engine, traced bool, n int) (lats, waits, sizes []float64, err error) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		per := n / workers
		if per < 1 {
			per = 1
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				l := make([]float64, 0, per)
				qw := make([]float64, 0, per)
				bs := make([]float64, 0, per)
				for i := 0; i < per; i++ {
					q := (w*per + i) % testX.Rows
					x, tau := testX.Row(q), tauOf(q)
					t0 := time.Now()
					if traced {
						tr := obs.NewTrace()
						if _, err := eng.EstimateTraced(context.Background(), x, tau, tr); err != nil {
							errc <- err
							return
						}
						l = append(l, float64(time.Since(t0).Nanoseconds())/1e3)
						for _, s := range tr.Stages() {
							if s.Name == serving.StageQueueWait {
								qw = append(qw, s.Us)
							}
						}
						if b, ok := tr.Fields()["batch_size"].(int); ok {
							bs = append(bs, float64(b))
						}
					} else {
						if _, err := eng.Estimate(context.Background(), x, tau); err != nil {
							errc <- err
							return
						}
						l = append(l, float64(time.Since(t0).Nanoseconds())/1e3)
					}
				}
				mu.Lock()
				lats = append(lats, l...)
				waits = append(waits, qw...)
				sizes = append(sizes, bs...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		select {
		case err := <-errc:
			return nil, nil, nil, err
		default:
		}
		return lats, waits, sizes, nil
	}

	if _, _, _, err := run(engU, false, calls/4); err != nil { // warmup
		return nil, err
	}
	flush0 := flushCounts()

	const rounds = 8
	chunk := calls / rounds
	var un, tr, waits, sizes []float64
	for r := 0; r < rounds; r++ {
		u, _, _, err := run(engU, false, chunk)
		if err != nil {
			return nil, err
		}
		un = append(un, u...)
		tl, w, b, err := run(engT, true, chunk)
		if err != nil {
			return nil, err
		}
		tr = append(tr, tl...)
		waits = append(waits, w...)
		sizes = append(sizes, b...)
	}
	flush1 := flushCounts()

	out := &traceBench{
		Untraced: summarize(un),
		Traced:   summarize(tr),
		FlushMix: map[string]uint64{},
	}
	out.OverheadP50Pct = overheadPct(out.Traced.P50Micros, out.Untraced.P50Micros)
	for k, v := range flush1 {
		out.FlushMix[k] = v - flush0[k]
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		out.QueueWaitP50Us = metrics.Quantile(waits, 0.50)
		out.QueueWaitP95Us = metrics.Quantile(waits, 0.95)
	}
	if len(sizes) > 0 {
		var s float64
		for _, v := range sizes {
			s += v
		}
		out.MeanBatchSize = s / float64(len(sizes))
	}
	return out, nil
}

// flushCounts snapshots the engine's flush-reason counters.
func flushCounts() map[string]uint64 {
	return map[string]uint64{
		serving.FlushSize:     obs.Default.Counter("serving.batch.flush_size").Value(),
		serving.FlushIdle:     obs.Default.Counter("serving.batch.flush_idle").Value(),
		serving.FlushShutdown: obs.Default.Counter("serving.batch.flush_shutdown").Value(),
	}
}

// verifyBatchIdentical checks byte-for-byte equality of the batched and
// per-sample paths over every (query, τ) pair the bench exercises.
func verifyBatchIdentical(m *core.Model, testX *tensor.Matrix, size int) bool {
	tauMax := m.Cfg.TauMax
	xs := tensor.NewMatrix(size, m.InDim)
	taus := make([]int, size)
	for start := 0; start < testX.Rows; start += size {
		n := size
		if start+n > testX.Rows {
			n = testX.Rows - start
		}
		sub := &tensor.Matrix{Rows: n, Cols: m.InDim, Data: xs.Data[:n*m.InDim]}
		for r := 0; r < n; r++ {
			copy(sub.Row(r), testX.Row(start+r))
			taus[r] = (start + r) % (tauMax + 1)
		}
		got := m.EstimateEncodedBatch(sub, taus[:n])
		for r := 0; r < n; r++ {
			if got[r] != m.EstimateEncoded(sub.Row(r), taus[r]) {
				return false
			}
		}
		all := m.EstimateAllTausBatch(sub)
		for r := 0; r < n; r++ {
			want := m.EstimateAllTaus(sub.Row(r))
			for i := range want {
				if all.At(r, i) != want[i] {
					return false
				}
			}
		}
	}
	return true
}

// benchEngine drives the full engine (queue, batcher, cache) with concurrent
// clients over a repeating query set, cache off vs on.
func benchEngine(m *core.Model, testX *tensor.Matrix, calls int, tauOf func(int) int) (*engineBench, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	run := func(cacheEntries int) (float64, error) {
		reg := serving.NewRegistry(m)
		eng := serving.NewEngine(reg, serving.Config{
			MaxBatch:     32,
			QueueDepth:   4096,
			CacheEntries: cacheEntries,
		})
		defer eng.Close()
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		per := calls / workers
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					q := (w*per + i) % testX.Rows
					if _, err := eng.Estimate(context.Background(), testX.Row(q), tauOf(q)); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(t0).Seconds()
		select {
		case err := <-errc:
			return 0, err
		default:
		}
		return float64(per*workers) / elapsed, nil
	}

	out := &engineBench{}
	var err error
	if out.ColdQPS, err = run(-1); err != nil {
		return nil, err
	}
	hits0 := obs.Default.Counter("serving.cache.hits").Value()
	miss0 := obs.Default.Counter("serving.cache.misses").Value()
	if out.WarmQPS, err = run(4096); err != nil {
		return nil, err
	}
	hits := float64(obs.Default.Counter("serving.cache.hits").Value() - hits0)
	misses := float64(obs.Default.Counter("serving.cache.misses").Value() - miss0)
	if hits+misses > 0 {
		out.HitRatio = hits / (hits + misses)
	}
	if out.ColdQPS > 0 {
		out.Speedup = out.WarmQPS / out.ColdQPS
	}
	return out, nil
}

func (r *serveBenchReport) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
