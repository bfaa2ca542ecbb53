package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/tensor"
)

// timeCall runs f repeatedly for at least d (and at least five calls) and
// returns the median call time.
func timeCall(d time.Duration, f func()) time.Duration {
	var ts []float64
	for start := time.Now(); len(ts) < 5 || time.Since(start) < d; {
		t0 := time.Now()
		f()
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts))
}

// binaryRows returns n random binary rows of width dim.
func binaryRows(rng *rand.Rand, n, dim int) *tensor.Matrix {
	xs := tensor.NewMatrix(n, dim)
	for i := range xs.Data {
		xs.Data[i] = float64(rng.Intn(2))
	}
	return xs
}

// paperWidest is the widest layer of PaperConfig (Φ hidden 512/512/256/256):
// the kernel probe multiplies a 32-row batch through a 512×512 weight.
const paperWidest = 512

// setKernelLayers times the forward pass of m at batch 1 and 32, the same
// model lowered to an f32 infer plan, the ABT kernel, and the resulting
// FLOP floor of a batch-32 forward.
func setKernelLayers(rep *report, m *core.Model, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	x1, x32 := binaryRows(rng, 1, m.InDim), binaryRows(rng, 32, m.InDim)
	const d = 150 * time.Millisecond
	rep.set("core.forward_b1_us", us(timeCall(d, func() { m.EstimateAllTausBatch(x1) })), "(f64 EstimateAllTausBatch, median call)")
	rep.set("core.forward_b32_us", us(timeCall(d, func() { m.EstimateAllTausBatch(x32) })), "(f64, 32 rows)")

	plan, err := infer.Lower(m, infer.PrecisionF32)
	if err != nil {
		return fmt.Errorf("lower f32 plan: %w", err)
	}
	rep.set("infer.forward_b1_us", us(timeCall(d, func() { plan.EstimateAllTausBatch(x1) })), "(f32 plan of the same model)")
	rep.set("infer.forward_b32_us", us(timeCall(d, func() { plan.EstimateAllTausBatch(x32) })), "(f32 plan, 32 rows)")

	a := binaryRows(rng, 32, paperWidest)
	b := binaryRows(rng, paperWidest, paperWidest)
	out := tensor.NewMatrix(32, paperWidest)
	abt := timeCall(d, func() { tensor.PMatMulABT(a, b, out) })
	gflops := 2 * 32 * paperWidest * paperWidest / float64(abt.Nanoseconds())
	rep.set("tensor.abt_gflops", gflops, fmt.Sprintf("(PMatMulABT 32×%d · (%d×%d)ᵀ)", paperWidest, paperWidest, paperWidest))
	floor := flopsPerEstimate(m) * 32 / gflops / 1e3
	rep.set("core.forward_floor_b32_us", floor,
		fmt.Sprintf("(%.0f FLOPs per estimate × 32 / tensor.abt_gflops)", flopsPerEstimate(m)))
	return nil
}

// traceRec is one request's stage trace, as the server writes it to its
// JSONL trace log and as obs.Trace.Fields renders it in process.
type traceRec struct {
	ID       string           `json:"trace_id"`
	TotalUs  float64          `json:"total_us"`
	Stages   []obs.TraceStage `json:"stages"`
	Batch    int              `json:"batch_size"`
	Flush    string           `json:"flush"`
	CacheHit *bool            `json:"cache_hit"`
}

// recordOf converts an in-process trace to a traceRec.
func recordOf(tr *obs.Trace) (traceRec, error) {
	var r traceRec
	raw, err := json.Marshal(tr.Fields())
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(raw, &r)
	return r, err
}

func (r traceRec) stage(name string) float64 {
	var v float64
	for _, s := range r.Stages {
		if s.Name == name {
			v += s.Us
		}
	}
	return v
}

// ledger aggregates traced engine requests into per-layer metrics. Batch
// statistics weight each request by 1/batch_size, so they count batches, not
// requests.
type ledger struct {
	recs []traceRec
}

// engineStages are the stages the engine marks, with their metric names.
var engineStages = []struct{ stage, metric string }{
	{"cache", "serving.cache_us"},
	{"queue.wait", "serving.queue_wait_us"},
	{"batch.form", "serving.batch_form_us"},
	{"forward", "serving.forward_us"},
}

// set reports the engine layers and returns the summed mean stage time (µs)
// of the stages named in extra plus the engine stages.
func (l *ledger) set(rep *report, extra ...string) float64 {
	var covered float64
	var queue []float64
	var batches, deadline, size, fwdPerRow float64
	var hits, lookups, forwarded int
	for _, r := range l.recs {
		queue = append(queue, r.stage("queue.wait"))
		if r.CacheHit != nil {
			lookups++
			if *r.CacheHit {
				hits++
			}
		}
		if r.Batch > 0 {
			forwarded++
			w := 1 / float64(r.Batch)
			batches += w
			switch r.Flush {
			case "deadline":
				deadline += w
			case "size":
				size += w
			}
			fwdPerRow += r.stage("forward") / float64(r.Batch)
		}
	}
	n := float64(len(l.recs))
	base := fmt.Sprintf("(mean over %d traced requests)", len(l.recs))
	for _, s := range engineStages {
		var sum float64
		for _, r := range l.recs {
			sum += r.stage(s.stage)
		}
		rep.set(s.metric, sum/n, base)
		covered += sum / n
	}
	for _, name := range extra {
		var sum float64
		for _, r := range l.recs {
			sum += r.stage(name)
		}
		covered += sum / n
	}
	qs := summarize(queue)
	qp := qs.TailP
	rep.set("serving.queue_wait_p99_us", qs.Tail, fmt.Sprintf("(p%g of %d, %d beyond)", qp, qs.N, qs.Beyond))
	if forwarded > 0 {
		rep.set("serving.batch_size_mean", float64(forwarded)/batches,
			fmt.Sprintf("(base: %.0f batches seen by %d forwarded requests)", batches, forwarded))
		rep.set("serving.flush_deadline_share", deadline/batches, fmt.Sprintf("(base: %.0f batches)", batches))
		rep.set("serving.flush_size_share", size/batches, fmt.Sprintf("(base: %.0f batches)", batches))
		rep.set("serving.forward_per_row_us", fwdPerRow/float64(forwarded), "(forward stage / batch size, mean per request)")
	} else {
		for _, k := range []string{"serving.batch_size_mean", "serving.flush_deadline_share", "serving.flush_size_share", "serving.forward_per_row_us"} {
			rep.set(k, 0, "(no request reached a batch)")
		}
	}
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	rep.set("serving.cache_hit_ratio", ratio, fmt.Sprintf("(base: %d lookups, %d hits)", lookups, hits))
	return covered
}

// zeroLayers sets every per-layer metric the workload has not measured to 0:
// that layer does no timed work on this workload.
func zeroLayers(rep *report) {
	for _, s := range perLayer {
		if _, ok := rep.metrics[s.Name]; !ok {
			rep.set(s.Name, 0, "(not timed on this workload)")
		}
	}
}

// overheadPct is the traced median minus the untraced median, as a share of
// the untraced one.
func overheadPct(traced, untraced Summary) float64 {
	return (traced.P50 - untraced.P50) / untraced.P50 * 100
}
