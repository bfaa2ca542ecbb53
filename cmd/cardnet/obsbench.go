package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/metrics"
	"cardnet/internal/obs"
	"cardnet/internal/obs/runtimeobs"
	"cardnet/internal/obs/slo"
	"cardnet/internal/tensor"
)

// latencyStats summarizes one measured configuration in microseconds.
type latencyStats struct {
	Calls     int     `json:"calls"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	MeanMicro float64 `json:"mean_us"`
}

// obsBenchReport is the results/BENCH_obs.json schema: estimate-path latency
// with obs instrumentation enabled vs. disabled, proving the overhead budget
// (< 5% on the hot path) is held, plus the background-telemetry section
// (runtime sampler + SLO tracker running vs. idle).
type obsBenchReport struct {
	Dataset         string            `json:"dataset"`
	Records         int               `json:"records"`
	Queries         int               `json:"queries"`
	TauMax          int               `json:"tau_max"`
	Accel           bool              `json:"accel"`
	On              latencyStats      `json:"obs_on"`
	Off             latencyStats      `json:"obs_off"`
	OverheadP50Pct  float64           `json:"overhead_p50_pct"`
	OverheadP99Pct  float64           `json:"overhead_p99_pct"`
	OverheadMeanPct float64           `json:"overhead_mean_pct"`
	Telemetry       telemetryOverhead `json:"telemetry"`
}

// telemetryOverhead compares estimate-path latency with the serve-mode
// background telemetry (runtimeobs sampler + slo tracker) running at an
// aggressive cadence against the same path with no background goroutines.
// The production cadences (10s sampling, 5s SLO evaluation) are hundreds of
// times slower than the benchmarked ones, so the real overhead is bounded
// far below what this section reports.
type telemetryOverhead struct {
	// IntervalMicros is the sampler/tracker cadence used for the bench.
	IntervalMicros  float64      `json:"interval_us"`
	On              latencyStats `json:"telemetry_on"`
	Off             latencyStats `json:"telemetry_off"`
	OverheadP50Pct  float64      `json:"overhead_p50_pct"`
	OverheadP99Pct  float64      `json:"overhead_p99_pct"`
	OverheadMeanPct float64      `json:"overhead_mean_pct"`
}

// runObsBench measures EstimateEncoded latency with instrumentation on and
// off. Rounds alternate between the two configurations so frequency/thermal
// drift averages out instead of biasing one side.
func runObsBench(m *core.Model, testX *tensor.Matrix, tauMax, calls int) (*obsBenchReport, error) {
	if testX == nil || testX.Rows == 0 {
		return nil, fmt.Errorf("no test queries in bundle")
	}
	if calls < 100 {
		calls = 100
	}
	run := estimateRunner(m, testX, tauMax)

	defer obs.SetEnabled(true)
	var seq int
	run(calls/4, &seq) // warmup, discarded

	const rounds = 8
	chunk := calls / rounds
	var on, off []float64
	for r := 0; r < rounds; r++ {
		obs.SetEnabled(true)
		on = append(on, run(chunk, &seq)...)
		obs.SetEnabled(false)
		off = append(off, run(chunk, &seq)...)
	}
	obs.SetEnabled(true)

	rep := &obsBenchReport{
		Queries: testX.Rows,
		TauMax:  tauMax,
		Accel:   m.Cfg.Accel,
		On:      summarize(on),
		Off:     summarize(off),
	}
	rep.OverheadP50Pct = overheadPct(rep.On.P50Micros, rep.Off.P50Micros)
	rep.OverheadP99Pct = overheadPct(rep.On.P99Micros, rep.Off.P99Micros)
	rep.OverheadMeanPct = overheadPct(rep.On.MeanMicro, rep.Off.MeanMicro)
	rep.Telemetry = measureTelemetryOverhead(run, calls)
	return rep, nil
}

// estimateRunner returns a closure measuring per-call EstimateEncoded
// latency in microseconds, advancing a shared query/τ sequence so
// consecutive measurement rounds never replay the same cache-warm inputs.
func estimateRunner(m *core.Model, testX *tensor.Matrix, tauMax int) func(count int, seq *int) []float64 {
	return func(count int, seq *int) []float64 {
		durs := make([]float64, 0, count)
		for i := 0; i < count; i++ {
			q := testX.Row(*seq % testX.Rows)
			tau := *seq % (tauMax + 1)
			*seq++
			t0 := time.Now()
			m.EstimateEncoded(q, tau)
			durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return durs
	}
}

// measureTelemetryOverhead times the estimate path with the serve-mode
// background telemetry running against the same path with it stopped,
// interleaving rounds like the instrumentation comparison above. The
// sampler and SLO tracker run at a deliberately punishing cadence (1ms vs.
// the production 10s/5s) so the measured delta is a hard upper bound.
func measureTelemetryOverhead(run func(count int, seq *int) []float64, calls int) telemetryOverhead {
	const interval = time.Millisecond
	obs.SetEnabled(true)
	startTelemetry := func() (*runtimeobs.Sampler, *slo.Tracker) {
		s := runtimeobs.Start(runtimeobs.Config{Interval: interval})
		tr := slo.New(slo.Config{
			Interval:   interval,
			Objectives: defaultSLOObjectives(0.1, 0.99, 0.999),
		})
		tr.Start()
		return s, tr
	}

	var seq int
	run(calls/4, &seq) // warmup, discarded

	const rounds = 8
	chunk := calls / rounds
	var on, off []float64
	for r := 0; r < rounds; r++ {
		s, tr := startTelemetry()
		on = append(on, run(chunk, &seq)...)
		tr.Stop()
		s.Stop()
		off = append(off, run(chunk, &seq)...)
	}

	to := telemetryOverhead{
		IntervalMicros: float64(interval.Microseconds()),
		On:             summarize(on),
		Off:            summarize(off),
	}
	to.OverheadP50Pct = overheadPct(to.On.P50Micros, to.Off.P50Micros)
	to.OverheadP99Pct = overheadPct(to.On.P99Micros, to.Off.P99Micros)
	to.OverheadMeanPct = overheadPct(to.On.MeanMicro, to.Off.MeanMicro)
	return to
}

func summarize(durs []float64) latencyStats {
	sorted := append([]float64(nil), durs...)
	sort.Float64s(sorted)
	var sum float64
	for _, d := range sorted {
		sum += d
	}
	return latencyStats{
		Calls:     len(sorted),
		P50Micros: metrics.Quantile(sorted, 0.50),
		P99Micros: metrics.Quantile(sorted, 0.99),
		MeanMicro: sum / float64(len(sorted)),
	}
}

func overheadPct(on, off float64) float64 {
	if off == 0 {
		return 0
	}
	return (on - off) / off * 100
}

func (r *obsBenchReport) write(path string) error {
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
