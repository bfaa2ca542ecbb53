package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/autopilot"
	"cardnet/internal/core"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
	"cardnet/internal/tensor"
)

// autopilotBenchReport is the results/BENCH_autopilot.json schema: the three
// numbers the closed loop is judged on. Trigger latency is how long the pilot
// takes to leave idle once drift is sustained (the dwell window is the floor,
// so the interesting number is the excess over it). Shadow overhead is the
// all-τ estimate path with the shadow tap scoring every batch vs. the same
// path with no shadow running. Swap downtime is measured by clients hammering
// the engine across the entire cycle — retrain, shadow, and the hot swap
// itself — and must be zero errors; the worst single-call stall bounds any
// swap-induced hiccup.
type autopilotBenchReport struct {
	Dataset string `json:"dataset"`
	Records int    `json:"records"`
	Queries int    `json:"queries"`
	TauMax  int    `json:"tau_max"`
	Accel   bool   `json:"accel"`

	DwellMillis          float64 `json:"dwell_ms"`
	TriggerLatencyMillis float64 `json:"trigger_latency_ms"`
	TriggerExcessMillis  float64 `json:"trigger_excess_ms"`

	TrainSeconds  float64 `json:"train_seconds"`
	ShadowSeconds float64 `json:"shadow_seconds"`
	CycleSeconds  float64 `json:"cycle_seconds"`

	ShadowOn       latencyStats `json:"shadow_on"`
	ShadowOff      latencyStats `json:"shadow_off"`
	OverheadP50Pct float64      `json:"shadow_overhead_p50_pct"`
	OverheadP99Pct float64      `json:"shadow_overhead_p99_pct"`

	Swap autopilotSwapBench `json:"swap"`
}

// autopilotSwapBench is the downtime section: background clients run from
// trigger to cooldown, so the hot swap happens under live load.
type autopilotSwapBench struct {
	ClientCalls   uint64  `json:"client_calls"`
	ClientErrors  uint64  `json:"client_errors"`
	MaxStallMicro float64 `json:"max_stall_us"`
	VersionBefore uint64  `json:"version_before"`
	VersionAfter  uint64  `json:"version_after"`
	Swaps         uint64  `json:"swaps"`
	Rejects       uint64  `json:"rejects"`
}

// benchLabeler is the synthetic exact oracle for the bench: a monotone curve
// from the query's popcount. The loop's latencies do not depend on what the
// labels are, only that retraining on them produces a winning candidate.
func benchLabeler(x []float64, tauTop int) ([]float64, error) {
	pop := 0.0
	for _, v := range x {
		pop += v
	}
	curve := make([]float64, tauTop+1)
	for tau := range curve {
		curve[tau] = 20 + 5*float64(tau) + 3*pop
	}
	return curve, nil
}

// runAutopilotBench drives one full closed-loop cycle — sustained drift,
// trigger, incremental retrain, shadow evaluation, hot swap — against a live
// engine, measuring the loop's control latencies and the client-visible cost.
// The model is deliberately small (retrain throughput is trainbench's job);
// what this bench sizes is the machinery around the retrain.
func runAutopilotBench(testX *tensor.Matrix, tauMax, calls int, accel bool, seed int64) (*autopilotBenchReport, error) {
	if testX == nil || testX.Rows == 0 {
		return nil, fmt.Errorf("no test queries in bundle")
	}
	if calls < 200 {
		calls = 200
	}
	cfg := core.DefaultConfig(tauMax)
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 4
	cfg.PhiHidden = []int{32}
	cfg.ZDim = 8
	cfg.Accel = accel
	cfg.Seed = seed
	m := core.New(cfg, testX.Cols)

	eng := serving.NewEngine(serving.NewRegistry(m), serving.Config{
		MaxBatch: 8, CacheEntries: -1,
	})
	defer eng.Close()
	mon := monitor.New(monitor.Config{Window: 64, BaselineN: 4, EWMAAlpha: 0.5}, obs.NewRegistry())
	eng.Registry().OnSwap(mon.ResetBaseline)

	dir, err := os.MkdirTemp("", "autopilotbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	const dwell = 100 * time.Millisecond
	pcfg := autopilot.Config{
		Dir:           dir,
		Dwell:         dwell,
		Poll:          time.Millisecond,
		Cooldown:      time.Hour,
		MinSamples:    32,
		ShadowRate:    1.0,
		ShadowMin:     calls,
		ShadowTimeout: 10 * time.Minute,
		GateSweep:     64,
		GateSeed:      seed,
	}
	pilot, err := autopilot.New(pcfg, eng, mon, benchLabeler)
	if err != nil {
		return nil, err
	}
	pilot.Start()
	defer pilot.Close()

	// The bundle's test split is small (a dozen queries); the sample store
	// dedups by query, so synthesize a larger pool by flipping one bit per
	// variant — the synthetic popcount labeler stays exact on every variant.
	pool := make([][]float64, 256)
	for i := range pool {
		x := append([]float64(nil), testX.Row(i%testX.Rows)...)
		b := (i / testX.Rows) % len(x)
		x[b] = 1 - x[b]
		pool[i] = x
	}
	for i, x := range pool {
		pilot.Observe(x, i%(tauMax+1))
	}
	_, v0 := eng.Registry().Current()

	// Background clients: single-τ estimates through the whole cycle. Any
	// error — including during the hot swap — counts against downtime; the
	// widest gap between consecutive successes bounds the stall. Throttled so
	// their batches (which also feed the shadow tap) don't close the shadow
	// window before the measured all-τ loop has its samples.
	ctx := context.Background()
	var clientCalls, clientErrs atomic.Uint64
	var maxStall atomic.Int64
	stopClients := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopClients:
					return
				default:
				}
				t0 := time.Now()
				_, err := eng.Estimate(ctx, pool[(c*37+i)%len(pool)], i%(tauMax+1))
				clientCalls.Add(1)
				if err != nil {
					clientErrs.Add(1)
					continue
				}
				if d := time.Since(t0).Microseconds(); d > maxStall.Load() {
					maxStall.Store(d)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	// Freeze a healthy baseline, then sustain drift: actuals far from the
	// untrained model's estimates keep the monitor at retrain-recommended.
	for i := 0; i < 4; i++ {
		x := pool[i]
		est, err := eng.Estimate(ctx, x, i%(tauMax+1))
		if err != nil {
			return nil, err
		}
		mon.Record(est, est, monitor.Feedback)
	}
	driftStart := time.Now()
	for i := 0; i < 32; i++ {
		x := pool[i%len(pool)]
		tau := i % (tauMax + 1)
		truth, _ := benchLabeler(x, tauMax)
		est, err := eng.Estimate(ctx, x, tau)
		if err != nil {
			return nil, err
		}
		mon.Record(truth[tau], est, monitor.Feedback)
	}

	waitLeave := func(state string, timeout time.Duration) (time.Duration, error) {
		t0 := time.Now()
		for pilot.State() == state {
			if time.Since(t0) > timeout {
				return 0, fmt.Errorf("pilot stuck in %q for %s", state, timeout)
			}
			time.Sleep(500 * time.Microsecond)
		}
		return time.Since(t0), nil
	}
	if _, err := waitLeave(autopilot.StateIdle, time.Minute); err != nil {
		return nil, err
	}
	triggerLatency := time.Since(driftStart)

	trainStart := time.Now()
	for pilot.State() == autopilot.StateTriggered || pilot.State() == autopilot.StateTraining {
		if time.Since(trainStart) > 10*time.Minute {
			return nil, fmt.Errorf("retrain did not finish within 10m")
		}
		time.Sleep(time.Millisecond)
	}
	trainSeconds := time.Since(trainStart).Seconds()

	// Shadow: every all-τ batch is tapped (rate 1.0) and scored. Measured
	// calls are also what feeds the shadow its ShadowMin rows, so the window
	// closes right as the measurement completes.
	shadowStart := time.Now()
	var onDurs []float64
	var seq int
	for pilot.State() == autopilot.StateShadow && len(onDurs) < 4*calls {
		t0 := time.Now()
		if _, err := eng.EstimateAll(ctx, pool[seq%len(pool)]); err != nil {
			return nil, err
		}
		onDurs = append(onDurs, float64(time.Since(t0).Nanoseconds())/1e3)
		seq++
	}
	if _, err := waitLeave(autopilot.StateShadow, time.Minute); err != nil {
		return nil, err
	}
	if _, err := waitLeave(autopilot.StateSwap, time.Minute); err != nil {
		return nil, err
	}
	shadowSeconds := time.Since(shadowStart).Seconds()
	cycleSeconds := time.Since(driftStart).Seconds()
	if len(onDurs) == 0 {
		return nil, fmt.Errorf("shadow window closed before any measured call")
	}

	close(stopClients)
	wg.Wait()

	// Baseline: the identical all-τ path with no shadow running. Measured
	// after the swap — the candidate shares the live architecture, so the
	// forward pass costs the same.
	var offDurs []float64
	for i := 0; i < len(onDurs); i++ {
		t0 := time.Now()
		if _, err := eng.EstimateAll(ctx, pool[seq%len(pool)]); err != nil {
			return nil, err
		}
		offDurs = append(offDurs, float64(time.Since(t0).Nanoseconds())/1e3)
		seq++
	}

	st := pilot.Status()
	_, v1 := eng.Registry().Current()
	rep := &autopilotBenchReport{
		Queries:              testX.Rows,
		TauMax:               tauMax,
		Accel:                accel,
		DwellMillis:          float64(dwell.Milliseconds()),
		TriggerLatencyMillis: float64(triggerLatency.Nanoseconds()) / 1e6,
		TriggerExcessMillis:  float64((triggerLatency - dwell).Nanoseconds()) / 1e6,
		TrainSeconds:         trainSeconds,
		ShadowSeconds:        shadowSeconds,
		CycleSeconds:         cycleSeconds,
		ShadowOn:             summarize(onDurs),
		ShadowOff:            summarize(offDurs),
		Swap: autopilotSwapBench{
			ClientCalls:   clientCalls.Load(),
			ClientErrors:  clientErrs.Load(),
			MaxStallMicro: float64(maxStall.Load()),
			VersionBefore: v0,
			VersionAfter:  v1,
			Swaps:         st.Swaps,
			Rejects:       st.Rejects,
		},
	}
	rep.OverheadP50Pct = overheadPct(rep.ShadowOn.P50Micros, rep.ShadowOff.P50Micros)
	rep.OverheadP99Pct = overheadPct(rep.ShadowOn.P99Micros, rep.ShadowOff.P99Micros)
	if st.Swaps != 1 {
		return nil, fmt.Errorf("bench cycle did not end in a swap: %+v (last %+v)", st, st.LastDecision)
	}
	return rep, nil
}

func (r *autopilotBenchReport) write(path string) error {
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
