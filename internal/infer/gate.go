package infer

import (
	"fmt"
	"math/rand"
	"sort"

	"cardnet/internal/core"
	"cardnet/internal/metrics"
	"cardnet/internal/tensor"
)

// Default gate parameters, used when GateConfig fields are zero.
const (
	// DefaultGateMaxDelta bounds the allowed q-error p99 inflation of a
	// compiled tier relative to the exact f64 path: the tier is eligible only
	// if p99(q-error vs f64) − 1 stays within this bound over the sweep.
	DefaultGateMaxDelta = 0.1
	// DefaultGateSweep is the number of pseudo-random validation queries the
	// gate evaluates.
	DefaultGateSweep = 256
)

// GateConfig parameterizes the accuracy-delta gate Compile runs before a
// compiled tier may serve.
type GateConfig struct {
	// MaxQErrP99Delta is the bound on p99 q-error minus one versus the f64
	// path (0 selects DefaultGateMaxDelta).
	MaxQErrP99Delta float64
	// Sweep is the number of validation queries (0 selects DefaultGateSweep).
	Sweep int
	// Seed seeds the pseudo-random sweep so gate decisions are reproducible
	// across restarts and between replicas.
	Seed int64
}

// WithDefaults returns the config with zero fields replaced by the package
// defaults, so callers recording gate parameters see the effective values.
func (gc GateConfig) WithDefaults() GateConfig {
	if gc.MaxQErrP99Delta == 0 {
		gc.MaxQErrP99Delta = DefaultGateMaxDelta
	}
	if gc.Sweep == 0 {
		gc.Sweep = DefaultGateSweep
	}
	return gc
}

// GateResult records the gate's verdict for one compiled tier. It is
// serialized into bench reports and the serving /healthz payload, so every
// field is exported.
type GateResult struct {
	// Requested is the tier compilation was asked for.
	Requested Precision `json:"requested"`
	// Tier is the tier that will actually serve: Requested when the gate
	// passed, PrecisionF64 when it failed (or when f64 was requested).
	Tier Precision `json:"tier"`
	// Pass reports whether the requested tier is eligible to serve.
	Pass bool `json:"pass"`
	// QErrP99Delta is the measured p99 q-error minus one versus the f64 path
	// over the sweep (zero for the f64 tier itself).
	QErrP99Delta float64 `json:"q_err_p99_delta"`
	// MaxQErrP99Delta echoes the bound the measurement was judged against.
	MaxQErrP99Delta float64 `json:"max_q_err_p99_delta"`
	// MonoViolations counts sweep curves violating Lemma 2 monotonicity
	// (core.CurveMonotone); any nonzero count fails the gate.
	MonoViolations int `json:"mono_violations"`
	// Sweep is the number of validation queries evaluated.
	Sweep int `json:"sweep"`
	// Reason explains the verdict in one line.
	Reason string `json:"reason"`
}

// qErrP99 returns the 99th-percentile q-error between two equal-shape
// estimate matrices, with +1 smoothing so zero estimates stay comparable:
// q = max((a+1)/(b+1), (b+1)/(a+1)) ≥ 1.
func qErrP99(got, want *tensor.Matrix) float64 {
	qs := make([]float64, len(got.Data))
	for i, g := range got.Data {
		w := want.Data[i]
		q := (g + 1) / (w + 1)
		if q < 1 {
			q = 1 / q
		}
		qs[i] = q
	}
	sort.Float64s(qs)
	return metrics.Quantile(qs, 0.99)
}

// sweepInputs returns the gate's seeded pseudo-random binary validation
// queries, sweep rows of inDim features.
func sweepInputs(sweep, inDim int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	xs := tensor.NewMatrix(sweep, inDim)
	for i := range xs.Data {
		if rng.Intn(2) == 1 {
			xs.Data[i] = 1
		}
	}
	return xs
}

// monoViolations counts the rows of a curve matrix that violate Lemma 2
// monotonicity (core.CurveMonotone).
func monoViolations(all *tensor.Matrix) int {
	n := 0
	for r := 0; r < all.Rows; r++ {
		if !core.CurveMonotone(all.Row(r)) {
			n++
		}
	}
	return n
}

// MonoSweep evaluates sweep seeded pseudo-random binary queries of inDim
// features through forward — the batch estimator of the artifact that will
// serve — and returns how many of the resulting τ-sweep curves violate
// Lemma 2 monotonicity (core.CurveMonotone). The autopilot runs it over every
// retrained candidate's prepared serving artifact before a swap: incremental
// training preserves the architecture's monotone construction, but a
// verification sweep on what actually runs is what turns that argument into
// a checked invariant (zero violations required to swap). The sweep
// generation matches Compile's, so sweep/seed pairs are comparable across
// both gates.
func MonoSweep(forward func(*tensor.Matrix) *tensor.Matrix, inDim, sweep int, seed int64) int {
	if sweep <= 0 {
		sweep = DefaultGateSweep
	}
	return monoViolations(forward(sweepInputs(sweep, inDim, seed)))
}

// Compile lowers m to the requested tier and runs the accuracy-delta gate: a
// seeded pseudo-random binary query sweep is evaluated through both the exact
// f64 model path and the compiled plan, and the plan is eligible only if the
// q-error p99 delta stays within the bound AND every plan curve passes
// core.CurveMonotone (zero Lemma-2 violations). On a gate failure Compile
// returns a nil plan and a GateResult directing the caller back to the f64
// path — the compiled tier never serves estimates the gate has not vouched
// for. Requesting PrecisionF64 trivially passes with a nil plan (f64 is the
// exact path, not a compiled plan).
func Compile(m *core.Model, tier Precision, gc GateConfig) (*Plan, GateResult, error) {
	gc = gc.WithDefaults()
	res := GateResult{
		Requested:       tier,
		Tier:            PrecisionF64,
		MaxQErrP99Delta: gc.MaxQErrP99Delta,
		Sweep:           gc.Sweep,
	}
	if tier == PrecisionF64 {
		res.Pass = true
		res.Reason = "f64 is the exact path; no gate required"
		return nil, res, nil
	}
	p, err := Lower(m, tier)
	if err != nil {
		return nil, res, err
	}

	xs := sweepInputs(gc.Sweep, m.InDim, gc.Seed)
	got := p.EstimateAllTausBatch(xs)
	res.QErrP99Delta = qErrP99(got, m.EstimateAllTausBatch(xs)) - 1
	res.MonoViolations = monoViolations(got)

	switch {
	case res.MonoViolations > 0:
		res.Reason = fmt.Sprintf("%d of %d curves violate Lemma 2 monotonicity; falling back to f64", res.MonoViolations, gc.Sweep)
	case res.QErrP99Delta > gc.MaxQErrP99Delta:
		res.Reason = fmt.Sprintf("q-error p99 delta %.4f exceeds bound %.4f; falling back to f64", res.QErrP99Delta, gc.MaxQErrP99Delta)
	default:
		res.Pass = true
		res.Tier = tier
		res.Reason = fmt.Sprintf("q-error p99 delta %.4f within bound %.4f, 0 monotonicity violations", res.QErrP99Delta, gc.MaxQErrP99Delta)
	}
	if !res.Pass {
		return nil, res, nil
	}
	return p, res, nil
}
