// Package infer compiles trained CardNet / CardNet-A models into immutable
// float32 inference plans: the compiled fast path of the serving stack.
//
// A Plan is built once per model version from the fused core.LoweredModel
// spec (biases folded, Φ′ head projections fused with the embedding-region
// scatter and the per-distance decoders — see internal/core/lowering.go for
// the algebra). Its weights are cast to float32 and evaluated with the
// cache-blocked 4-wide-unrolled float32 kernels in internal/tensor.
//
// Two precision tiers exist. PrecisionF32 is the Plan. PrecisionF64
// deliberately has no Plan: it names the exact Model.EstimateAllTausBatch
// path, which keeps its bit-identical guarantees. f32 perturbs the learned
// function, so — following the paper's Lemma 2 contract and the
// monotonicity-under-perturbation argument that motivated this design — a
// plan may only serve after Compile's accuracy gate passes: q-error p99 vs
// the f64 path within a configured bound AND zero CurveMonotone violations
// on the validation sweep. Gate failures fall back to f64. The serving
// registry compiles each model version exactly once and publishes the plan
// (or the f64 fallback) with its gate verdict as one artifact, so the gate
// judges exactly what serves.
//
// Plans are immutable after compilation and safe for concurrent use; per-call
// transients come from an internal sync.Pool, so steady-state forwards do not
// allocate beyond the returned result matrix.
package infer

import (
	"fmt"
	"math"
	"sync"

	"cardnet/internal/core"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// Precision names an inference precision tier.
type Precision string

// The supported precision tiers: f64 is the exact path (no plan), f32 is the
// compiled plan.
const (
	PrecisionF64 Precision = "f64"
	PrecisionF32 Precision = "f32"
)

// ParsePrecision validates a tier name (as given to the -precision flag).
// The empty string parses as PrecisionF64.
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case "", PrecisionF64:
		return PrecisionF64, nil
	case PrecisionF32:
		return PrecisionF32, nil
	}
	return "", fmt.Errorf("infer: unknown precision %q (want f64 | f32)", s)
}

// dense32 is one compiled dense layer: float32 weights in ABT (Out×In) form.
type dense32 struct {
	in, out int
	w       *tensor.Matrix32 // Out×In
	b       []float32        // nil = no bias
	act     nn.ActKind
}

// Plan is an immutable compiled float32 inference model. Build plans with
// Lower (ungated) or Compile (gated); the zero value is not usable.
type Plan struct {
	inDim    int
	xpDim    int
	tauCount int
	zDim     int

	vae   []dense32
	accel bool

	// CardNet-A: ReLU trunk; heads are the fused F_j products (out=τcount,
	// in=h_j, no bias — β lands in headBias after all layers accumulate).
	trunk    []dense32
	heads    []dense32
	headBias []float32

	// Standard CardNet: first-layer x′ product, folded per-distance bias,
	// remaining layers, per-distance decoders.
	wx      dense32
	perDist *tensor.Matrix32
	rest    []dense32
	decW    *tensor.Matrix32
	decB    []float32

	pool sync.Pool // *scratch
}

// InDim reports the expected feature dimensionality.
func (p *Plan) InDim() int { return p.inDim }

// TauCount reports the number of per-distance decoders (τmax+1).
func (p *Plan) TauCount() int { return p.tauCount }

// demoteT transposes a pre-transposed (In×Out) lowered weight back into ABT
// (Out×In) float32 form.
func demoteT(wt *tensor.Matrix) *tensor.Matrix32 {
	w := tensor.NewMatrix32(wt.Cols, wt.Rows)
	for k := 0; k < wt.Rows; k++ {
		row := wt.Row(k)
		for o, v := range row {
			w.Data[o*wt.Rows+k] = float32(v)
		}
	}
	return w
}

// compileDense lowers one LoweredDense to float32.
func compileDense(d *core.LoweredDense) dense32 {
	return dense32{in: d.In, out: d.Out, w: demoteT(d.WT), b: tensor.Demote32Vec(d.B), act: d.Act}
}

// Lower compiles a model into an ungated plan at the given tier (only f32
// has a plan). Serving paths should use Compile, which runs the accuracy
// gate; Lower exists for benchmarks and tests that need the plan regardless
// of gate outcome.
func Lower(m *core.Model, tier Precision) (*Plan, error) {
	if tier != PrecisionF32 {
		return nil, fmt.Errorf("infer: no plan for tier %q (f64 is the exact model path)", tier)
	}
	lm := m.Lower()
	p := &Plan{
		inDim:    lm.InDim,
		xpDim:    lm.XpDim,
		tauCount: lm.TauCount,
		zDim:     lm.ZDim,
		accel:    lm.Accel,
	}
	for i := range lm.VAE {
		p.vae = append(p.vae, compileDense(&lm.VAE[i]))
	}
	if lm.Accel {
		p.headBias = tensor.Demote32Vec(lm.HeadBias)
		for j := range lm.Trunk {
			p.trunk = append(p.trunk, compileDense(&lm.Trunk[j]))
			p.heads = append(p.heads, dense32{in: lm.HeadsT[j].Rows, out: lm.TauCount, w: demoteT(lm.HeadsT[j]), act: nn.Identity})
		}
	} else {
		p.wx = dense32{in: lm.XpDim, out: lm.WXT.Cols, w: demoteT(lm.WXT), act: nn.Identity}
		p.perDist = tensor.Demote32(lm.PerDist)
		for i := range lm.Rest {
			p.rest = append(p.rest, compileDense(&lm.Rest[i]))
		}
		p.decW = tensor.Demote32(lm.DecW)
		p.decB = tensor.Demote32Vec(lm.DecB)
	}
	p.pool.New = func() any { return &scratch{} }
	return p, nil
}

// scratch holds the per-call transient buffers of one plan forward. Buffers
// grow to the high-water mark of the batch sizes seen and are reused via the
// plan's pool, so steady-state forwards allocate only the returned result.
type scratch struct {
	x32  *tensor.Matrix32 // converted input batch
	a, b *tensor.Matrix32 // ping-pong chain buffers (B rows)
	xp   *tensor.Matrix32 // concatenated x′
	acc  *tensor.Matrix32 // accel pre-activation accumulator
	za   *tensor.Matrix32 // standard-path big buffers (B·τcount rows)
	zb   *tensor.Matrix32
}

// ensure32 returns *slot resized to rows×cols, reallocating only on growth.
// Contents are undefined; callers overwrite fully.
func ensure32(slot **tensor.Matrix32, rows, cols int) *tensor.Matrix32 {
	m := *slot
	if m == nil || cap(m.Data) < rows*cols {
		m = &tensor.Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
		*slot = m
		return m
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:rows*cols]
	return m
}

// act32 applies an activation kind in place, the float32 counterpart of
// nn.Activation.Apply.
func act32(kind nn.ActKind, data []float32) {
	switch kind {
	case nn.Identity:
		return
	case nn.ReLU:
		for i, v := range data {
			if v < 0 {
				data[i] = 0
			}
		}
	case nn.ELU:
		for i, v := range data {
			if v < 0 {
				data[i] = float32(math.Exp(float64(v))) - 1
			}
		}
	case nn.Sigmoid:
		for i, v := range data {
			data[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case nn.Tanh:
		for i, v := range data {
			data[i] = float32(math.Tanh(float64(v)))
		}
	}
}

// dense runs one compiled layer: out = act(x·wᵀ + b), overwriting out (which
// must be distinct from x) unless accumulate is set, in which case the
// product is added into out and bias/activation are skipped (the fused-head
// accumulation).
func (p *Plan) dense(d *dense32, x, out *tensor.Matrix32, accumulate bool) {
	if accumulate {
		tensor.MatMulABTAdd32(x, d.w, out)
		return
	}
	tensor.MatMulABT32(x, d.w, out)
	if d.b != nil {
		tensor.AddBias32(out, d.b)
	}
	act32(d.act, out.Data)
}

// EstimateAllTaus returns the estimate curve for one encoded query — a
// single-row EstimateAllTausBatch.
func (p *Plan) EstimateAllTaus(x []float64) []float64 {
	xm := &tensor.Matrix{Rows: 1, Cols: len(x), Data: x}
	return p.EstimateAllTausBatch(xm).Row(0)
}

// EstimateAllTausBatch runs the compiled forward over a batch: xs is B×InDim
// and the result is B×(TauMax+1) prefix-sum estimates — the same contract as
// Model.EstimateAllTausBatch, evaluated through the fused float32 weights.
// Per-distance outputs are clamped at zero before a float64 prefix sum, so
// every returned row satisfies core.CurveMonotone by construction (adding
// non-negative terms never decreases the sum). Safe for concurrent callers.
func (p *Plan) EstimateAllTausBatch(xs *tensor.Matrix) *tensor.Matrix {
	if xs.Cols != p.inDim {
		panic(fmt.Sprintf("infer: feature dim %d, plan expects %d", xs.Cols, p.inDim))
	}
	b := xs.Rows
	t := p.tauCount
	s := p.pool.Get().(*scratch)

	x32 := ensure32(&s.x32, b, p.inDim)
	for i, v := range xs.Data {
		x32.Data[i] = float32(v)
	}

	// VAE mean latent + x′ concatenation.
	xp := x32
	if len(p.vae) > 0 {
		h := x32
		for i := range p.vae {
			d := &p.vae[i]
			out := ensure32(&s.a, b, d.out)
			if out == h {
				out = ensure32(&s.b, b, d.out)
			}
			p.dense(d, h, out, false)
			h = out
			// Alternate a/b so the next layer never reads and writes the
			// same buffer.
			s.a, s.b = s.b, s.a
		}
		xp = ensure32(&s.xp, b, p.xpDim)
		for e := 0; e < b; e++ {
			copy(xp.Row(e)[:p.inDim], x32.Row(e))
			copy(xp.Row(e)[p.inDim:], h.Row(e))
		}
	}

	out := tensor.NewMatrix(b, t)
	if p.accel {
		acc := ensure32(&s.acc, b, t)
		h := xp
		for j := range p.trunk {
			d := &p.trunk[j]
			hn := ensure32(&s.a, b, d.out)
			if hn == h {
				hn = ensure32(&s.b, b, d.out)
			}
			p.dense(d, h, hn, false)
			h = hn
			s.a, s.b = s.b, s.a
			p.dense(&p.heads[j], h, acc, j > 0)
		}
		tensor.AddBias32(acc, p.headBias)
		p.prefixSums(acc, out)
	} else {
		u := ensure32(&s.a, b, p.wx.out)
		p.dense(&p.wx, xp, u, false)
		h1 := p.wx.out
		z := ensure32(&s.za, b*t, h1)
		for e := 0; e < b; e++ {
			ue := u.Row(e)
			for i := 0; i < t; i++ {
				row := z.Row(e*t + i)
				pd := p.perDist.Row(i)
				for o := range row {
					v := ue[o] + pd[o]
					if v < 0 {
						v = 0 // first Φ layer ReLU
					}
					row[o] = v
				}
			}
		}
		for i := range p.rest {
			d := &p.rest[i]
			zn := ensure32(&s.zb, b*t, d.out)
			p.dense(d, z, zn, false)
			z = zn
			s.za, s.zb = s.zb, s.za
		}
		pre := ensure32(&s.acc, b, t)
		for e := 0; e < b; e++ {
			prow := pre.Row(e)
			for i := 0; i < t; i++ {
				prow[i] = tensor.Dot32(p.decW.Row(i), z.Row(e*t+i)) + p.decB[i]
			}
		}
		p.prefixSums(pre, out)
	}
	p.pool.Put(s)
	return out
}

// prefixSums converts per-distance pre-activations into the monotone
// estimate curves: ReLU clamp, then float64 prefix sums per row.
func (p *Plan) prefixSums(pre *tensor.Matrix32, out *tensor.Matrix) {
	t := p.tauCount
	for e := 0; e < pre.Rows; e++ {
		prow := pre.Row(e)
		orow := out.Row(e)
		var sum float64
		for i := 0; i < t; i++ {
			v := prow[i]
			if v > 0 {
				sum += float64(v)
			}
			orow[i] = sum
		}
	}
}
