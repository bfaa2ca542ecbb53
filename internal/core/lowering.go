// Plan lowering: the model-side half of the compiled inference fast path.
//
// Lower flattens a trained CardNet / CardNet-A into an immutable, purely
// numeric LoweredModel — deep-copied weight matrices, biases folded, and the
// CardNet-A head projections algebraically fused with both the
// embedding-region scatter and the per-distance decoders. internal/infer
// consumes a LoweredModel to build its float32 plan — compiled once per model
// version into the serving registry's published Served artifact; the f64
// evaluator here is the fusion reference tests compare that plan against,
// isolating fusion error (reassociation only, ~1e-12) from precision error.
//
// The CardNet-A fusion: the stock forward computes, per hidden layer j with
// region width w and region column offset col,
//
//	zj = h_j·Whead_jᵀ + bhead_j                   (B × τcount·w)
//	z[e·τcount+i][col+u] = zj[e][i·w+u]           (scatter copy loops)
//	pre[e][i] = Σ_col decW[i][col]·z[e,i][col] + decB[i]
//
// Substituting the scatter into the decoder dot product and exchanging sums:
//
//	pre[e][i] = Σ_j Σ_k h_j[e][k] · F_j[i][k] + β[i]
//	F_j[i][k] = Σ_u decW[i][col_j+u] · Whead_j[i·w+u][k]
//	β[i]      = decB[i] + Σ_j Σ_u decW[i][col_j+u] · bhead_j[i·w+u]
//
// F_j is a τcount×h_j matrix: one fused product per layer replaces a
// τcount·w-wide head product, a w-row scatter per example, and the decoder
// dots — cutting head flops by the region width (≈15× at paper scale) and
// eliminating the copy loops entirely.
//
// The standard (non-accel) encoder gets the analogous constant folding: the
// first Φ layer's weight splits into an x′ part and an embedding part, and
// since row (e, i) always carries the same embedding eᵢ, the embedding half
// collapses into a per-distance bias matrix PB[i] = eᵢ·W1eᵀ + b1 computed
// once at lowering time; the per-example half u = x′·W1xᵀ is computed once
// per example instead of once per (example, τ).
package core

import (
	"fmt"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// LoweredDense is one dense layer of a lowered model: out = act(x·W + b)
// with the weights stored pre-transposed (In×Out) so the f64 reference
// evaluator runs the branch-free MatMulDense kernel in a·b form. Consumers
// building other layouts (internal/infer's ABT-form f32 plan)
// re-transpose at compile time; both are one-off copies.
type LoweredDense struct {
	In, Out int
	WT      *tensor.Matrix // In×Out, WT[k][o] = W[o][k]
	B       []float64      // len Out
	Act     nn.ActKind
}

// LoweredModel is the immutable inference spec extracted by Model.Lower: all
// weights deep-copied, biases folded, heads fused. It has no back-references
// into the model, so continued training or a hot swap never mutates a plan
// already serving.
type LoweredModel struct {
	InDim    int
	XpDim    int // InDim + VAE latent width
	TauCount int
	ZDim     int

	// VAE mean path (empty when the model is VAE-ablated): the encoder ELU
	// stack followed by the Identity μ head, producing the deterministic
	// latent that inference concatenates to x.
	VAE []LoweredDense

	// Accel selects which of the two encoder specs below is populated.
	Accel bool

	// CardNet-A: ReLU trunk layers; HeadsT[j] is the fused head F_j stored
	// h_j×τcount (transposed for the a·b reference kernel); HeadBias is β.
	Trunk    []LoweredDense
	HeadsT   []*tensor.Matrix
	HeadBias []float64

	// Standard CardNet: WXT is the x′ half of the first Φ layer (xpDim×h1,
	// pre-transposed), PerDist the folded per-distance bias matrix
	// (τcount×h1), Rest the remaining ReLU layers, and DecW/DecB the
	// per-distance decoders (DecW is τcount×ZDim).
	WXT     *tensor.Matrix
	PerDist *tensor.Matrix
	Rest    []LoweredDense
	DecW    *tensor.Matrix
	DecB    []float64
}

// lowerDense deep-copies a Dense layer into transposed LoweredDense form.
func lowerDense(d *nn.Dense, act nn.ActKind) LoweredDense {
	wt := tensor.NewMatrix(d.In, d.Out)
	for o := 0; o < d.Out; o++ {
		for k := 0; k < d.In; k++ {
			wt.Set(k, o, d.W.Value[o*d.In+k])
		}
	}
	return LoweredDense{In: d.In, Out: d.Out, WT: wt, B: append([]float64(nil), d.B.Value...), Act: act}
}

// lowerSequential extracts the Dense layers of a Dense/Activation chain,
// attaching each activation to the Dense it follows.
func lowerSequential(s *nn.Sequential) []LoweredDense {
	var out []LoweredDense
	for _, l := range s.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			out = append(out, lowerDense(v, nn.Identity))
		case *nn.Activation:
			if len(out) == 0 {
				panic("core: lowering: activation before first dense layer")
			}
			out[len(out)-1].Act = v.Kind
		default:
			panic(fmt.Sprintf("core: lowering: unsupported layer %T", l))
		}
	}
	return out
}

// Lower flattens the model into an immutable LoweredModel (see the package
// comment for the fusion algebra). It runs once per model load or hot swap —
// never on the request path — and touches only frozen weight values, so it is
// safe to call concurrently with serving.
func (m *Model) Lower() *LoweredModel {
	t := m.tauCount()
	lm := &LoweredModel{
		InDim:    m.InDim,
		XpDim:    m.InDim + m.Cfg.VAELatent,
		TauCount: t,
		ZDim:     m.Cfg.ZDim,
		Accel:    m.Cfg.Accel,
	}
	if m.vae != nil {
		lm.VAE = lowerSequential(m.vae.Encoder)
		lm.VAE = append(lm.VAE, lowerDense(m.vae.MuHead, nn.Identity))
	}

	if m.Cfg.Accel {
		lm.HeadBias = append([]float64(nil), m.decB.Value...)
		col := 0
		for j, layer := range m.accel.layers {
			lm.Trunk = append(lm.Trunk, lowerDense(layer, nn.ReLU))
			w := m.accel.regions[j]
			head := m.accel.heads[j] // h_j → τcount·w
			hj := head.In
			ft := tensor.NewMatrix(hj, t) // F_jᵀ: ft[k][i] = Σ_u decW[i][col+u]·Whead[(i·w+u)][k]
			for i := 0; i < t; i++ {
				dw := m.decW.Value[i*m.Cfg.ZDim : (i+1)*m.Cfg.ZDim]
				for u := 0; u < w; u++ {
					d := dw[col+u]
					lm.HeadBias[i] += d * head.B.Value[i*w+u]
					if d == 0 {
						continue
					}
					hrow := head.W.Value[(i*w+u)*hj : (i*w+u+1)*hj]
					for k, hv := range hrow {
						ft.Data[k*t+i] += d * hv
					}
				}
			}
			lm.HeadsT = append(lm.HeadsT, ft)
			col += w
		}
		return lm
	}

	// Standard encoder: split the first Φ layer, fold the embeddings.
	first, ok := m.phi.Layers[0].(*nn.Dense)
	if !ok {
		panic("core: lowering: Φ does not start with a dense layer")
	}
	firstAct := nn.Identity
	for _, l := range m.phi.Layers[1:] {
		if a, isAct := l.(*nn.Activation); isAct {
			firstAct = a.Kind
		}
		break
	}
	h1 := first.Out
	lm.WXT = tensor.NewMatrix(lm.XpDim, h1)
	for o := 0; o < h1; o++ {
		row := first.W.Value[o*first.In : (o+1)*first.In]
		for k := 0; k < lm.XpDim; k++ {
			lm.WXT.Set(k, o, row[k])
		}
	}
	lm.PerDist = tensor.NewMatrix(t, h1)
	for i := 0; i < t; i++ {
		emb := m.embedding(i)
		pd := lm.PerDist.Row(i)
		for o := 0; o < h1; o++ {
			row := first.W.Value[o*first.In : (o+1)*first.In]
			s := first.B.Value[o]
			for u, ev := range emb {
				s += ev * row[lm.XpDim+u]
			}
			pd[o] = s
		}
	}
	// PerDist carries the activation of the first layer implicitly: the
	// evaluator applies firstAct after adding u + PerDist.
	rest := lowerSequential(nn.NewSequential(m.phi.Layers...))
	rest[0].Act = firstAct // recorded for completeness; evaluator applies it inline
	lm.Rest = rest[1:]
	lm.DecW = &tensor.Matrix{Rows: t, Cols: m.Cfg.ZDim, Data: append([]float64(nil), m.decW.Value...)}
	lm.DecB = append([]float64(nil), m.decB.Value...)
	return lm
}

// applyAct applies an activation kind element-wise in place, matching
// nn.Activation.Apply exactly.
func applyAct(kind nn.ActKind, data []float64) {
	if kind == nn.Identity {
		return
	}
	a := nn.Activation{Kind: kind}
	for i, v := range data {
		data[i] = a.Apply(v)
	}
}

// forwardDense runs x through a lowered dense chain with the branch-free
// dense kernel, allocating per call (this path is a test/gate reference, not
// the serving hot path — internal/infer's tiered plans own that).
func forwardDense(layers []LoweredDense, x *tensor.Matrix) *tensor.Matrix {
	for i := range layers {
		d := &layers[i]
		y := tensor.MatMulDense(x, d.WT, nil)
		tensor.AddBias(y, d.B)
		applyAct(d.Act, y.Data)
		x = y
	}
	return x
}

// latent computes the deterministic VAE mean latent, nil when VAE-ablated.
func (lm *LoweredModel) latent(xs *tensor.Matrix) *tensor.Matrix {
	if len(lm.VAE) == 0 {
		return nil
	}
	return forwardDense(lm.VAE, xs)
}

// xprime concatenates the raw input with the VAE latent ([x; μ(x)]).
func (lm *LoweredModel) xprime(xs *tensor.Matrix) *tensor.Matrix {
	mu := lm.latent(xs)
	if mu == nil {
		return xs
	}
	xp := tensor.NewMatrix(xs.Rows, lm.XpDim)
	for e := 0; e < xs.Rows; e++ {
		copy(xp.Row(e)[:lm.InDim], xs.Row(e))
		copy(xp.Row(e)[lm.InDim:], mu.Row(e))
	}
	return xp
}

// EstimateAllTausBatch is the fused f64 reference evaluator: xs is B×InDim
// and the result is B×τcount prefix-sum estimates, the same contract as
// Model.EstimateAllTausBatch. Per-distance outputs are ReLU-clamped before
// the f64 prefix sum, so every row satisfies CurveMonotone by construction.
// Results match the un-fused model to float64 reassociation error (~1e-12
// relative); they are not bit-identical, which is why the serving f64 tier
// keeps the legacy path and this evaluator serves as the fusion-correctness
// reference for the precision tiers.
func (lm *LoweredModel) EstimateAllTausBatch(xs *tensor.Matrix) *tensor.Matrix {
	if xs.Cols != lm.InDim {
		panic(fmt.Sprintf("core: feature dim %d, lowered model expects %d", xs.Cols, lm.InDim))
	}
	b := xs.Rows
	t := lm.TauCount
	xp := lm.xprime(xs)
	pre := tensor.NewMatrix(b, t)

	if lm.Accel {
		h := xp
		for j := range lm.Trunk {
			d := &lm.Trunk[j]
			y := tensor.MatMulDense(h, d.WT, nil)
			tensor.AddBias(y, d.B)
			applyAct(d.Act, y.Data)
			h = y
			fj := tensor.MatMulDense(h, lm.HeadsT[j], nil)
			for i, v := range fj.Data {
				pre.Data[i] += v
			}
		}
		tensor.AddBias(pre, lm.HeadBias)
	} else {
		u := tensor.MatMulDense(xp, lm.WXT, nil) // B × h1
		h1 := lm.WXT.Cols
		z := tensor.NewMatrix(b*t, h1)
		for e := 0; e < b; e++ {
			ue := u.Row(e)
			for i := 0; i < t; i++ {
				row := z.Row(e*t + i)
				pd := lm.PerDist.Row(i)
				for o := range row {
					row[o] = ue[o] + pd[o]
				}
			}
		}
		// First Φ layer activation is ReLU for every config built by New.
		applyAct(nn.ReLU, z.Data)
		for i := range lm.Rest {
			d := &lm.Rest[i]
			y := tensor.MatMulDense(z, d.WT, nil)
			tensor.AddBias(y, d.B)
			applyAct(d.Act, y.Data)
			z = y
		}
		for e := 0; e < b; e++ {
			prow := pre.Row(e)
			for i := 0; i < t; i++ {
				prow[i] = tensor.Dot(lm.DecW.Row(i), z.Row(e*t+i)) + lm.DecB[i]
			}
		}
	}

	out := tensor.NewMatrix(b, t)
	for e := 0; e < b; e++ {
		prow := pre.Row(e)
		orow := out.Row(e)
		var sum float64
		for i := 0; i < t; i++ {
			v := prow[i]
			if v < 0 {
				v = 0
			}
			sum += v
			orow[i] = sum
		}
	}
	return out
}
