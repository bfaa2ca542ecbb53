package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/nn"
	"cardnet/internal/obs"
	"cardnet/internal/simselect"
	"cardnet/internal/tensor"
)

// tinyConfig keeps unit-test training fast.
func tinyConfig(tauMax int, accel bool) Config {
	cfg := DefaultConfig(tauMax)
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 6
	cfg.VAEEpochs = 3
	cfg.PhiHidden = []int{24, 16}
	cfg.ZDim = 12
	cfg.Epochs = 8
	cfg.Batch = 16
	cfg.Accel = accel
	return cfg
}

// hammingFixture builds a small Hamming workload with exact labels.
func hammingFixture(t *testing.T, n int) (*TrainSet, *TrainSet, *feature.HammingExtractor, []dist.BitVector) {
	t.Helper()
	recs := dataset.BinaryCodes(n, 32, 4, 0.08, 5)
	ext := feature.NewHammingExtractor(32, 12, 12)
	ix := simselect.NewHammingIndex(recs)
	grid := dataset.ThresholdGrid(12, 12)
	counts := func(q dist.BitVector, g []float64) []int {
		cum := ix.CountAtEach(q, 12)
		out := make([]int, len(g))
		for i, theta := range g {
			out[i] = cum[int(theta)]
		}
		return out
	}
	queries := recs[:n/2]
	train, err := BuildTrainSet[dist.BitVector](ext, queries[:len(queries)*4/5], grid, counts)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := BuildTrainSet[dist.BitVector](ext, queries[len(queries)*4/5:], grid, counts)
	if err != nil {
		t.Fatal(err)
	}
	return train, valid, ext, recs
}

func TestBuildTrainSetShapeAndMonotoneLabels(t *testing.T) {
	train, _, ext, _ := hammingFixture(t, 200)
	if train.X.Cols != ext.Dim() {
		t.Fatalf("X cols=%d", train.X.Cols)
	}
	if train.TauTop != 12 {
		t.Fatalf("TauTop=%d", train.TauTop)
	}
	var psum float64
	for _, p := range train.P {
		psum += p
	}
	if math.Abs(psum-1) > 1e-9 {
		t.Fatalf("P sums to %v", psum)
	}
	for r := 0; r < train.NumQueries(); r++ {
		row := train.Labels.Row(r)
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1] {
				t.Fatalf("labels not monotone at row %d", r)
			}
		}
		// Query is in the dataset: distance-0 count ≥ 1.
		if row[0] < 1 {
			t.Fatalf("row %d: self-count %v", r, row[0])
		}
	}
}

func TestBuildTrainSetErrors(t *testing.T) {
	ext := feature.NewHammingExtractor(8, 4, 4)
	if _, err := BuildTrainSet[dist.BitVector](ext, nil, nil, nil); err == nil {
		t.Fatal("empty grid must error")
	}
	if _, err := BuildTrainSet[dist.BitVector](ext, nil, []float64{1, 0}, nil); err == nil {
		t.Fatal("descending grid must error")
	}
	bad := func(q dist.BitVector, g []float64) []int { return []int{1} }
	_, err := BuildTrainSet[dist.BitVector](ext, []dist.BitVector{dist.NewBitVector(8)},
		[]float64{0, 1}, bad)
	if err == nil {
		t.Fatal("wrong counts length must error")
	}
}

func TestPerDistanceLabels(t *testing.T) {
	ts := &TrainSet{Labels: tensor.FromRows([][]float64{{1, 4, 4, 9}}), TauTop: 3}
	got := ts.PerDistanceLabels(0)
	want := []float64{1, 3, 0, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PerDistanceLabels=%v", got)
		}
	}
}

func TestSubset(t *testing.T) {
	train, _, _, _ := hammingFixture(t, 100)
	s := train.Subset([]int{0, 2})
	if s.NumQueries() != 2 || s.TauTop != train.TauTop {
		t.Fatalf("subset wrong: %d queries", s.NumQueries())
	}
	for j := 0; j < s.X.Cols; j++ {
		if s.X.At(1, j) != train.X.At(2, j) {
			t.Fatal("subset row mismatch")
		}
	}
}

func TestEstimateMonotonicityProperty(t *testing.T) {
	for _, accel := range []bool{false, true} {
		m := New(tinyConfig(10, accel), 24)
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			x := make([]float64, 24)
			for i := range x {
				if r.Intn(2) == 1 {
					x[i] = 1
				}
			}
			prev := -1.0
			for tau := 0; tau <= 10; tau++ {
				v := m.EstimateEncoded(x, tau)
				if v < prev-1e-9 || v < 0 || math.IsNaN(v) {
					return false
				}
				prev = v
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("accel=%v: %v", accel, err)
		}
	}
}

func TestEstimateDeterministic(t *testing.T) {
	m := New(tinyConfig(6, false), 16)
	x := make([]float64, 16)
	x[3], x[9] = 1, 1
	a := m.EstimateEncoded(x, 4)
	b := m.EstimateEncoded(x, 4)
	if a != b {
		t.Fatal("inference must be deterministic")
	}
}

func TestEstimateAllTausMatchesEstimateEncoded(t *testing.T) {
	m := New(tinyConfig(8, true), 16)
	x := make([]float64, 16)
	x[0], x[5], x[11] = 1, 1, 1
	all := m.EstimateAllTaus(x)
	for tau := 0; tau <= 8; tau++ {
		if math.Abs(all[tau]-m.EstimateEncoded(x, tau)) > 1e-9 {
			t.Fatalf("mismatch at τ=%d: %v vs %v", tau, all[tau], m.EstimateEncoded(x, tau))
		}
	}
}

func TestEstimateClampsTau(t *testing.T) {
	m := New(tinyConfig(4, false), 8)
	x := make([]float64, 8)
	if m.EstimateEncoded(x, -3) != 0 {
		t.Fatal("negative τ must estimate 0")
	}
	if m.EstimateEncoded(x, 99) != m.EstimateEncoded(x, 4) {
		t.Fatal("τ above TauMax must clamp")
	}
}

func TestEstimateWrongDimPanics(t *testing.T) {
	m := New(tinyConfig(4, false), 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.EstimateEncoded(make([]float64, 5), 1)
}

// Gradient check of the full model (standard and accelerated) against
// numerical differentiation of the batch loss.
func TestModelGradCheck(t *testing.T) {
	for _, accel := range []bool{false, true} {
		cfg := tinyConfig(3, accel)
		cfg.VAEHidden = []int{8}
		cfg.VAELatent = 4
		cfg.PhiHidden = []int{10, 8}
		cfg.ZDim = 6
		m := New(cfg, 10)

		rng := rand.New(rand.NewSource(3))
		x := tensor.NewMatrix(4, 10)
		for i := range x.Data {
			if rng.Float64() < 0.5 {
				x.Data[i] = 1
			}
		}
		labels := tensor.NewMatrix(4, 4)
		for i := range labels.Data {
			labels.Data[i] = float64(rng.Intn(50))
		}
		// Make labels cumulative.
		for e := 0; e < 4; e++ {
			row := labels.Row(e)
			for i := 1; i < len(row); i++ {
				row[i] += row[i-1]
			}
		}
		p := []float64{0.25, 0.25, 0.25, 0.25}
		omega := []float64{0.25, 0.25, 0.25, 0.25}

		mkRng := func() *rand.Rand { return rand.New(rand.NewSource(55)) }
		lossFn := func() float64 {
			f := m.forward(x, true, mkRng())
			var loss float64
			top := 3
			nTotal := x.Rows * (top + 1)
			for e := 0; e < x.Rows; e++ {
				lrow := labels.Row(e)
				var cum, prev float64
				for tau := 0; tau <= top; tau++ {
					cum += f.c.At(e, tau)
					w := p[tau] * float64(top+1)
					d := logErr(cum, lrow[tau])
					loss += w * d * d / float64(nTotal)
					ci := lrow[tau] - prev
					prev = lrow[tau]
					d2 := logErr(f.c.At(e, tau), ci)
					loss += m.Cfg.LambdaDelta * omega[tau] * d2 * d2 / float64(x.Rows)
				}
			}
			recon, kl := m.vae.Loss(f.vaeOut, x)
			return loss + m.Cfg.Lambda*(recon+kl)
		}

		// Analytic gradients via trainBatch's internals: replicate its dc
		// computation by calling forward+backward directly.
		nn.NewAdam(m.Params(), 0).ZeroGrad()
		f := m.forward(x, true, mkRng())
		dc := tensor.NewMatrix(4, 4)
		top := 3
		nTotal := x.Rows * (top + 1)
		for e := 0; e < x.Rows; e++ {
			lrow := labels.Row(e)
			var cum, prev float64
			cums := make([]float64, top+1)
			for i := 0; i <= top; i++ {
				cum += f.c.At(e, i)
				cums[i] = cum
			}
			for tau := 0; tau <= top; tau++ {
				w := p[tau] * float64(top+1)
				g := w * msleGrad(cums[tau], lrow[tau], nTotal)
				for i := 0; i <= tau; i++ {
					dc.Data[e*4+i] += g
				}
				ci := lrow[tau] - prev
				prev = lrow[tau]
				dc.Data[e*4+tau] += m.Cfg.LambdaDelta * omega[tau] * msleGrad(f.c.At(e, tau), ci, x.Rows)
			}
		}
		m.backward(f, dc, m.Cfg.Lambda)

		params := m.Params()
		checked := 0
		for _, pm := range params {
			idxs := []int{0, len(pm.Value) / 2}
			for _, i := range idxs {
				orig := pm.Value[i]
				const h = 1e-5
				pm.Value[i] = orig + h
				up := lossFn()
				pm.Value[i] = orig - h
				down := lossFn()
				pm.Value[i] = orig
				num := (up - down) / (2 * h)
				if math.Abs(num-pm.Grad[i]) > 2e-3*(1+math.Abs(num)) {
					t.Fatalf("accel=%v param %s[%d]: analytic %v numeric %v", accel, pm.Name, i, pm.Grad[i], num)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no parameters checked")
		}
	}
}

func TestTrainingReducesValidationError(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 300)
	for _, accel := range []bool{false, true} {
		cfg := tinyConfig(12, accel)
		cfg.Epochs = 15
		m := New(cfg, train.X.Cols)
		before, _ := m.validate(valid, train.TauTop)
		res := m.Train(train, valid)
		after, _ := m.validate(valid, train.TauTop)
		if !(after < before) {
			t.Fatalf("accel=%v: validation MSLE did not improve: %v -> %v", accel, before, after)
		}
		if res.Epochs == 0 || math.IsInf(res.BestValidMSLE, 1) {
			t.Fatalf("accel=%v: bad result %+v", accel, res)
		}
	}
}

func TestTrainedModelStillMonotonic(t *testing.T) {
	train, valid, _, recs := hammingFixture(t, 250)
	cfg := tinyConfig(12, true)
	cfg.Epochs = 10
	m := New(cfg, train.X.Cols)
	m.Train(train, valid)
	for qi := 0; qi < 20; qi++ {
		x := recs[qi].Floats()
		prev := -1.0
		for tau := 0; tau <= 12; tau++ {
			v := m.EstimateEncoded(x, tau)
			if v < prev-1e-9 {
				t.Fatalf("trained model not monotone at query %d τ=%d", qi, tau)
			}
			prev = v
		}
	}
}

func TestTrainWithoutValidation(t *testing.T) {
	train, _, _, _ := hammingFixture(t, 120)
	cfg := tinyConfig(12, false)
	cfg.Epochs = 3
	m := New(cfg, train.X.Cols)
	res := m.Train(train, nil)
	if res.Epochs != 3 {
		t.Fatalf("epochs=%d", res.Epochs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	train, valid, _, recs := hammingFixture(t, 150)
	cfg := tinyConfig(12, true)
	cfg.Epochs = 4
	m := New(cfg, train.X.Cols)
	m.Train(train, valid)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		x := recs[qi].Floats()
		for tau := 0; tau <= 12; tau += 3 {
			if m.EstimateEncoded(x, tau) != m2.EstimateEncoded(x, tau) {
				t.Fatal("loaded model estimates differ")
			}
		}
	}
	if m2.TauTop != m.TauTop {
		t.Fatal("TauTop not preserved")
	}
}

func TestIncrementalTrainSkipsWhenErrorStable(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 150)
	cfg := tinyConfig(12, false)
	cfg.Epochs = 6
	m := New(cfg, train.X.Cols)
	res := m.Train(train, valid)
	inc := m.IncrementalTrain(train, valid, res.BestValidMSLE)
	if !inc.Skipped {
		t.Fatalf("unchanged data should skip retraining: %+v", inc)
	}
}

func TestIncrementalTrainImprovesAfterUpdate(t *testing.T) {
	// Train on one label distribution, then shift all labels upward (as if
	// many similar records were inserted) and verify incremental learning
	// reduces the degraded validation error.
	train, valid, _, _ := hammingFixture(t, 200)
	cfg := tinyConfig(12, false)
	cfg.Epochs = 10
	m := New(cfg, train.X.Cols)
	res := m.Train(train, valid)

	scale := func(ts *TrainSet) *TrainSet {
		out := &TrainSet{X: ts.X, Labels: ts.Labels.Clone(), TauTop: ts.TauTop, P: ts.P}
		for i := range out.Labels.Data {
			out.Labels.Data[i] = out.Labels.Data[i]*3 + 5
		}
		return out
	}
	newTrain, newValid := scale(train), scale(valid)

	top := train.TauTop
	degraded, _ := m.validate(newValid, top)
	inc := m.IncrementalTrain(newTrain, newValid, res.BestValidMSLE)
	if inc.Skipped {
		t.Fatal("shifted labels must trigger retraining")
	}
	if !(inc.ValidMSLE < degraded) {
		t.Fatalf("incremental learning did not improve: %v -> %v", degraded, inc.ValidMSLE)
	}
}

// TestEstimatorEndToEndMonotoneInTheta checks Lemma 1 end to end: for every
// feature extractor, Estimator.Estimate is non-decreasing in θ over a dense
// grid running past ThetaMax, for an untrained and a briefly trained model.
func TestEstimatorEndToEndMonotoneInTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	t.Run("hamming", func(t *testing.T) {
		recs := make([]dist.BitVector, 60)
		for i := range recs {
			recs[i] = dist.NewBitVector(32)
			for b := 0; b < 32; b++ {
				recs[i].SetBit(b, rng.Intn(2) == 1)
			}
		}
		checkMonotoneInTheta(t, feature.NewHammingExtractor(32, 12, 12), recs,
			func(a, b dist.BitVector) float64 { return float64(dist.Hamming(a, b)) })
	})
	t.Run("edit", func(t *testing.T) {
		const alphabet = "abcd"
		recs := make([]string, 60)
		for i := range recs {
			b := make([]byte, 4+rng.Intn(6))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			recs[i] = string(b)
		}
		checkMonotoneInTheta(t, feature.NewEditExtractor(alphabet, 10, 6, 6), recs,
			func(a, b string) float64 { return float64(dist.Edit(a, b)) })
	})
	t.Run("jaccard", func(t *testing.T) {
		recs := make([]dist.IntSet, 60)
		for i := range recs {
			toks := make([]uint32, 3+rng.Intn(8))
			for j := range toks {
				toks[j] = uint32(rng.Intn(24))
			}
			recs[i] = dist.NewIntSet(toks)
		}
		checkMonotoneInTheta(t, feature.NewJaccardExtractor(16, 2, 0.6, 12, 3), recs, dist.Jaccard)
	})
	t.Run("euclidean", func(t *testing.T) {
		recs := make([][]float64, 60)
		for i := range recs {
			recs[i] = make([]float64, 8)
			for j := range recs[i] {
				recs[i][j] = rng.NormFloat64()
			}
			dist.Normalize(recs[i])
		}
		checkMonotoneInTheta(t, feature.NewEuclideanExtractor(12, 8, 7, 1.0, 0.8, 12, 5), recs, dist.Euclidean)
	})
	t.Run("l1", func(t *testing.T) {
		recs := make([][]int, 60)
		for i := range recs {
			recs[i] = make([]int, 4)
			for j := range recs[i] {
				recs[i][j] = rng.Intn(6)
			}
		}
		checkMonotoneInTheta(t, feature.NewL1Extractor(4, 5, 10, 10), recs,
			func(a, b []int) float64 {
				var d int
				for i := range a {
					d += max(a[i]-b[i], b[i]-a[i])
				}
				return float64(d)
			})
	})
}

// checkMonotoneInTheta trains a model on exact brute-force labels over recs
// and asserts that Estimate never decreases along a dense θ sweep from 0 to
// 1.5·ThetaMax, untrained and trained, for queries drawn from recs.
func checkMonotoneInTheta[R any](t *testing.T, ext feature.Extractor[R], recs []R, d func(a, b R) float64) {
	t.Helper()
	counts := func(q R, grid []float64) []int {
		out := make([]int, len(grid))
		for _, r := range recs {
			dq := d(q, r)
			for i, theta := range grid {
				if dq <= theta {
					out[i]++
				}
			}
		}
		return out
	}
	grid := dataset.ThresholdGrid(ext.ThetaMax(), 12)
	half := len(recs) / 2
	train, err := BuildTrainSet(ext, recs[:half], grid, counts)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := BuildTrainSet(ext, recs[half:], grid, counts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(ext.TauMax(), true)
	cfg.VAEEpochs = 1
	cfg.Epochs = 2
	trained := New(cfg, ext.Dim())
	trained.Train(train, valid)
	models := map[string]*Model{"untrained": New(cfg, ext.Dim()), "trained": trained}

	top := 1.5 * ext.ThetaMax()
	step := ext.ThetaMax() / 97 // off the grid, so θ lands between τ boundaries too
	for name, m := range models {
		est := NewEstimator(ext, m)
		rises := false
		for qi := 0; qi < len(recs); qi += 7 {
			q := recs[qi]
			prev := math.Inf(-1)
			for theta := 0.0; theta <= top; theta += step {
				v := est.Estimate(q, theta)
				if v < prev {
					t.Fatalf("%s model, query %d: Estimate(θ=%.4f)=%g < %g at the previous θ", name, qi, theta, v, prev)
				}
				prev = v
			}
			rises = rises || prev > est.Estimate(q, 0)
			if est.Count(q, ext.ThetaMax()/2) < 0 {
				t.Fatalf("%s model, query %d: negative Count", name, qi)
			}
		}
		if !rises {
			t.Fatalf("%s model: no query's estimate grows with θ; the sweep proves nothing", name)
		}
	}
}

func TestModelSizeBytesPositiveAndAccelLarger(t *testing.T) {
	std := New(tinyConfig(10, false), 32)
	acc := New(tinyConfig(10, true), 32)
	if std.SizeBytes() <= 0 || acc.SizeBytes() <= 0 {
		t.Fatal("sizes must be positive")
	}
}

func TestPaperConfig(t *testing.T) {
	c := PaperConfig(24, 64)
	if c.TauMax != 24 || c.VAELatent != 64 || len(c.PhiHidden) != 4 {
		t.Fatalf("PaperConfig=%+v", c)
	}
}

func TestNoVAEAblationVariant(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 200)
	cfg := tinyConfig(12, false)
	cfg.VAELatent = 0 // VAE replaced by direct concatenation (Table 7 ablation)
	cfg.Lambda = 0
	cfg.Epochs = 8
	m := New(cfg, train.X.Cols)
	before, _ := m.validate(valid, train.TauTop)
	m.Train(train, valid)
	after, _ := m.validate(valid, train.TauTop)
	if !(after < before) {
		t.Fatalf("no-VAE variant failed to learn: %v -> %v", before, after)
	}
	// Still monotone and deterministic.
	x := train.X.Row(0)
	prev := -1.0
	for tau := 0; tau <= 12; tau++ {
		v := m.EstimateEncoded(x, tau)
		if v < prev-1e-9 {
			t.Fatal("no-VAE variant must stay monotone")
		}
		prev = v
	}
}

func TestComplexityMatchesLiveParams(t *testing.T) {
	for _, accel := range []bool{false, true} {
		m := New(tinyConfig(10, accel), 24)
		c := m.Complexity()
		if c.Total != nn.NumParams(m.Params()) {
			t.Fatalf("accel=%v: complexity total %d != live params %d",
				accel, c.Total, nn.NumParams(m.Params()))
		}
		if c.Decoders != 11*12+11 { // (τmax+1)·ZDim + (τmax+1)
			t.Fatalf("decoder params=%d", c.Decoders)
		}
		if c.VAE == 0 || c.Encoder == 0 {
			t.Fatalf("zero component in %+v", c)
		}
	}
	// No-VAE variant reports zero VAE params.
	cfg := tinyConfig(4, false)
	cfg.VAELatent = 0
	m := New(cfg, 8)
	if c := m.Complexity(); c.VAE != 0 || c.Total != nn.NumParams(m.Params()) {
		t.Fatalf("no-VAE complexity wrong: %+v", c)
	}
}

func TestInferenceMultiplier(t *testing.T) {
	std := New(tinyConfig(9, false), 8)
	acc := New(tinyConfig(9, true), 8)
	if std.InferenceMultiplier() != 10 {
		t.Fatalf("std multiplier=%d", std.InferenceMultiplier())
	}
	if acc.InferenceMultiplier() != 1 {
		t.Fatalf("accel multiplier=%d", acc.InferenceMultiplier())
	}
}

// TestTrainDeterministicWithHook is the obs regression guard: two models
// built from the same seed must train bit-identically — including when one
// of them carries a TrainHook and live obs instrumentation — so telemetry
// can be trusted not to perturb results. Serialized bytes are compared,
// which covers every parameter bit, and the hook's view of validation MSLE
// must match the returned result.
func TestTrainDeterministicWithHook(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 200)
	for _, accel := range []bool{false, true} {
		cfg := tinyConfig(12, accel)
		cfg.Epochs = 6
		cfg.Seed = 42

		var events []TrainEvent
		cfgHooked := cfg
		cfgHooked.Hook = func(ev TrainEvent) { events = append(events, ev) }

		a := New(cfgHooked, train.X.Cols)
		b := New(cfg, train.X.Cols)
		resA := a.Train(train, valid)
		resB := b.Train(train, valid)

		if a.SizeBytes() != b.SizeBytes() {
			t.Fatalf("accel=%v: SizeBytes %d vs %d", accel, a.SizeBytes(), b.SizeBytes())
		}
		if resA.BestValidMSLE != resB.BestValidMSLE {
			t.Fatalf("accel=%v: valid MSLE %v vs %v", accel, resA.BestValidMSLE, resB.BestValidMSLE)
		}
		var bufA, bufB bytes.Buffer
		if err := a.Save(&bufA); err != nil {
			t.Fatal(err)
		}
		if err := b.Save(&bufB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
			t.Fatalf("accel=%v: hooked and hookless training diverged (serialized bytes differ)", accel)
		}

		if len(events) != resA.Epochs {
			t.Fatalf("accel=%v: %d events for %d epochs", accel, len(events), resA.Epochs)
		}
		lastEv := events[len(events)-1]
		if !lastEv.HasValid || lastEv.BestMSLE != resA.BestValidMSLE {
			t.Fatalf("accel=%v: last event %+v does not match result %+v", accel, lastEv, resA)
		}
		for i, ev := range events {
			if ev.Phase != "train" || ev.Epoch != i+1 {
				t.Fatalf("event %d: %+v", i, ev)
			}
			if len(ev.Omega) != train.TauTop+1 {
				t.Fatalf("event %d: omega len=%d", i, len(ev.Omega))
			}
			if ev.EpochTime <= 0 {
				t.Fatalf("event %d: non-positive epoch time", i)
			}
		}
	}
}

// TestIncrementalTrainEmitsEvents checks the hook contract of the
// Section 8 update path.
func TestIncrementalTrainEmitsEvents(t *testing.T) {
	train, valid, _, _ := hammingFixture(t, 150)
	cfg := tinyConfig(12, false)
	cfg.Epochs = 4
	m := New(cfg, train.X.Cols)
	m.Train(train, valid)

	shift := func(ts *TrainSet) *TrainSet {
		out := ts.Subset(seqInts(ts.NumQueries()))
		for i := range out.Labels.Data {
			out.Labels.Data[i] = out.Labels.Data[i]*3 + 10
		}
		return out
	}
	var events []TrainEvent
	m.Cfg.Hook = func(ev TrainEvent) { events = append(events, ev) }
	res := m.IncrementalTrain(shift(train), shift(valid), 1e-9)
	if res.Skipped {
		t.Fatalf("shifted labels should retrain: %+v", res)
	}
	if len(events) != res.Epochs {
		t.Fatalf("%d events for %d epochs", len(events), res.Epochs)
	}
	for i, ev := range events {
		if ev.Phase != "incremental" || ev.Epoch != i+1 || !ev.HasValid {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
	if last := events[len(events)-1]; last.ValidMSLE != res.ValidMSLE {
		t.Fatalf("last event MSLE %v != result %v", last.ValidMSLE, res.ValidMSLE)
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestEstimateRecordsObsMetrics verifies the estimate-path instrumentation:
// latency histogram counts, τ-distribution observations, and the sampled
// monotonicity spot-check all advance on obs.Default.
func TestEstimateRecordsObsMetrics(t *testing.T) {
	train, _, _, recs := hammingFixture(t, 100)
	cfg := tinyConfig(12, true)
	m := New(cfg, train.X.Cols)

	lat0 := estLatency.Count()
	calls0 := estCalls.Value()
	tau0 := estTauDist.Count()
	checks0 := monoChecks.Value()
	viol0 := monoViolate.Value()

	const n = 2 * monoSampleEvery
	for i := 0; i < n; i++ {
		m.EstimateEncoded(recs[i%len(recs)].Floats(), i%13)
	}
	if got := estCalls.Value() - calls0; got != n {
		t.Fatalf("estimate calls recorded=%d", got)
	}
	if got := estLatency.Count() - lat0; got != n {
		t.Fatalf("latency observations=%d", got)
	}
	if got := estTauDist.Count() - tau0; got != n {
		t.Fatalf("tau observations=%d", got)
	}
	if monoChecks.Value() == checks0 {
		t.Fatal("monotonicity spot-check never sampled")
	}
	if monoViolate.Value() != viol0 {
		t.Fatal("healthy model reported monotonicity violations")
	}

	// Disabled instrumentation must record nothing and not change results.
	want := m.EstimateEncoded(recs[0].Floats(), 5)
	obs.SetEnabled(false)
	got := m.EstimateEncoded(recs[0].Floats(), 5)
	callsOff := estCalls.Value()
	obs.SetEnabled(true)
	if got != want {
		t.Fatalf("estimate changed with obs off: %v vs %v", got, want)
	}
	if m.EstimateEncoded(recs[0].Floats(), 5); estCalls.Value() != callsOff+1 {
		t.Fatal("counter did not pause while disabled")
	}
}
