package infer

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// testConfigs sweeps both encoder families, VAE on/off, and uneven embedding
// region splits — the same shape space the lowering tests fuzz.
func testConfigs() []core.Config {
	accel := core.DefaultConfig(6)
	accel.Accel = true
	accel.PhiHidden = []int{24, 16, 8}
	accel.ZDim = 10 // 3 regions of 4/3/3: exercises the remainder path
	accel.VAEHidden = []int{20, 12}
	accel.VAELatent = 6

	accelNoVAE := accel
	accelNoVAE.VAELatent = 0
	accelNoVAE.Seed = 2

	std := core.DefaultConfig(5)
	std.PhiHidden = []int{18, 12}
	std.ZDim = 7
	std.VAEHidden = []int{16}
	std.VAELatent = 4
	std.Seed = 3

	stdNoVAE := std
	stdNoVAE.VAELatent = 0
	stdNoVAE.Seed = 4

	return []core.Config{accel, accelNoVAE, std, stdNoVAE}
}

// randomBinary returns a rows×cols matrix of random 0/1 features.
func randomBinary(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	xs := tensor.NewMatrix(rows, cols)
	for i := range xs.Data {
		if rng.Intn(2) == 1 {
			xs.Data[i] = 1
		}
	}
	return xs
}

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", PrecisionF64, true},
		{"f64", PrecisionF64, true},
		{"f32", PrecisionF32, true},
		{"int8", "", false},
		{"fp16", "", false},
		{"F32", "", false},
	} {
		got, err := ParsePrecision(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParsePrecision(%q) = (%q, %v), want (%q, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestF32PlanMatchesF64 is the f32 accuracy property: over fuzzed batch sizes
// and both encoder families, the compiled f32 plan must track the exact f64
// model within float32 accumulation tolerance.
func TestF32PlanMatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		p, err := Lower(m, PrecisionF32)
		if err != nil {
			t.Fatalf("cfg %d: Lower: %v", ci, err)
		}
		for _, b := range []int{1, 3, 9, 17} {
			xs := randomBinary(rng, b, 12)
			want := m.EstimateAllTausBatch(xs)
			got := p.EstimateAllTausBatch(xs)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("cfg %d: shape %d×%d, want %d×%d", ci, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range got.Data {
				w, g := want.Data[i], got.Data[i]
				if math.Abs(g-w) > 1e-3*(1+math.Abs(w)) {
					t.Fatalf("cfg %d batch %d (accel=%v): elem %d = %.9g, want %.9g", ci, b, cfg.Accel, i, g, w)
				}
			}
		}
	}
}

// TestPlanCurvesMonotone is the Lemma 2 property: every curve out of the
// compiled plan must pass core.CurveMonotone, across fuzzed inputs.
func TestPlanCurvesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		p, err := Lower(m, PrecisionF32)
		if err != nil {
			t.Fatalf("cfg %d: Lower: %v", ci, err)
		}
		xs := randomBinary(rng, 16, 12)
		got := p.EstimateAllTausBatch(xs)
		for e := 0; e < got.Rows; e++ {
			if !core.CurveMonotone(got.Row(e)) {
				t.Fatalf("cfg %d: curve %d not monotone: %v", ci, e, got.Row(e))
			}
		}
	}
}

// TestEstimateAllTausMatchesBatch checks the single-query entry point is the
// one-row batch.
func TestEstimateAllTausMatchesBatch(t *testing.T) {
	cfg := testConfigs()[0]
	m := core.New(cfg, 12)
	p, err := Lower(m, PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	xs := randomBinary(rng, 1, 12)
	want := p.EstimateAllTausBatch(xs).Row(0)
	got := p.EstimateAllTaus(xs.Row(0))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestPlanImmutable checks compiled plans hold deep copies: mutating the
// source model must not change an already-compiled plan's outputs.
func TestPlanImmutable(t *testing.T) {
	cfg := testConfigs()[0]
	m := core.New(cfg, 12)
	p, err := Lower(m, PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	xs := randomBinary(rng, 4, 12)
	before := p.EstimateAllTausBatch(xs)
	for _, prm := range m.Params() {
		for i := range prm.Value {
			prm.Value[i] += 0.5
		}
	}
	after := p.EstimateAllTausBatch(xs)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("plan output changed after model mutation: elem %d %g -> %g", i, before.Data[i], after.Data[i])
		}
	}
}

// TestPlanConcurrent runs one plan from many goroutines (the serving usage)
// and checks results stay deterministic; under -race this also exercises the
// scratch pool for data races.
func TestPlanConcurrent(t *testing.T) {
	cfg := testConfigs()[0]
	m := core.New(cfg, 12)
	p, err := Lower(m, PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	xs := randomBinary(rng, 8, 12)
	want := p.EstimateAllTausBatch(xs)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := p.EstimateAllTausBatch(xs)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						errs <- "concurrent result diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestCompileGatePasses checks the happy path: on a healthy model the f32
// plan clears the accuracy gate and reports f32 as serving.
func TestCompileGatePasses(t *testing.T) {
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		p, res, err := Compile(m, PrecisionF32, GateConfig{Seed: 29})
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		if !res.Pass || res.Tier != PrecisionF32 || p == nil {
			t.Fatalf("cfg %d: gate failed on healthy model: %+v", ci, res)
		}
		if res.MonoViolations != 0 {
			t.Fatalf("cfg %d: %d monotonicity violations", ci, res.MonoViolations)
		}
	}
}

// TestCompileF64NoPlan checks that requesting f64 yields no plan and a
// trivially passing gate — f64 names the exact model path.
func TestCompileF64NoPlan(t *testing.T) {
	m := core.New(testConfigs()[0], 12)
	p, res, err := Compile(m, PrecisionF64, GateConfig{})
	if err != nil || p != nil || !res.Pass || res.Tier != PrecisionF64 {
		t.Fatalf("Compile f64 = (%v, %+v, %v), want nil plan, pass, f64", p, res, err)
	}
}

// TestCompileGateFallback is the acceptance-required fallback property: with
// a bound below f32's measured q-error delta the gate must refuse the plan
// and direct the caller back to f64, while the same model at the default
// bound passes.
func TestCompileGateFallback(t *testing.T) {
	m := core.New(testConfigs()[1], 12)
	p, res, err := Compile(m, PrecisionF32, GateConfig{Seed: 31, MaxQErrP99Delta: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || p != nil {
		t.Fatalf("f32 gate passed under a 1e-12 bound: %+v", res)
	}
	if res.Tier != PrecisionF64 || res.Requested != PrecisionF32 {
		t.Fatalf("gate failure must fall back to f64: %+v", res)
	}
	if res.QErrP99Delta <= res.MaxQErrP99Delta {
		t.Fatalf("expected q-error delta above bound, got %+v", res)
	}
	if res.Reason == "" {
		t.Fatal("gate failure must carry a reason")
	}

	p32, res32, err := Compile(m, PrecisionF32, GateConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if !res32.Pass || p32 == nil {
		t.Fatalf("f32 should pass at the default bound: %+v", res32)
	}
}

// TestMonoSweepCountsViolations checks the sweep judges whatever estimator
// it is handed: the f32 plan's curves are monotone, while a forward that
// reverses every curve violates Lemma 2 on every non-flat row.
func TestMonoSweepCountsViolations(t *testing.T) {
	m := core.New(testConfigs()[0], 12)
	p, err := Lower(m, PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	if n := MonoSweep(p.EstimateAllTausBatch, m.InDim, 32, 5); n != 0 {
		t.Fatalf("f32 plan: %d violations", n)
	}
	reversed := func(xs *tensor.Matrix) *tensor.Matrix {
		all := p.EstimateAllTausBatch(xs)
		for r := 0; r < all.Rows; r++ {
			row := all.Row(r)
			for i, j := 0, len(row)-1; i < j; i, j = i+1, j-1 {
				row[i], row[j] = row[j], row[i]
			}
		}
		return all
	}
	if n := MonoSweep(reversed, m.InDim, 32, 5); n == 0 {
		t.Fatal("reversed curves passed the sweep")
	}
}
