package serving

import (
	"context"
	"math"
	"testing"

	"cardnet/internal/infer"
)

// TestEnginePrecisionF32 checks the compiled f32 tier end to end: the gate
// passes, the plan serves, and estimates track the exact model within float32
// tolerance.
func TestEnginePrecisionF32(t *testing.T) {
	m := testModel(1)
	e := NewEngine(NewRegistry(m), Config{
		MaxBatch:     4,
		Precision:    infer.PrecisionF32,
		CacheEntries: -1,
	})
	defer e.Close()

	gate := e.Precision()
	if !gate.Pass || gate.Tier != infer.PrecisionF32 {
		t.Fatalf("f32 gate should pass on a healthy model: %+v", gate)
	}
	for i := 0; i < 8; i++ {
		x := binVec(int64(i), m.InDim)
		all, err := e.EstimateAll(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		want := m.EstimateAllTaus(x)
		for j := range want {
			if math.Abs(all[j]-want[j]) > 1e-3*(1+math.Abs(want[j])) {
				t.Fatalf("query %d τ=%d: f32 engine %v, f64 model %v", i, j, all[j], want[j])
			}
		}
		for j := 1; j < len(all); j++ {
			if all[j] < all[j-1] {
				t.Fatalf("query %d: served curve not monotone at τ=%d", i, j)
			}
		}
	}
}

// TestEngineGateFallback is the acceptance property: when the f32 gate
// fails (its bound set below f32's measured q-error delta), the engine must
// keep serving — bit-identical to the exact f64 path — and report the
// fallback.
func TestEngineGateFallback(t *testing.T) {
	m := testModel(3)
	e := NewEngine(NewRegistry(m), Config{
		MaxBatch:     4,
		Precision:    infer.PrecisionF32,
		GateMaxDelta: 1e-12,
		CacheEntries: -1,
	})
	defer e.Close()

	gate := e.Precision()
	if gate.Pass || gate.Tier != infer.PrecisionF64 || gate.Requested != infer.PrecisionF32 {
		t.Fatalf("f32 gate should fail and fall back to f64: %+v", gate)
	}
	if gate.Reason == "" {
		t.Fatal("fallback must carry a reason")
	}
	if s := e.Registry().Served(); s.Plan != nil || s.Gate != gate {
		t.Fatalf("published artifact must be the f64 fallback the gate chose: %+v", s)
	}
	for i := 0; i < 5; i++ {
		x := binVec(int64(i), m.InDim)
		all, err := e.EstimateAll(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		want := m.EstimateAllTaus(x)
		for j := range want {
			if all[j] != want[j] {
				t.Fatalf("fallback must serve the exact path: query %d τ=%d engine %v != model %v", i, j, all[j], want[j])
			}
		}
	}
}

// TestEngineSwapServesNewPlan checks that a hot swap publishes a freshly
// compiled artifact: after Swap the engine serves the new model's estimates
// through the new model's plan, not the old plan or the old model.
func TestEngineSwapServesNewPlan(t *testing.T) {
	m1, m2 := testModel(1), testModel(2)
	reg := NewRegistry(m1)
	e := NewEngine(reg, Config{
		MaxBatch:  4,
		Precision: infer.PrecisionF32,
	})
	defer e.Close()

	x := binVec(99, m1.InDim)
	before, err := e.EstimateAll(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap(m2); err != nil {
		t.Fatal(err)
	}
	gate := e.Precision()
	if !gate.Pass || gate.Tier != infer.PrecisionF32 {
		t.Fatalf("gate should pass after swap: %+v", gate)
	}
	if s := e.Registry().Served(); s.Model != m2 || s.Version != 2 || s.Plan == nil {
		t.Fatalf("live artifact after swap: %+v", s)
	}
	after, err := e.EstimateAll(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want := m2.EstimateAllTaus(x)
	for j := range want {
		if math.Abs(after[j]-want[j]) > 1e-3*(1+math.Abs(want[j])) {
			t.Fatalf("τ=%d: post-swap engine %v, new model %v", j, after[j], want[j])
		}
	}
	same := true
	for j := range before {
		if before[j] != after[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("estimates unchanged after swap: old plan still serving")
	}
}
