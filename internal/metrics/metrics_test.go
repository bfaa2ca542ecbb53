package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSEKnown(t *testing.T) {
	got := MSE([]float64{10, 20}, []float64{12, 16})
	if got != (4+16)/2.0 {
		t.Fatalf("MSE=%v", got)
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("empty MSE should be 0")
	}
}

func TestMAPEKnown(t *testing.T) {
	got := MAPE([]float64{100, 50}, []float64{90, 60})
	want := 100 * (0.1 + 0.2) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MAPE=%v want %v", got, want)
	}
	// Zero actual uses floor of 1.
	if got := MAPE([]float64{0}, []float64{2}); got != 200 {
		t.Fatalf("MAPE zero-floor=%v", got)
	}
}

func TestMeanQErrorKnownAndSymmetric(t *testing.T) {
	got := MeanQError([]float64{10}, []float64{20})
	if got != 2 {
		t.Fatalf("q-error=%v", got)
	}
	a := MeanQError([]float64{10}, []float64{20})
	b := MeanQError([]float64{20}, []float64{10})
	if a != b {
		t.Fatalf("q-error must be symmetric: %v vs %v", a, b)
	}
	// Perfect estimates give exactly 1.
	if got := MeanQError([]float64{7, 3}, []float64{7, 3}); got != 1 {
		t.Fatalf("perfect q-error=%v", got)
	}
	// Zeros floored.
	if got := MeanQError([]float64{0}, []float64{0}); got != 1 {
		t.Fatalf("zero q-error=%v", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestEvaluateAndString(t *testing.T) {
	r := Evaluate([]float64{10, 20}, []float64{10, 20})
	if r.MSE != 0 || r.MAPE != 0 || r.MeanQError != 1 || r.N != 2 {
		t.Fatalf("Evaluate=%+v", r)
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
}

func TestGroupByKey(t *testing.T) {
	keys := []int{0, 0, 1}
	actual := []float64{10, 20, 5}
	est := []float64{10, 22, 10}
	groups := GroupByKey(keys, actual, est)
	if len(groups) != 2 {
		t.Fatalf("groups=%v", groups)
	}
	if groups[0].N != 2 || groups[1].N != 1 {
		t.Fatalf("group sizes wrong: %+v", groups)
	}
	if groups[1].MeanQError != 2 {
		t.Fatalf("group 1 q-error=%v", groups[1].MeanQError)
	}
}

func TestIsMonotonic(t *testing.T) {
	if !IsMonotonic([]float64{1, 1, 2, 3}) {
		t.Fatal("nondecreasing should pass")
	}
	if IsMonotonic([]float64{1, 3, 2}) {
		t.Fatal("decrease should fail")
	}
	if !IsMonotonic(nil) || !IsMonotonic([]float64{5}) {
		t.Fatal("degenerate sequences are monotonic")
	}
	// Tiny numerical jitter is tolerated.
	if !IsMonotonic([]float64{1, 1 - 1e-12}) {
		t.Fatal("tolerance not applied")
	}
}

func TestImprovementRatio(t *testing.T) {
	if got := ImprovementRatio(100, 50); got != 0.5 {
		t.Fatalf("γ=%v", got)
	}
	if got := ImprovementRatio(0, 10); got != 0 {
		t.Fatalf("γ with zero denominator=%v", got)
	}
}

// Property: q-error ≥ 1 and MAPE ≥ 0 for any inputs.
func TestMetricBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := make([]float64, n)
		e := make([]float64, n)
		for i := range a {
			a[i] = float64(r.Intn(1000))
			e[i] = float64(r.Intn(1000))
		}
		return MeanQError(a, e) >= 1 && MAPE(a, e) >= 0 && MSE(a, e) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.05, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6},
		{0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := Quantile(sorted, tc.q); got != tc.want {
			t.Errorf("Quantile(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// 0.07·100 evaluates to 7.000000000000001 in float64; float error must
	// not push the rank from 7 to 8.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.07, 7}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100},
	} {
		if got := Quantile(hundred, tc.q); got != tc.want {
			t.Errorf("Quantile(1..100, q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %g, want 0", got)
	}
}
