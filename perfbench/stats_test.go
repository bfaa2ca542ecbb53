package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so summarize must sort
	}
	return xs
}

// The tail percentile reported is the highest one with at least ten samples
// beyond it: p99 needs 1000 samples, p90 100, and below that only the median
// is reported.
func TestSummaryTailRule(t *testing.T) {
	cases := []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{n: 50, tailP: 0},
		{n: 100, tailP: 90, tail: 90},
		{n: 999, tailP: 90, tail: 900},
		{n: 1000, tailP: 99, tail: 990},
		{n: 9999, tailP: 99, tail: 9900},
		{n: 10000, tailP: 99.9, tail: 9990},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.TailP != c.tailP || (c.tailP != 0 && s.Tail != c.tail) {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", c.n, s.TailP, s.Tail, c.tailP, c.tail)
		}
		if c.tailP != 0 && s.Beyond < minBeyond {
			t.Errorf("n=%d: %d beyond p%g, want ≥ %d", c.n, s.Beyond, s.TailP, minBeyond)
		}
		if want := math.Ceil(float64(c.n) / 2); s.P50 != want {
			t.Errorf("n=%d: p50 = %g, want %g", c.n, s.P50, want)
		}
	}
}

func TestSummaryAtRefusesUnsupportedPercentile(t *testing.T) {
	s := summarize(seq(999))
	if _, err := s.At(99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := s.At(90)
	if err != nil || v != 900 {
		t.Fatalf("p90 of 999 = %g, %v; want 900", v, err)
	}
	if v, err := summarize(seq(1000)).At(99); err != nil || v != 990 {
		t.Fatalf("p99 of 1000 = %g, %v; want 990", v, err)
	}
}

// The windowed p99 is the median of per-window p99s, so one disturbed window
// does not set it, and it refuses sample counts no window could support.
func TestWindowedP99(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000) // each window holds 0..999
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1e6 // the second window's tail is disturbed
	}
	v, p99s, err := windowedP99(xs)
	if err != nil || len(p99s) != 3 || v != 989 || p99s[1] != 1e6 {
		t.Fatalf("windowedP99 = %g over windows %v, %v; want 989 over 3, the second 1e6", v, p99s, err)
	}
	if _, _, err := windowedP99(xs[:999]); err == nil {
		t.Fatal("999 samples cannot support a p99")
	}
}

// A request that stalls the only connection charges its wait to every
// request queued behind it: latency is timed from the due instant, so the
// queued requests read the stall even though the generator sent them on time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		n       = 40
		stalled = 10
		stall   = 60 * time.Millisecond
	)
	var conn sync.Mutex // one connection: requests run one at a time
	ss := openLoop(1000, n, func(i int) error {
		conn.Lock()
		defer conn.Unlock()
		if i == stalled {
			time.Sleep(stall)
		}
		return nil
	})
	next := ss[stalled+1]
	if next.late() > 20*time.Millisecond {
		t.Fatalf("generator sent request %d %v late; the stall must not hold up the schedule", stalled+1, next.late())
	}
	// Request 11 was due 1ms after the stalled one began, so it waits out
	// nearly all of the stall.
	if got := next.latency(); got < stall-10*time.Millisecond {
		t.Fatalf("request behind the stall reads %v from its due time, want ≥ %v", got, stall-10*time.Millisecond)
	}
	if got := ss[stalled+1].done.Sub(ss[stalled+1].sent); got < stall/2 {
		t.Fatalf("send-to-done time %v should also include the queueing", got)
	}
	st := reduce(ss)
	if st.failed != 0 || st.lat.N != n {
		t.Fatalf("reduce: %d failed, %d latencies; want 0, %d", st.failed, st.lat.N, n)
	}
	if st.lat.Mean < 10 {
		t.Fatalf("mean due-time latency %.2fms hides the stall", st.lat.Mean)
	}
}

func TestReduceCountsFailuresOutsideLatency(t *testing.T) {
	ss := openLoop(2000, 20, func(i int) error {
		if i%4 == 0 {
			return errors.New("overloaded")
		}
		return nil
	})
	st := reduce(ss)
	if st.failed != 5 || st.lat.N != 15 || st.late.N != 20 {
		t.Fatalf("failed=%d latencies=%d lateness=%d; want 5, 15, 20", st.failed, st.lat.N, st.late.N)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, ok := range []string{"latency_p50_ms", "serving.batch_form_us", "http.rtt_floor_us", "a", "9lives", "x-y"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "p99/ms", "ünits", "a\n", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// The metric lists the program emits are the ones BENCHMARK.json declares,
// in name, unit and order, and every name passes validation.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if !validMetricName(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s[%d]: bad or repeated name %q", kind, i, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
