package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceStagesTileTotal(t *testing.T) {
	tr := NewTrace()
	if len(tr.ID) != 16 {
		t.Fatalf("trace id %q, want 16 hex chars", tr.ID)
	}
	tr.Mark("admission")
	time.Sleep(2 * time.Millisecond)
	tr.Mark("queue.wait")
	tr.Mark("forward")

	stages := tr.Stages()
	if len(stages) != 3 {
		t.Fatalf("stages = %+v", stages)
	}
	var sum float64
	for _, s := range stages {
		if s.Us < 0 {
			t.Fatalf("negative stage duration: %+v", s)
		}
		sum += s.Us
	}
	total := float64(tr.Total().Nanoseconds()) / 1e3
	if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("stage sum %.3fus != total %.3fus", sum, total)
	}
}

func TestTraceMarkAtClampsBackwards(t *testing.T) {
	tr := NewTrace()
	tr.Mark("a")
	// An end before the previous mark (abandoned-request race) must clamp.
	if d := tr.MarkAt("b", tr.Start.Add(-time.Second)); d != 0 {
		t.Fatalf("backwards MarkAt returned %v, want 0", d)
	}
	if tr.Total() < 0 {
		t.Fatalf("negative total %v", tr.Total())
	}
}

func TestTraceIDsUnique(t *testing.T) {
	const n = 4096
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 0, n/8)
			for i := 0; i < n/8; i++ {
				ids = append(ids, NewTrace().ID)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate trace id %s", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestTraceFieldsAndSampler(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	s := NewTraceSampler(0.5, sink) // every 2nd
	if s.Every() != 2 {
		t.Fatalf("every = %d, want 2", s.Every())
	}
	emitted := 0
	for i := 0; i < 10; i++ {
		tr := NewTrace()
		tr.Mark("forward")
		tr.Annotate("batch_size", 4)
		tr.Annotate("flush", "idle")
		if s.Sample() {
			if err := s.Emit(tr); err != nil {
				t.Fatal(err)
			}
			emitted++
		}
	}
	if emitted != 5 {
		t.Fatalf("emitted %d traces at rate 0.5 over 10, want 5", emitted)
	}
	// Emission is asynchronous; Close drains the queue into the sink.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped %d traces with an idle queue", s.Dropped())
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Event   string       `json:"event"`
			TraceID string       `json:"trace_id"`
			TotalUs float64      `json:"total_us"`
			Stages  []TraceStage `json:"stages"`
			Batch   int          `json:"batch_size"`
			Flush   string       `json:"flush"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if rec.Event != "trace" || len(rec.TraceID) != 16 || len(rec.Stages) != 1 ||
			rec.Stages[0].Name != "forward" || rec.Batch != 4 || rec.Flush != "idle" {
			t.Fatalf("trace event: %+v", rec)
		}
	}
	if lines != 5 {
		t.Fatalf("%d JSONL lines, want 5", lines)
	}

	// Disabled samplers are nil-safe no-ops.
	var off *TraceSampler
	if off.Sample() || off.Emit(NewTrace()) != nil || off.Every() != 0 ||
		off.Close() != nil || off.Dropped() != 0 {
		t.Fatal("nil sampler must be inert")
	}
	if NewTraceSampler(0, sink) != nil || NewTraceSampler(1.5, sink) != nil || NewTraceSampler(0.5, nil) != nil {
		t.Fatal("invalid sampler configs must return nil")
	}
}

// The abandoned-request race: the HTTP goroutine gives up (marks "write")
// while a worker is still marking engine stages. Must be race-free (run
// under -race) and never produce negative durations.
func TestTraceConcurrentMarks(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					tr.Mark("worker")
				} else {
					tr.Annotate("k", g)
					tr.MarkAt("write", time.Now())
				}
			}
		}(g)
	}
	wg.Wait()
	for _, s := range tr.Stages() {
		if s.Us < 0 {
			t.Fatalf("negative duration %+v", s)
		}
	}
	if !strings.Contains("worker write", tr.Stages()[0].Name) {
		t.Fatalf("unexpected stage %q", tr.Stages()[0].Name)
	}
}
