package main

import (
	"sync"
	"time"
)

// sample is one open-loop request: when it was due, when the generator
// launched it, when it completed, and how it ended.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is the request's time from when it was due to be sent, so a stall
// also charges the wait it imposes on every request queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the generator launched the request.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends n requests at a fixed rate, each from its own goroutine at
// its due time, whether or not earlier requests have finished — independent
// users, so a slow system faces a growing queue instead of less load. It
// returns once every request has ended. do must return within a bounded
// time (callers give it a deadline).
func openLoop(rate float64, n int, do func(i int) error) []sample {
	out := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = due
		out[i].sent = time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := do(i)
			out[i].done = time.Now()
			out[i].err = err
		}(i)
	}
	wg.Wait()
	return out
}

// loopStats reduces open-loop samples to due-time latencies of the requests
// that succeeded (ms), generator lateness of all of them (ms), the failure
// count, and how long after the last due instant the last request ended.
type loopStats struct {
	lat, late Summary
	latRaw    []float64 // due-time latencies in request order
	failed    int
	drain     time.Duration
}

func reduce(ss []sample) loopStats {
	var st loopStats
	lat := make([]float64, 0, len(ss))
	late := make([]float64, 0, len(ss))
	var lastDone time.Time
	for _, s := range ss {
		late = append(late, ms(s.late()))
		if s.done.After(lastDone) {
			lastDone = s.done
		}
		if s.err != nil {
			st.failed++
			continue
		}
		lat = append(lat, ms(s.latency()))
	}
	st.lat, st.late, st.latRaw = summarize(lat), summarize(late), lat
	if len(ss) > 0 {
		st.drain = lastDone.Sub(ss[len(ss)-1].due)
	}
	return st
}
