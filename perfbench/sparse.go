package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/tensor"
)

const (
	// sparseRate is the fixed open-loop rate of the sparse workload: low
	// enough that batches stay near one row, high enough for several p99
	// windows in a run.
	sparseRate = 400.0
	// lateLimit marks a run invalid when the generator's p99 lateness
	// exceeds it: the schedule, not the system, would set the latencies.
	lateLimit = 5 * time.Millisecond
	// warmWindows bounds warm-up; each window is one second of traffic.
	warmWindows = 8
	// warmSettle ends warm-up once a window's p50 is within this share of
	// the previous window's.
	warmSettle = 0.10
)

// sparseQuery is one unique /estimate request.
type sparseQuery struct {
	x    []float64
	tau  int
	body []byte
}

// uniqueQueries draws n distinct HM-ImageNet-like binary vectors, each with
// one random τ.
func uniqueQueries(seed int64, n int) ([]sparseQuery, error) {
	spec := dataset.DefaultsByName()["HM-ImageNet"]
	codes := dataset.BinaryCodes(2*n, spec.Dim, spec.Clusters, spec.Flip, seed+7)
	seen := map[string]bool{}
	out := make([]sparseQuery, 0, n)
	for i, c := range codes {
		if len(out) == n {
			break
		}
		x := c.Floats()
		key := fmt.Sprint(x)
		if seen[key] {
			continue
		}
		seen[key] = true
		tau := int((uint64(seed)*2654435761 + uint64(i)*40503) % (hmTauMax + 1))
		body, err := json.Marshal(map[string]any{"x": x, "tau": tau})
		if err != nil {
			return nil, err
		}
		out = append(out, sparseQuery{x: x, tau: tau, body: body})
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d unique queries of %d", len(out), n)
	}
	return out, nil
}

// httpLoad drives /estimate from a query list, recording each answer.
type httpLoad struct {
	client *http.Client
	qs     []sparseQuery
	vals   []float64
	ids    []string
	ok     []bool
	next   int
}

// phase sends the next n queries open loop at sparseRate; urlFor picks the
// server of the i-th query. It returns the phase's samples
// and the index of its first query.
func (h *httpLoad) phase(n int, urlFor func(i int) string) ([]sample, int, error) {
	first := h.next
	if first+n > len(h.qs) {
		return nil, 0, fmt.Errorf("query list exhausted (%d of %d)", first+n, len(h.qs))
	}
	h.next += n
	ss := openLoop(sparseRate, n, func(k int) error {
		i := first + k
		v, id, err := postEstimate(h.client, urlFor(i), h.qs[i].body)
		if err != nil {
			return err
		}
		h.vals[i], h.ids[i], h.ok[i] = v, id, true
		return nil
	})
	return ss, first, nil
}

// warm sends one-second windows until a window's p50 settles within
// warmSettle of the previous one, and returns the number of windows.
func (h *httpLoad) warm(urlFor func(i int) string) (int, error) {
	prev := math.NaN()
	for w := 1; w <= warmWindows; w++ {
		ss, _, err := h.phase(int(sparseRate), urlFor)
		if err != nil {
			return w, err
		}
		p50 := reduce(ss).lat.P50
		if w >= 2 && math.Abs(p50-prev) <= warmSettle*prev {
			return w, nil
		}
		prev = p50
	}
	return warmWindows, nil
}

// tracedBlock splits the query sequence into one-second blocks that
// alternate between the untraced and the traced server, so both see the
// same conditions.
func tracedBlock(i int) bool { return (i/int(sparseRate))%2 == 1 }

// runSparse: open-loop /estimate at a fixed low rate against a cardnet serve
// subprocess over at most nproc keep-alive connections; every query unique
// and single-τ. DefaultConfig on HM-ImageNet.
func runSparse(cfg runConfig) (*report, error) {
	if cfg.cardnet == "" {
		return nil, errors.New("--cardnet (the built cardnet binary) is required")
	}
	rep := newReport()
	modelPath := cfg.path("sparse.gob")
	var setups, trains, epochs []float64
	var srv *server
	var data *hmSet
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		d, err := buildHM()
		if err != nil {
			return nil, err
		}
		c := core.DefaultConfig(hmTauMax)
		c.Accel, c.Epochs, c.VAEEpochs = true, 10, 10
		tr := trainModel(c, d.ext.Dim(), d.train, d.valid)
		if err := checkpoint.SaveModel(modelPath, tr.m); err != nil {
			return nil, err
		}
		s, err := startServer(cfg.cardnet, modelPath, cfg.path(fmt.Sprintf("serve%d.log", i)), "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, tr.took.Seconds())
		epochs = append(epochs, tr.epochsMs...)
		srv, data = s, d
	}
	setSetup(rep, setups, trains, epochs)
	ref, err := checkpoint.LoadModel(modelPath) // the file the server loaded
	if err != nil {
		return nil, err
	}
	rep.info(archLine("DefaultConfig", ref))

	measured := int(sparseRate * cfg.seconds)
	qs, err := uniqueQueries(cfg.seed, measured+warmWindows*int(sparseRate))
	if err != nil {
		return nil, err
	}
	h := &httpLoad{client: newClient(), qs: qs, vals: make([]float64, len(qs)),
		ids: make([]string, len(qs)), ok: make([]bool, len(qs))}

	var traced *server
	urlFor := func(int) string { return srv.url }
	if cfg.trace {
		traced, err = startServer(cfg.cardnet, modelPath, cfg.path("serve-traced.log"), cfg.path("traces.jsonl"))
		if err != nil {
			return nil, err
		}
		defer traced.stop()
		urlFor = func(i int) string {
			if tracedBlock(i) {
				return traced.url
			}
			return srv.url
		}
	}

	windows, err := h.warm(urlFor)
	if err != nil {
		return nil, err
	}
	ss, first, err := h.phase(measured, urlFor)
	if err != nil {
		return nil, err
	}
	st := reduce(ss)
	rep.attempted, rep.failed = len(ss), st.failed
	rep.set("generator.warmup_s", float64(windows), fmt.Sprintf("(%d one-second windows until p50 settled within %.0f%%)", windows, warmSettle*100))
	rep.set("generator.late_p99_ms", lateP99(st), st.late.String())
	rep.check(lateP99(st) <= ms(lateLimit), "generator p99 lateness %.3fms exceeds %v: run invalid", lateP99(st), lateLimit)

	if !cfg.trace {
		if err := setLatency(rep, st.latRaw, fmt.Sprintf("due-time at %.0f req/s", sparseRate)); err != nil {
			return nil, err
		}
	}
	if rep.metrics["mem_peak_mb"], err = srv.peakMB(); err != nil {
		return nil, err
	}
	rep.notes["mem_peak_mb"] = "(server VmHWM)"

	checkServed(rep, ref, h)
	setOffline(rep, data.ext, ref, data.bulk, data.test, data.exact, offlineTime)

	if cfg.trace {
		traced.stop() // flushes the trace log
		if err := sparseLedger(rep, cfg, ref, h, ss, first); err != nil {
			return nil, err
		}
		zeroLayers(rep)
	}
	return rep, nil
}

// lateP99 is the generator's tail lateness (its highest supported
// percentile).
func lateP99(st loopStats) float64 {
	if v, err := st.late.At(99); err == nil {
		return v
	}
	return st.late.Tail
}

// checkServed compares every HTTP 200 estimate with the in-process f64
// estimate of the same model file for the same (x, τ).
func checkServed(rep *report, ref *core.Model, h *httpLoad) {
	const chunk = 256
	mismatches := 0
	for lo := 0; lo < h.next; lo += chunk {
		hi := min(lo+chunk, h.next)
		xs := tensor.NewMatrix(hi-lo, ref.InDim)
		for i := lo; i < hi; i++ {
			copy(xs.Row(i-lo), h.qs[i].x)
		}
		curves := ref.EstimateAllTausBatch(xs)
		for i := lo; i < hi; i++ {
			if !h.ok[i] {
				continue
			}
			if want := curves.Row(i - lo)[h.qs[i].tau]; h.vals[i] != want {
				mismatches++
				if mismatches <= 3 {
					rep.check(false, "query %d τ=%d: served %v, in-process %v", i, h.qs[i].tau, h.vals[i], want)
				}
			}
		}
	}
	rep.check(mismatches == 0, "%d served estimates differ from the in-process estimate", mismatches)
}

// sparseLedger joins the traced server's stage traces to the client's
// timings by X-Trace-Id and reports the HTTP and engine layers.
func sparseLedger(rep *report, cfg runConfig, ref *core.Model, h *httpLoad, ss []sample, first int) error {
	traces, err := readTraces(cfg.path("traces.jsonl"))
	if err != nil {
		return err
	}
	var l ledger
	var untraced, tracedLat, rtt, overhead []float64
	var admission, write float64
	for k, s := range ss {
		i := first + k
		if !h.ok[i] {
			continue
		}
		if !tracedBlock(i) {
			untraced = append(untraced, ms(s.latency()))
			continue
		}
		tracedLat = append(tracedLat, ms(s.latency()))
		r, ok := traces[h.ids[i]]
		if !ok {
			continue
		}
		l.recs = append(l.recs, r)
		rt := us(s.done.Sub(s.sent))
		rtt = append(rtt, rt)
		overhead = append(overhead, rt-r.TotalUs)
		admission += r.stage("admission")
		write += r.stage("write")
	}
	if len(l.recs) == 0 {
		return errors.New("no traced request joined the server's trace log")
	}
	rep.info("trace join: %d of %d traced-server requests found in the trace log by X-Trace-Id", len(l.recs), len(tracedLat))
	n := float64(len(l.recs))
	rep.set("http.admission_us", admission/n, "(JSON decode + validation, mean)")
	rep.set("http.write_us", write/n, "(response encode + write, mean)")
	rep.set("http.client_overhead_us", mean(overhead), "(client RTT − server trace total, mean)")
	covered := l.set(rep, "admission", "write")

	floor, err := rttFloor(h)
	if err != nil {
		return err
	}
	rep.set("http.rtt_floor_us", floor, "(empty loopback handler, same client and rate, mean RTT)")
	rep.set("ledger.coverage_pct", (covered+floor)/mean(rtt)*100,
		fmt.Sprintf("(server stages + RTT floor over mean client RTT %.1fus)", mean(rtt)))
	rep.set("trace.overhead_pct", overheadPct(summarize(tracedLat), summarize(untraced)),
		"(p50 due-time latency, traced server vs untraced server in alternating blocks)")
	return setKernelLayers(rep, ref, cfg.seed)
}

// rttFloor is the mean round trip of an empty loopback handler hosted here,
// driven like the server: same client settings, same rate and bodies.
func rttFloor(h *httpLoad) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}"))
	})}
	go hs.Serve(ln)
	defer hs.Close()
	client := newClient()
	url := "http://" + ln.Addr().String()
	n := int(sparseRate * 1.5)
	ss := openLoop(sparseRate, n, func(k int) error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(h.qs[k%len(h.qs)].body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	var rtt []float64
	for _, s := range ss {
		if s.err != nil {
			return 0, s.err
		}
		rtt = append(rtt, us(s.done.Sub(s.sent)))
	}
	return mean(rtt), nil
}
