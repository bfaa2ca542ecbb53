package tracescan

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cardnet/internal/metrics"
)

// StageStats is the fleet-wide latency attribution of one stage across all
// events that recorded it (µs). Share is the stage's mean fraction of its
// own trace's end-to-end time — the critical-path weight.
type StageStats struct {
	Name  string  `json:"stage"`
	Count int     `json:"count"`
	P50   float64 `json:"p50_us"`
	P95   float64 `json:"p95_us"`
	P99   float64 `json:"p99_us"`
	Max   float64 `json:"max_us"`
	Share float64 `json:"share"`
}

// Amplification summarizes retry/failover fan-out: how many forward
// attempts a request cost, and why the extra ones happened.
type Amplification struct {
	MeanAttempts float64        `json:"mean_attempts"`
	MaxAttempts  int            `json:"max_attempts"`
	FailoverRate float64        `json:"failover_rate"` // traces with ≥1 failover
	ByOutcome    map[string]int `json:"by_outcome"`
}

// SlowTrace is one row of the top-N slow-trace table.
type SlowTrace struct {
	TraceID    string  `json:"trace_id"`
	TotalUs    float64 `json:"total_us"`
	Status     int     `json:"status"`
	Attempts   int     `json:"attempts"`
	TopStage   string  `json:"top_stage"`
	TopStageUs float64 `json:"top_stage_us"`
	File       string  `json:"file"`
}

// Report is the machine-readable output of one tracescan run.
type Report struct {
	Files            []string `json:"files"`
	Events           int      `json:"events"`
	Traces           int      `json:"traces"` // assembled (router event present)
	Joined           int      `json:"joined"` // traces with ≥1 replica event
	Orphans          int      `json:"orphans"`
	TilingViolations int      `json:"tiling_violations"`
	MaxTilingErrUs   float64  `json:"max_tiling_err_us"`
	MaxSkewUs        float64  `json:"max_skew_us"`

	RouterStages  []StageStats  `json:"router_stages"`
	ReplicaStages []StageStats  `json:"replica_stages"`
	Network       StageStats    `json:"network"`
	Amplification Amplification `json:"amplification"`
	Slow          []SlowTrace   `json:"slow_traces"`
}

// normalizeStage folds numbered attempt spans into one series so a request
// with three failovers doesn't mint three stage names.
func normalizeStage(name string) string {
	if s, _, ok := strings.Cut(name, "."); ok && s == "attempt" {
		return "attempt"
	}
	return name
}

// BuildReport assembles events (with the given skew tolerance, µs) and
// computes fleet attribution, amplification, and the top-N slow traces.
func BuildReport(events []Event, skewUs float64, topN int) *Report {
	traces, orphans := Assemble(events, skewUs)
	rep := &Report{Events: len(events), Traces: len(traces), Orphans: orphans}

	seenFiles := map[string]bool{}
	for _, ev := range events {
		if ev.File != "" && !seenFiles[ev.File] {
			seenFiles[ev.File] = true
			rep.Files = append(rep.Files, ev.File)
		}
	}
	sort.Strings(rep.Files)

	type acc struct {
		vals   []float64
		shares []float64
	}
	routerAcc := map[string]*acc{}
	replicaAcc := map[string]*acc{}
	var netAcc acc
	var attempts []float64
	byOutcome := map[string]int{}
	failovers := 0

	collect := func(m map[string]*acc, ev *Event) {
		for _, st := range ev.Stages {
			name := normalizeStage(st.Name)
			a := m[name]
			if a == nil {
				a = &acc{}
				m[name] = a
			}
			a.vals = append(a.vals, st.Us)
			if ev.TotalUs > 0 {
				a.shares = append(a.shares, st.Us/ev.TotalUs)
			}
		}
	}

	for _, tr := range traces {
		collect(routerAcc, tr.Router)
		for _, rp := range tr.Replicas {
			collect(replicaAcc, rp)
		}
		if len(tr.Replicas) > 0 {
			rep.Joined++
			netAcc.vals = append(netAcc.vals, tr.NetworkUs)
			if tr.TotalUs > 0 {
				netAcc.shares = append(netAcc.shares, tr.NetworkUs/tr.TotalUs)
			}
		}
		if !tr.TilingOK {
			rep.TilingViolations++
		}
		if tr.TilingErrUs > rep.MaxTilingErrUs {
			rep.MaxTilingErrUs = tr.TilingErrUs
		}
		if tr.SkewUs > rep.MaxSkewUs {
			rep.MaxSkewUs = tr.SkewUs
		}
		if tr.Attempts > 0 {
			attempts = append(attempts, float64(tr.Attempts))
			if tr.Attempts > rep.Amplification.MaxAttempts {
				rep.Amplification.MaxAttempts = tr.Attempts
			}
		}
		if tr.Failovers > 0 {
			failovers++
		}
		for _, a := range tr.Router.Attempts {
			byOutcome[a.Outcome]++
		}
	}

	stats := func(name string, a *acc) StageStats {
		s := StageStats{Name: name, Count: len(a.vals)}
		if len(a.vals) == 0 {
			return s
		}
		vs := append([]float64(nil), a.vals...)
		sort.Float64s(vs)
		s.P50, s.P95, s.P99 = metrics.Quantile(vs, 0.50), metrics.Quantile(vs, 0.95), metrics.Quantile(vs, 0.99)
		s.Max = vs[len(vs)-1]
		for _, sh := range a.shares {
			s.Share += sh
		}
		if len(a.shares) > 0 {
			s.Share /= float64(len(a.shares))
		}
		return s
	}
	flatten := func(m map[string]*acc) []StageStats {
		out := make([]StageStats, 0, len(m))
		for name, a := range m {
			out = append(out, stats(name, a))
		}
		// Critical-path order: biggest mean share of e2e first.
		sort.Slice(out, func(i, j int) bool {
			if out[i].Share != out[j].Share {
				return out[i].Share > out[j].Share
			}
			return out[i].Name < out[j].Name
		})
		return out
	}
	rep.RouterStages = flatten(routerAcc)
	rep.ReplicaStages = flatten(replicaAcc)
	rep.Network = stats("network", &netAcc)

	for _, a := range attempts {
		rep.Amplification.MeanAttempts += a
	}
	if len(attempts) > 0 {
		rep.Amplification.MeanAttempts /= float64(len(attempts))
	}
	if len(traces) > 0 {
		rep.Amplification.FailoverRate = float64(failovers) / float64(len(traces))
	}
	rep.Amplification.ByOutcome = byOutcome

	slow := append([]*Trace(nil), traces...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].TotalUs > slow[j].TotalUs })
	if topN > 0 && len(slow) > topN {
		slow = slow[:topN]
	}
	for _, tr := range slow {
		row := SlowTrace{
			TraceID:  tr.ID,
			TotalUs:  tr.TotalUs,
			Status:   tr.Status,
			Attempts: tr.Attempts,
			File:     tr.Router.File,
		}
		// The top stage spans both processes: compare router stages (with the
		// proxy stage replaced by network time) against replica stages.
		consider := func(name string, us float64) {
			if us > row.TopStageUs {
				row.TopStage, row.TopStageUs = name, us
			}
		}
		for _, st := range tr.Router.Stages {
			name, us := normalizeStage(st.Name), st.Us
			if name == "proxy" && len(tr.Replicas) > 0 {
				name, us = "network", tr.NetworkUs
			}
			consider(name, us)
		}
		for _, rp := range tr.Replicas {
			for _, st := range rp.Stages {
				consider(normalizeStage(st.Name), st.Us)
			}
		}
		rep.Slow = append(rep.Slow, row)
	}
	return rep
}

// WriteText renders the report for humans: assembly summary, per-process
// critical-path tables, amplification, and the slow-trace table.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "tracescan: %d events from %d file(s) -> %d traces (%d joined cross-process, %d orphan replica spans)\n",
		r.Events, len(r.Files), r.Traces, r.Joined, r.Orphans)
	fmt.Fprintf(w, "tiling: %d violation(s), max stage-sum error %.3fus, max clock skew %.3fus\n",
		r.TilingViolations, r.MaxTilingErrUs, r.MaxSkewUs)

	writeStages := func(title string, stages []StageStats) {
		if len(stages) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s (critical-path order)\n", title)
		fmt.Fprintf(w, "  %-12s %8s %12s %12s %12s %12s %7s\n", "stage", "count", "p50(us)", "p95(us)", "p99(us)", "max(us)", "share")
		for _, s := range stages {
			fmt.Fprintf(w, "  %-12s %8d %12.1f %12.1f %12.1f %12.1f %6.1f%%\n",
				s.Name, s.Count, s.P50, s.P95, s.P99, s.Max, 100*s.Share)
		}
	}
	writeStages("router stages", r.RouterStages)
	writeStages("replica stages", r.ReplicaStages)
	if r.Network.Count > 0 {
		fmt.Fprintf(w, "\nnetwork (router proxy - replica total): p50 %.1fus p95 %.1fus p99 %.1fus share %.1f%%\n",
			r.Network.P50, r.Network.P95, r.Network.P99, 100*r.Network.Share)
	}

	a := r.Amplification
	fmt.Fprintf(w, "\namplification: mean %.2f attempts/request, max %d, failover rate %.1f%%\n",
		a.MeanAttempts, a.MaxAttempts, 100*a.FailoverRate)
	if len(a.ByOutcome) > 0 {
		keys := make([]string, 0, len(a.ByOutcome))
		for k := range a.ByOutcome {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "  outcomes:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, a.ByOutcome[k])
		}
		fmt.Fprintln(w)
	}

	if len(r.Slow) > 0 {
		fmt.Fprintf(w, "\nslowest %d traces\n", len(r.Slow))
		fmt.Fprintf(w, "  %-16s %12s %6s %8s %-12s %12s\n", "trace", "total(us)", "status", "attempts", "top stage", "(us)")
		for _, s := range r.Slow {
			fmt.Fprintf(w, "  %-16s %12.1f %6d %8d %-12s %12.1f\n",
				s.TraceID, s.TotalUs, s.Status, s.Attempts, s.TopStage, s.TopStageUs)
		}
	}
}
