// Package monitor watches the quality of a serving CardNet model online —
// the production counterpart of the paper's train-time evaluation. CardNet's
// two operational guarantees are monotonicity in τ (Lemmas 1–2) and
// recoverability from data change via incremental retraining (Section 8);
// this package turns both into live signals:
//
//   - a rolling window of q-errors from labelled feedback (POST /feedback)
//     and audit replays against an exact simselect oracle, summarized as
//     window quantiles plus an EWMA;
//   - a drift status (ok | warn | retrain-recommended) comparing the EWMA
//     against a baseline frozen from the first samples after each model
//     (re)load, so an operator knows when to trigger `cardnet update`;
//   - a monotonicity-violation counter over the τ-sweep curves the serving
//     engine already computes for every batch row.
//
// Everything mirrors into an obs.Registry so /metrics (JSON and Prometheus)
// exposes the same numbers as /drift.
package monitor

import (
	"sort"
	"sync"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/metrics"
	"cardnet/internal/obs"
)

// Drift states, ordered by severity.
const (
	StatusOK      = "ok"
	StatusWarn    = "warn"
	StatusRetrain = "retrain-recommended"
)

// Config tunes the monitor; zero values take the documented defaults.
type Config struct {
	// Window is the rolling q-error window size (default 512).
	Window int
	// EWMAAlpha is the exponential weight of the newest q-error (default
	// 0.05: ~20-sample memory, smooth enough to ignore single outliers).
	EWMAAlpha float64
	// BaselineN is how many q-error samples after a model (re)load are
	// averaged into the drift baseline (default 32).
	BaselineN int
	// WarnFactor: EWMA ≥ WarnFactor·baseline reports "warn" (default 1.5).
	WarnFactor float64
	// RetrainFactor: EWMA ≥ RetrainFactor·baseline reports
	// "retrain-recommended" (default 2.5).
	RetrainFactor float64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 512
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.05
	}
	if c.BaselineN <= 0 {
		c.BaselineN = 32
	}
	if c.WarnFactor <= 1 {
		c.WarnFactor = 1.5
	}
	if c.RetrainFactor <= c.WarnFactor {
		c.RetrainFactor = 2.5
	}
	return c
}

// Monitor is safe for concurrent use by HTTP handlers, audit goroutines,
// and the engine's batch workers.
type Monitor struct {
	cfg Config

	mu        sync.Mutex
	win       []float64 // q-error ring buffer
	n         int       // filled entries
	idx       int       // next write position
	ewma      float64
	baseline  float64
	baseN     int  // samples folded into the pending baseline
	baseReady bool // baseline frozen

	feedback uint64
	audits   uint64

	// Level-transition tracking for the autopilot's dwell-window trigger:
	// curLevel is the most recent drift level, levelSince when it started.
	curLevel   int
	levelSince time.Time

	// Curve checks are lock-free: counted straight into the registry.
	monoChecks     *obs.Counter
	monoViolations *obs.Counter

	gEWMA     *obs.Gauge
	gBaseline *obs.Gauge
	gLevel    *obs.Gauge
	gP50      *obs.Gauge
	gP99      *obs.Gauge
	cFeedback *obs.Counter
	cAudits   *obs.Counter
	hQErr     *obs.Histogram
}

// New builds a monitor mirroring into reg (obs.Default in production).
func New(cfg Config, reg *obs.Registry) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{
		cfg:            cfg,
		win:            make([]float64, cfg.Window),
		monoChecks:     reg.Counter("monitor.mono.checks"),
		monoViolations: reg.Counter("monitor.mono.violations"),
		gEWMA:          reg.Gauge("monitor.qerror.ewma"),
		gBaseline:      reg.Gauge("monitor.qerror.baseline"),
		gLevel:         reg.Gauge("monitor.drift.level"),
		gP50:           reg.Gauge("monitor.qerror.p50"),
		gP99:           reg.Gauge("monitor.qerror.p99"),
		cFeedback:      reg.Counter("monitor.feedback.samples"),
		cAudits:        reg.Counter("monitor.audit.samples"),
		hQErr:          reg.Histogram("monitor.qerror", obs.ExpBuckets(1, 2, 16)),
	}
}

// Source labels where a q-error sample came from.
type Source int

// Sample sources.
const (
	Feedback Source = iota // labelled actuals posted to /feedback
	Audit                  // serve-time replays against the exact oracle
)

// Record folds one labelled (actual, estimate) pair into the window and
// returns its q-error. The first Config.BaselineN samples after New or
// ResetBaseline freeze the drift baseline; until then the status stays "ok".
func (m *Monitor) Record(actual, estimate float64, src Source) float64 {
	q := metrics.QError(actual, estimate)
	m.hQErr.Observe(q)
	if src == Audit {
		m.cAudits.Inc()
	} else {
		m.cFeedback.Inc()
	}

	m.mu.Lock()
	m.win[m.idx] = q
	m.idx = (m.idx + 1) % len(m.win)
	if m.n < len(m.win) {
		m.n++
	}
	if src == Audit {
		m.audits++
	} else {
		m.feedback++
	}
	if !m.baseReady {
		// Running mean over the first BaselineN samples, then freeze.
		m.baseline += (q - m.baseline) / float64(m.baseN+1)
		m.baseN++
		m.ewma = m.baseline
		if m.baseN >= m.cfg.BaselineN {
			m.baseReady = true
		}
	} else {
		m.ewma += m.cfg.EWMAAlpha * (q - m.ewma)
	}
	ewma, base := m.ewma, m.baseline
	level := m.levelLocked()
	if level != m.curLevel || m.levelSince.IsZero() {
		m.curLevel = level
		m.levelSince = time.Now()
	}
	m.mu.Unlock()

	m.gEWMA.Set(ewma)
	m.gBaseline.Set(base)
	m.gLevel.Set(float64(level))
	return q
}

// CheckCurve validates one τ-sweep estimate curve against the Lemma 2
// contract and counts the result; it returns true when the curve is
// monotone. Wired into serving.Config.CurveCheck so every batch row the
// engine computes is checked.
func (m *Monitor) CheckCurve(curve []float64) bool {
	m.monoChecks.Inc()
	if core.CurveMonotone(curve) {
		return true
	}
	m.monoViolations.Inc()
	return false
}

// ResetBaseline discards the frozen baseline and EWMA so the next
// Config.BaselineN samples re-establish them — called on every model swap,
// because a retrained model's accuracy defines a new normal.
func (m *Monitor) ResetBaseline() {
	m.mu.Lock()
	m.baseline, m.baseN, m.baseReady = 0, 0, false
	m.ewma = 0
	m.n, m.idx = 0, 0
	m.curLevel, m.levelSince = 0, time.Now()
	m.mu.Unlock()
	m.gEWMA.Set(0)
	m.gBaseline.Set(0)
	m.gLevel.Set(0)
}

// LevelSince reports the current drift level (0 ok, 1 warn,
// 2 retrain-recommended) and when that level started. Before any sample is
// recorded the since time is zero. The autopilot uses this pair to require a
// level to be *sustained* for a dwell window before triggering a retrain,
// instead of reacting to a single noisy scrape.
func (m *Monitor) LevelSince() (int, time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.curLevel, m.levelSince
}

// levelLocked maps the EWMA-vs-baseline ratio onto 0 (ok), 1 (warn),
// 2 (retrain-recommended). Baselines are floored at 1 — a perfect model's
// q-error — so a near-perfect baseline does not page on noise.
func (m *Monitor) levelLocked() int {
	if !m.baseReady {
		return 0
	}
	base := m.baseline
	if base < 1 {
		base = 1
	}
	ratio := m.ewma / base
	switch {
	case ratio >= m.cfg.RetrainFactor:
		return 2
	case ratio >= m.cfg.WarnFactor:
		return 1
	default:
		return 0
	}
}

// Status is the /drift wire format.
type Status struct {
	Status         string  `json:"status"`  // ok | warn | retrain-recommended
	Samples        int     `json:"samples"` // q-errors currently in the window
	Feedback       uint64  `json:"feedback_samples"`
	Audits         uint64  `json:"audit_samples"`
	EWMA           float64 `json:"qerror_ewma"`
	Baseline       float64 `json:"qerror_baseline"`
	BaselineReady  bool    `json:"baseline_ready"`
	P50            float64 `json:"qerror_p50"`
	P90            float64 `json:"qerror_p90"`
	P99            float64 `json:"qerror_p99"`
	MonoChecks     uint64  `json:"mono_checks"`
	MonoViolations uint64  `json:"mono_violations"`
}

// Status summarizes the monitor. Window quantiles are exact (copy + sort of
// at most Config.Window float64s, off the hot path).
func (m *Monitor) Status() Status {
	m.mu.Lock()
	s := Status{
		Samples:       m.n,
		Feedback:      m.feedback,
		Audits:        m.audits,
		EWMA:          m.ewma,
		Baseline:      m.baseline,
		BaselineReady: m.baseReady,
	}
	win := append([]float64(nil), m.win[:min(m.n, len(m.win))]...)
	level := m.levelLocked()
	m.mu.Unlock()

	switch level {
	case 2:
		s.Status = StatusRetrain
	case 1:
		s.Status = StatusWarn
	default:
		s.Status = StatusOK
	}
	if len(win) > 0 {
		sort.Float64s(win)
		s.P50 = metrics.Quantile(win, 0.50)
		s.P90 = metrics.Quantile(win, 0.90)
		s.P99 = metrics.Quantile(win, 0.99)
	}
	s.MonoChecks = m.monoChecks.Value()
	s.MonoViolations = m.monoViolations.Value()
	// Mirror the freshly computed quantiles so /metrics scrapes stay
	// consistent with /drift without recomputing on the scrape path.
	m.gP50.Set(s.P50)
	m.gP99.Set(s.P99)
	return s
}
