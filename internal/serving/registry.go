package serving

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/tensor"
)

// Served is one immutable inference artifact: a model, the registry version
// it serves as, the compiled plan that runs it (nil when the exact f64
// forward serves), and the gate verdict that chose between the two. The
// registry publishes exactly one Served per model version, so a batch, the
// autopilot's shadow comparison and its monotonicity sweep all run the same
// artifact the gate judged.
type Served struct {
	Model   *core.Model
	Version uint64
	Plan    *infer.Plan
	Gate    infer.GateResult
}

// EstimateAllTausBatch runs the artifact's forward over a batch: the compiled
// plan when its gate passed, the exact f64 model path otherwise.
func (s *Served) EstimateAllTausBatch(xs *tensor.Matrix) *tensor.Matrix {
	if s.Plan != nil {
		return s.Plan.EstimateAllTausBatch(xs)
	}
	return s.Model.EstimateAllTausBatch(xs)
}

// Registry is a versioned store for the live serving artifact. Readers get
// the current Served with one atomic load; Swap (Prepare then Publish)
// installs a retrained model atomically after validating shape
// compatibility, so in-flight batches simply finish on the artifact they
// already hold — no request ever fails because of a reload (the paper's
// Section 8 incremental-learning loop deployed as an operation).
type Registry struct {
	cur atomic.Pointer[Served]

	mu     sync.Mutex // serializes Prepare, Publish, and onSwap registration
	onSwap []func()
	tier   infer.Precision
	gate   infer.GateConfig
}

// NewRegistry starts a registry at version 1 with the given model, served
// through the exact f64 path until an engine configures a compiled tier.
func NewRegistry(m *core.Model) *Registry {
	if m == nil {
		panic("serving: nil initial model")
	}
	r := &Registry{tier: infer.PrecisionF64}
	r.install(r.compile(m, 1))
	return r
}

// configure sets the precision tier and gate every later Prepare compiles
// at, and recompiles the live model at them under its current version.
// NewEngine calls it before its workers start, so no batch ever sees the
// replaced artifact.
func (r *Registry) configure(tier infer.Precision, gc infer.GateConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tier, r.gate = tier, gc
	cur := r.cur.Load()
	r.install(r.compile(cur.Model, cur.Version))
}

// Current returns the live model and its version.
func (r *Registry) Current() (*core.Model, uint64) {
	s := r.cur.Load()
	return s.Model, s.Version
}

// Served returns the live artifact.
func (r *Registry) Served() *Served { return r.cur.Load() }

// OnSwap registers a callback invoked after every successful Publish (the
// engine uses it to invalidate the estimate cache).
func (r *Registry) OnSwap(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onSwap = append(r.onSwap, f)
}

// Prepare validates that m is shape-compatible with the live model — same
// input dimensionality and τ range, the contract clients encode against —
// and compiles it at the registry's tier and gate into the artifact that
// Publish would install as the next version. A failed gate yields an f64
// artifact that says why.
func (r *Registry) Prepare(m *core.Model) (*Served, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prepareLocked(m)
}

func (r *Registry) prepareLocked(m *core.Model) (*Served, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadInput)
	}
	cur := r.cur.Load()
	if m.InDim != cur.Model.InDim {
		return nil, fmt.Errorf("%w: model in_dim %d, serving %d", ErrBadInput, m.InDim, cur.Model.InDim)
	}
	if m.Cfg.TauMax != cur.Model.Cfg.TauMax {
		return nil, fmt.Errorf("%w: model tau_max %d, serving %d", ErrBadInput, m.Cfg.TauMax, cur.Model.Cfg.TauMax)
	}
	return r.compile(m, cur.Version+1), nil
}

// Publish installs a prepared artifact with one atomic store and fires the
// swap callbacks. It refuses an artifact prepared against a version that is
// no longer live (another swap won the race, or it was already published):
// the judgement made on it compared against a model that no longer serves.
// The replaced artifact keeps serving any batch that already loaded it.
func (r *Registry) Publish(s *Served) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(s)
}

func (r *Registry) publishLocked(s *Served) error {
	if live := r.cur.Load().Version; s.Version != live+1 {
		return fmt.Errorf("serving: artifact prepared as version %d, registry is at version %d", s.Version, live)
	}
	r.install(s)
	mSwaps.Inc()
	for _, f := range r.onSwap {
		f()
	}
	return nil
}

// Swap prepares and publishes m in one step, returning the new version.
func (r *Registry) Swap(m *core.Model) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.prepareLocked(m)
	if err != nil {
		return 0, err
	}
	return s.Version, r.publishLocked(s)
}

// compile builds the artifact for m at the registry's tier and gate.
func (r *Registry) compile(m *core.Model, version uint64) *Served {
	plan, gate, err := infer.Compile(m, r.tier, r.gate)
	if err != nil {
		// Unknown tier (ParsePrecision guards the flag, so this is
		// defensive): serve exact f64 and say why.
		gate.Reason = err.Error()
		plan = nil
	}
	if gate.Requested != infer.PrecisionF64 && !gate.Pass {
		mGateFailures.Inc()
	}
	return &Served{Model: m, Version: version, Plan: plan, Gate: gate}
}

// install stores s as the live artifact and updates the registry gauges.
func (r *Registry) install(s *Served) {
	r.cur.Store(s)
	mVersion.Set(float64(s.Version))
	bits := 64.0
	if s.Plan != nil {
		bits = 32
	}
	mPrecisionActive.Set(bits)
}
