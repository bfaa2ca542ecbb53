package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/obs"
	"cardnet/internal/serving"
	"cardnet/internal/tensor"
)

const (
	// peakRefRate is the fixed reference rate latency is reported at.
	// About a tenth of the engine's capacity on two CPUs (~1900 req/s), so
	// queueing does not magnify the host's own speed changes.
	peakRefRate = 200.0
	// peakRefShare of the run's seconds measure the reference rate; the
	// rest searches for the maximum rate.
	peakRefShare = 0.7
	// peakAllShare of requests ask for the all-τ curve.
	peakAllShare = 0.2
	// peakPool is the distinct-query pool, 5× the engine's default
	// 4096-entry cache, so Zipf traffic both hits and evicts.
	peakPool = 5 * 4096
	// peakZipfS is the Zipf exponent of query popularity: skewed enough for
	// a hot set, flat enough that most requests miss the cache, so the
	// median request reaches the batcher and the forward pass.
	peakZipfS = 0.5
	// peakP99Limit is the latency limit max_rate_rps is found against.
	peakP99Limit = 20 * time.Millisecond
	// peakTimeout is each request's deadline; an expired request fails.
	peakTimeout = time.Second
	// peakStep is the length of one rate of the max-rate search.
	peakStep = 700 * time.Millisecond
	// peakChecked is how many distinct pool entries have every answer
	// compared with a direct forward pass of the model.
	peakChecked = 512
)

type peakQuery struct {
	x   []float64
	tau int
	all bool
}

// peakRun is the in-process open loop over one engine.
type peakRun struct {
	eng  *serving.Engine
	pool []peakQuery
	seq  []int // Zipf-drawn pool index of the i-th request, cyclic
	next int

	mu       sync.Mutex
	answers  map[int][]float64 // checked pool entry -> reference curve
	bad      []string
	checked  int
	rejected int
}

func newPeakRun(seed int64, eng *serving.Engine, m *core.Model) *peakRun {
	rng := rand.New(rand.NewSource(seed + 11))
	p := &peakRun{eng: eng, answers: map[int][]float64{}}
	xs := binaryRows(rng, peakPool, m.InDim)
	for i := 0; i < peakPool; i++ {
		q := peakQuery{x: xs.Row(i), tau: rng.Intn(m.Cfg.TauMax + 1), all: rng.Float64() < peakAllShare}
		p.pool = append(p.pool, q)
	}
	perm := rng.Perm(peakPool)       // popularity rank -> pool entry
	cum := make([]float64, peakPool) // P(rank k) ∝ 1/(k+1)^s
	var total float64
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), peakZipfS)
		cum[k] = total
	}
	p.seq = make([]int, 1<<18)
	for i := range p.seq {
		p.seq[i] = perm[sort.SearchFloat64s(cum, rng.Float64()*total)]
	}
	// Reference curves for a fixed subset of entries, straight from the
	// model, to compare every served answer for them against.
	sub := tensor.NewMatrix(peakChecked, m.InDim)
	for i := 0; i < peakChecked; i++ {
		copy(sub.Row(i), p.pool[i].x)
	}
	ref := m.EstimateAllTausBatch(sub)
	for i := 0; i < peakChecked; i++ {
		p.answers[i] = ref.Row(i)
	}
	return p
}

// do sends the i-th request of the sequence, traced when tr is non-nil, and
// checks the answer.
func (p *peakRun) do(i int, tr *obs.Trace) error {
	idx := p.seq[i%len(p.seq)]
	q := p.pool[idx]
	ctx, cancel := context.WithTimeout(context.Background(), peakTimeout)
	defer cancel()
	var curve []float64
	var v float64
	var err error
	if q.all {
		curve, err = p.eng.EstimateAllTraced(ctx, q.x, tr)
	} else {
		v, err = p.eng.EstimateTraced(ctx, q.x, q.tau, tr)
	}
	if err != nil {
		if errors.Is(err, serving.ErrOverloaded) {
			p.mu.Lock()
			p.rejected++
			p.mu.Unlock()
		}
		return err
	}
	p.verify(idx, q, v, curve)
	return nil
}

// verify checks an answer: every curve is monotone in τ, and answers for
// the checked subset equal the direct forward pass exactly.
func (p *peakRun) verify(idx int, q peakQuery, v float64, curve []float64) {
	var problem string
	ref, checked := p.answers[idx]
	switch {
	case q.all && !core.CurveMonotone(curve):
		problem = fmt.Sprintf("entry %d: served curve not monotone in τ: %v", idx, curve)
	case q.all && checked && !slices.Equal(curve, ref):
		problem = fmt.Sprintf("entry %d: served curve %v, direct forward %v", idx, curve, ref)
	case !q.all && checked && v != ref[q.tau]:
		problem = fmt.Sprintf("entry %d τ=%d: served %v, direct forward %v", idx, q.tau, v, ref[q.tau])
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if checked {
		p.checked++
	}
	if problem != "" && len(p.bad) < 3 {
		p.bad = append(p.bad, problem)
	}
}

// phase runs n requests of the sequence at rate; traced(i) selects which
// are traced. It returns the samples and the traces (nil where untraced).
func (p *peakRun) phase(rate float64, n int, traced func(i int) bool) ([]sample, []*obs.Trace) {
	first := p.next
	p.next += n
	trs := make([]*obs.Trace, n)
	ss := openLoop(rate, n, func(k int) error {
		var tr *obs.Trace
		if traced != nil && traced(k) {
			tr = obs.NewTrace()
			trs[k] = tr
		}
		return p.do(first+k, tr)
	})
	return ss, trs
}

// fill drives the sequence closed loop from as many callers as a full batch
// until the engine's cache holds nearly its default 4096 entries, so the
// measured phases see the steady-state hit ratio. It returns the requests
// sent.
func (p *peakRun) fill() int {
	const target, limit, callers = 4096 * 95 / 100, 1 << 16, 32
	var next atomic.Int64
	next.Store(int64(p.next))
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p.eng.CacheLen() < target {
				i := int(next.Add(1)) - 1
				if i-p.next >= limit {
					return
				}
				p.do(i, nil)
			}
		}()
	}
	wg.Wait()
	sent := int(next.Load()) - p.next
	p.next += sent
	return sent
}

// maxRate searches for the highest rate whose p99 meets peakP99Limit with
// no failures and no growing backlog: it raises the rate 1.5× per passing
// step until one fails, then bisects, for as many steps as budget allows.
func (p *peakRun) maxRate(budget time.Duration) (float64, []string) {
	var log []string
	lo, hi := 0.0, 0.0
	rate := 2 * peakRefRate
	limit := ms(peakP99Limit)
	for end := time.Now().Add(budget); time.Until(end) >= peakStep; {
		n := int(rate * peakStep.Seconds())
		ss, _ := p.phase(rate, n, nil)
		st := reduce(ss)
		tail := st.lat.Tail
		if v, err := st.lat.At(99); err == nil {
			tail = v
		}
		pass := st.failed == 0 && tail <= limit && ms(st.drain) <= limit && lateP99(st) <= limit
		log = append(log, fmt.Sprintf("  rate %7.0f/s: p99 %.2fms drain %.2fms late p99 %.2fms failed %d -> %v",
			rate, tail, ms(st.drain), lateP99(st), st.failed, map[bool]string{true: "meets", false: "misses"}[pass]))
		if pass {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case hi == 0:
			rate *= 1.5
		case lo == 0:
			rate = hi / 2
		default:
			rate = (lo + hi) / 2
		}
		time.Sleep(100 * time.Millisecond) // let the queue drain between steps
	}
	return lo, log
}

// runPeak: in-process open loop on serving.NewEngine at its default config,
// one goroutine per due request, Zipf-skewed queries over a pool 5× the
// cache, 20% all-τ curves. A PaperConfig-shaped model on HM-ImageNet.
func runPeak(cfg runConfig) (*report, error) {
	rep := newReport()
	var setups, trains, epochs []float64
	var eng *serving.Engine
	var m *core.Model
	var data *hmSet
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if eng != nil {
			eng.Close()
			runtime.GC() // earlier set-ups' garbage must not set the peak memory
		}
		t0 := time.Now()
		d, err := buildHM()
		if err != nil {
			return nil, err
		}
		c := core.PaperConfig(hmTauMax, 16)
		c.Accel, c.Epochs, c.VAEEpochs = true, 3, 3
		tr := trainModel(c, d.ext.Dim(), d.train, d.valid)
		eng = serving.NewEngine(serving.NewRegistry(tr.m), serving.Config{})
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, tr.took.Seconds())
		epochs = append(epochs, tr.epochsMs...)
		m, data = tr.m, d
	}
	setSetup(rep, setups, trains, epochs)
	rep.info(archLine("PaperConfig(τmax 20, VAE latent 16), 3 epochs", m))
	// Offline first, while no request is in flight.
	setOffline(rep, data.ext, m, data.bulk, data.test, data.exact, offlineTime)
	p := newPeakRun(cfg.seed, eng, m)
	runtime.GC() // set-up garbage is collected before timing, not during it

	// Warm-up: fill the cache closed loop, then one second at the reference
	// rate.
	warmStart := time.Now()
	filled := p.fill()
	p.phase(peakRefRate, int(peakRefRate), nil)
	warm := time.Since(warmStart)
	refN := int(peakRefRate * cfg.seconds * peakRefShare)
	block := func(k int) bool { return (k/int(peakRefRate))%2 == 1 }
	if !cfg.trace {
		block = nil
	}
	p.rejected = 0
	ss, trs := p.phase(peakRefRate, refN, block)
	st := reduce(ss)
	rep.attempted, rep.failed = len(ss), st.failed
	rep.set("generator.late_p99_ms", lateP99(st), st.late.String())
	rep.set("generator.warmup_s", warm.Seconds(),
		fmt.Sprintf("(%d closed-loop requests to fill the cache to %d entries, then one second at the reference rate)", filled, eng.CacheLen()))
	rep.check(lateP99(st) <= ms(lateLimit), "generator p99 lateness %.3fms exceeds %v: run invalid", lateP99(st), lateLimit)
	rep.set("serving.rejected_share", float64(p.rejected)/float64(len(ss)), fmt.Sprintf("(base: %d attempts at %.0f req/s)", len(ss), peakRefRate))

	if cfg.trace {
		if err := peakLedger(rep, ss, trs); err != nil {
			return nil, err
		}
		if err := setKernelLayers(rep, m, cfg.seed); err != nil {
			return nil, err
		}
	} else {
		if err := setLatency(rep, st.latRaw, fmt.Sprintf("due-time at the reference rate %.0f req/s", peakRefRate)); err != nil {
			return nil, err
		}
		rate, steps := p.maxRate(time.Duration(cfg.seconds * (1 - peakRefShare) * float64(time.Second)))
		rep.info("max_rate_rps %.1f 1/s (highest rate with p99 ≤ %v, no failures, no backlog; capacity probe, its rejections are not counted as failures)", rate, peakP99Limit)
		for _, s := range steps {
			rep.info("%s", s)
		}
	}
	rep.info("checked %d answers for %d pool entries against a direct forward pass", p.checked, peakChecked)
	for _, b := range p.bad {
		rep.check(false, "%s", b)
	}

	var err error
	if rep.metrics["mem_peak_mb"], err = vmHWMMB("self"); err != nil {
		return nil, err
	}
	rep.notes["mem_peak_mb"] = "(benchmark process VmHWM)"
	if cfg.trace {
		zeroLayers(rep)
	}
	return rep, nil
}

// peakLedger reports the engine layers from the traced blocks and the
// tracing overhead against the untraced blocks.
func peakLedger(rep *report, ss []sample, trs []*obs.Trace) error {
	var l ledger
	var traced, untraced, call []float64
	for k, s := range ss {
		if s.err != nil {
			continue
		}
		if trs[k] == nil {
			untraced = append(untraced, ms(s.latency()))
			continue
		}
		traced = append(traced, ms(s.latency()))
		r, err := recordOf(trs[k])
		if err != nil {
			return err
		}
		l.recs = append(l.recs, r)
		call = append(call, us(s.done.Sub(s.sent)))
	}
	if len(l.recs) == 0 {
		return errors.New("no traced request succeeded")
	}
	covered := l.set(rep)
	rep.set("ledger.coverage_pct", covered/mean(call)*100,
		fmt.Sprintf("(engine stages over mean call time %.1fus)", mean(call)))
	rep.set("trace.overhead_pct", overheadPct(summarize(traced), summarize(untraced)),
		"(p50 due-time latency, traced vs untraced one-second blocks)")
	return nil
}
