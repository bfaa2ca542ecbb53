package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/feature"
	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/serving"
	"cardnet/internal/simselect"
)

const (
	edBase   = 2000 // ED-AMiner records at the start
	edPool   = 400  // records the update stream may insert
	edTauMax = 10   // θmax = τmax of ED-AMiner
	// refreshCycles of opsPerCycle update batches of opBatch records each.
	refreshCycles = 3
	opsPerCycle   = 20
	opBatch       = 5
	// incEpochs bounds incremental training at 4×incEpochs epochs.
	incEpochs = 2
	// readerStrings is the readers' raw-string pool, ten times the
	// engine's cache, so most reads reach the batcher and the forward pass.
	readerStrings = 40000
	// Readers run readerLead before each swap and, after it, the rest of
	// readShare of the run's seconds split over the cycles.
	readerLead = 200 * time.Millisecond
	readShare  = 0.4
)

// edSet is the refresh workload's data: ED-AMiner split into the live
// records and an insert pool, and the query workload.
type edSet struct {
	base, pool           []string
	ext                  *feature.EditExtractor
	trainQ, validQ, test []string
}

// buildED generates the records from the dataset spec, not the run's seed,
// like buildHM.
func buildED() *edSet {
	spec := dataset.DefaultsByName()["ED-AMiner"]
	all := dataset.Strings(edBase+edPool, spec.Clusters, spec.Syllables, spec.MutRate, spec.Seed)
	d := &edSet{base: all[:edBase], pool: all[edBase:]}
	d.ext = feature.NewEditExtractor("abcdefghijklmnopqrstuvwxyz", dataset.MaxStringLen(d.base), edTauMax, edTauMax)
	split := dataset.SplitWorkload(dataset.SampleUniform(edBase, 0.15, spec.Seed+1), spec.Seed+2)
	pick := func(ids []int) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = d.base[id]
		}
		return out
	}
	d.trainQ, d.validQ, d.test = pick(split.Train), pick(split.Valid), pick(split.Test)
	return d
}

// label indexes recs with simselect and labels the training and validation
// queries with exact counts.
func (d *edSet) label(recs []string) (train, valid *core.TrainSet, ix *simselect.EditIndex, err error) {
	ix = simselect.NewEditIndex(recs)
	counts := func(q string, grid []float64) []int {
		cum := ix.CountAtEach(q, edTauMax)
		out := make([]int, len(grid))
		for i, theta := range grid {
			out[i] = cum[int(theta)]
		}
		return out
	}
	grid := dataset.ThresholdGrid(edTauMax, edTauMax)
	if train, err = core.BuildTrainSet[string](d.ext, d.trainQ, grid, counts); err != nil {
		return
	}
	valid, err = core.BuildTrainSet[string](d.ext, d.validQ, grid, counts)
	return
}

// liveSet applies an update stream to the base records.
type liveSet struct {
	d        *edSet
	deleted  map[int]bool
	inserted map[int]bool
}

func (l *liveSet) apply(ops []dataset.UpdateOp) {
	for _, op := range ops {
		for _, id := range op.IDs {
			if op.Insert {
				l.inserted[id] = true
			} else {
				l.deleted[id] = true
			}
		}
	}
}

func (l *liveSet) records() []string {
	var out []string
	for i, r := range l.d.base {
		if !l.deleted[i] {
			out = append(out, r)
		}
	}
	for i, r := range l.d.pool {
		if l.inserted[i] {
			out = append(out, r)
		}
	}
	return out
}

// readers are closed-loop EstimateAll callers on the engine.
type readers struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	lat     []float64 // untraced reads, ms
	tlat    []float64 // traced reads, ms
	recs    []traceRec
	errs    int
	nonMono int
	reads   int
}

// start launches nproc readers over the raw-string pool; with trace set,
// every other read is traced.
func (r *readers) start(eng *serving.Engine, ext *feature.EditExtractor, pool []string, seed int64, trace bool) {
	r.stop = make(chan struct{})
	for g := 0; g < runtime.NumCPU(); g++ {
		r.wg.Add(1)
		go func(g int) {
			defer r.wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for k := 0; ; k++ {
				select {
				case <-r.stop:
					return
				default:
				}
				x := ext.Encode(pool[rng.Intn(len(pool))])
				var tr *obs.Trace
				if trace && k%2 == 1 {
					tr = obs.NewTrace()
				}
				ctx, cancel := context.WithTimeout(context.Background(), peakTimeout)
				t0 := time.Now()
				curve, err := eng.EstimateAllTraced(ctx, x, tr)
				d := ms(time.Since(t0))
				cancel()
				var rec traceRec
				if err == nil && tr != nil {
					rec, err = recordOf(tr)
				}
				r.mu.Lock()
				r.reads++
				switch {
				case err != nil:
					r.errs++
				case !core.CurveMonotone(curve):
					r.nonMono++
				case tr != nil:
					r.tlat = append(r.tlat, d)
					r.recs = append(r.recs, rec)
				default:
					r.lat = append(r.lat, d)
				}
				r.mu.Unlock()
			}
		}(g)
	}
}

func (r *readers) halt() {
	close(r.stop)
	r.wg.Wait()
}

// runRefresh: the write path on ED-AMiner — train, apply updates, relabel
// with simselect, IncrementalTrain, round-trip through checkpoint, and
// Registry.Swap into a live engine under nproc closed-loop EstimateAll
// readers; then estimate every test (record, θ) from raw strings.
func runRefresh(cfg runConfig) (*report, error) {
	rep := newReport()
	modelPath := cfg.path("refresh.gob")
	var setups, trains, epochs []float64
	var eng *serving.Engine
	var reg *serving.Registry
	var trainer *core.Model
	var d *edSet
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
		d = buildED()
		train, valid, _, err := d.label(d.base)
		if err != nil {
			return nil, err
		}
		c := core.DefaultConfig(edTauMax)
		c.Accel, c.Epochs, c.VAEEpochs = true, 6, 6
		tr := trainModel(c, d.ext.Dim(), train, valid)
		if err := checkpoint.SaveModel(modelPath, tr.m); err != nil {
			return nil, err
		}
		served, err := checkpoint.LoadModel(modelPath)
		if err != nil {
			return nil, err
		}
		reg = serving.NewRegistry(served)
		eng = serving.NewEngine(reg, serving.Config{})
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, tr.took.Seconds())
		epochs = append(epochs, tr.epochsMs...)
		trainer = tr.m
	}
	setSetup(rep, setups, trains, epochs)
	rep.info(archLine("DefaultConfig on ED-AMiner (6 epochs)", trainer))
	spec := dataset.DefaultsByName()["ED-AMiner"]
	pool := dataset.Strings(readerStrings, spec.Clusters, spec.Syllables, spec.MutRate, cfg.seed+5)

	// The update stream is part of the fixed scenario; the seed varies the
	// readers' traffic.
	live := &liveSet{d: d, deleted: map[int]bool{}, inserted: map[int]bool{}}
	ops := dataset.UpdateStream(edBase, edPool, refreshCycles*opsPerCycle, opBatch, spec.Seed+3)
	trainer.Cfg.Epochs = incEpochs
	var rd readers
	var refresh, label, inc, save, load, swap, compile []float64
	var incEpochsRun []int
	var ix *simselect.EditIndex
	var served *core.Model
	for c := 0; c < refreshCycles; c++ {
		runtime.GC() // each cycle starts from a collected heap, so peak memory repeats
		t0 := time.Now()
		live.apply(ops[c*opsPerCycle : (c+1)*opsPerCycle])
		recs := live.records()
		t1 := time.Now()
		train, valid, cix, err := d.label(recs)
		if err != nil {
			return nil, err
		}
		ix = cix
		t2 := time.Now()
		res := trainer.IncrementalTrain(train, valid, 0) // 0: always retrain
		incEpochsRun = append(incEpochsRun, res.Epochs)
		t3 := time.Now()
		if err := checkpoint.SaveModel(modelPath, trainer); err != nil {
			return nil, err
		}
		t4 := time.Now()
		if served, err = checkpoint.LoadModel(modelPath); err != nil {
			return nil, err
		}
		t5 := time.Now()
		rd.start(eng, d.ext, pool, cfg.seed+int64(c)*101, cfg.trace)
		time.Sleep(readerLead)
		t6 := time.Now()
		if _, err := reg.Swap(served); err != nil {
			rd.halt()
			return nil, err
		}
		t7 := time.Now()
		time.Sleep(readerTail(cfg.seconds))
		rd.halt()
		tc := time.Now()
		if _, _, err := infer.Compile(served, infer.PrecisionF32, infer.GateConfig{Seed: cfg.seed}); err != nil {
			return nil, err
		}
		compile = append(compile, ms(time.Since(tc)))
		// The readers' lead-in sits between load and swap; it is not refresh
		// work, so it is taken out.
		refresh = append(refresh, (t7.Sub(t0) - t6.Sub(t5)).Seconds())
		label = append(label, t2.Sub(t1).Seconds())
		inc = append(inc, t3.Sub(t2).Seconds())
		save = append(save, ms(t4.Sub(t3)))
		load = append(load, ms(t5.Sub(t4)))
		swap = append(swap, ms(t7.Sub(t6)))
	}
	cycles := fmt.Sprintf("(median of %d refresh cycles)", refreshCycles)
	rep.info("refresh_s %.6g s %s: updates applied → relabel → IncrementalTrain (epochs %v) → checkpoint → swap", median(refresh), cycles, incEpochsRun)
	rep.set("simselect.label_s", median(label), cycles)
	rep.set("core.incremental_s", median(inc), cycles)
	rep.set("checkpoint.save_ms", median(save), cycles)
	rep.set("checkpoint.load_ms", median(load), cycles)
	rep.set("serving.swap_ms", median(swap), cycles)
	rep.set("infer.compile_ms", median(compile), "(f32 plan + accuracy gate of the refreshed model, median)")
	var parts, whole float64
	for i := range refresh {
		parts += label[i] + inc[i] + (save[i]+load[i]+swap[i])/1e3
		whole += refresh[i]
	}
	rep.set("ledger.coverage_pct", parts/whole*100, "(label + incremental + save + load + swap over refresh_s, summed over cycles)")

	rep.attempted, rep.failed = rd.reads+refreshCycles, rd.errs
	rep.check(rd.errs == 0, "%d reader errors across %d swaps", rd.errs, refreshCycles)
	rep.check(rd.nonMono == 0, "%d reader curves not monotone in τ", rd.nonMono)
	rep.info("readers: %d reads by %d closed-loop readers across %d swaps, %d errors", rd.reads, runtime.NumCPU(), refreshCycles, rd.errs)
	lat := summarize(rd.lat)
	if cfg.trace {
		var l ledger
		l.recs = rd.recs
		l.set(rep)
		rep.set("trace.overhead_pct", overheadPct(summarize(rd.tlat), lat), "(p50 read latency, traced vs untraced reads)")
		if err := setKernelLayers(rep, served, cfg.seed); err != nil {
			return nil, err
		}
	} else {
		if err := setLatency(rep, rd.lat, "EstimateAll reads around the swaps"); err != nil {
			return nil, err
		}
		p99, _, _ := windowedP99(rd.lat) // setLatency has checked it is supported
		rep.info("swap_read_p99_ms %.6g ms (latency_p99_ms of the reads around the swaps)", p99)
	}

	var err error
	if rep.metrics["mem_peak_mb"], err = vmHWMMB("self"); err != nil {
		return nil, err
	}
	rep.notes["mem_peak_mb"] = "(benchmark process VmHWM)"
	var exact [][]int
	for _, q := range d.test {
		exact = append(exact, ix.CountAtEach(q, edTauMax))
	}
	setOffline(rep, d.ext, served, d.base[:offlineBulk], d.test, exact, offlineTime)
	if cfg.trace {
		zeroLayers(rep)
	}
	return rep, nil
}

// readerTail is how long readers keep reading after each swap.
func readerTail(seconds float64) time.Duration {
	per := time.Duration(seconds * readShare / refreshCycles * float64(time.Second))
	return max(per-readerLead, readerLead)
}
