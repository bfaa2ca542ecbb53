package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/simselect"
	"cardnet/internal/tensor"
)

// trainWorkers fixes the data-parallel width of every training run, so a
// seed trains the same weights, and reads the same q-error, on any host.
const trainWorkers = 2

// setupRepeats is how many times a run performs its set-up; setup_s and
// train_s report the median.
const setupRepeats = 3

// hmTauMax is θmax = τmax of the Hamming workloads (HM-ImageNet, in_dim 64).
const hmTauMax = 20

// hmSet is the Hamming workload data: HM-ImageNet generated from the seed,
// its training and validation sets labelled with exact counts, and held-out
// test records with their exact count at every θ.
type hmSet struct {
	ext          *feature.HammingExtractor
	train, valid *core.TrainSet
	test         []dist.BitVector
	exact        [][]int          // exact[i][θ], θ = 0..hmTauMax
	bulk         []dist.BitVector // records the offline pass is timed on
}

// buildHM generates HM-ImageNet and labels it with simselect. The dataset,
// like every training input, is fixed by the dataset spec rather than the
// run's seed, so the served model and its q-error repeat exactly across
// seeds; the seed varies the traffic.
func buildHM() (*hmSet, error) {
	spec := dataset.DefaultsByName()["HM-ImageNet"]
	recs := dataset.Generate(spec).Bits
	ix := simselect.NewHammingIndex(recs)
	ext := feature.NewHammingExtractor(spec.Dim, hmTauMax, hmTauMax)
	split := dataset.SplitWorkload(dataset.SampleUniform(len(recs), 0.1, spec.Seed+1), spec.Seed+2)
	pick := func(ids []int) []dist.BitVector {
		out := make([]dist.BitVector, len(ids))
		for i, id := range ids {
			out[i] = recs[id]
		}
		return out
	}
	counts := func(q dist.BitVector, grid []float64) []int {
		cum := ix.CountAtEach(q, hmTauMax)
		out := make([]int, len(grid))
		for i, theta := range grid {
			out[i] = cum[int(theta)]
		}
		return out
	}
	grid := dataset.ThresholdGrid(hmTauMax, hmTauMax)
	s := &hmSet{ext: ext, test: pick(split.Test), bulk: recs[:offlineBulk]}
	var err error
	if s.train, err = core.BuildTrainSet[dist.BitVector](ext, pick(split.Train), grid, counts); err != nil {
		return nil, err
	}
	if s.valid, err = core.BuildTrainSet[dist.BitVector](ext, pick(split.Valid), grid, counts); err != nil {
		return nil, err
	}
	for _, q := range s.test {
		s.exact = append(s.exact, ix.CountAtEach(q, hmTauMax))
	}
	return s, nil
}

// trained is one training run: the model, its wall time and per-epoch times
// taken from the public Config.Hook events.
type trained struct {
	m        *core.Model
	took     time.Duration
	epochsMs []float64
}

func trainModel(cfg core.Config, inDim int, train, valid *core.TrainSet) trained {
	var t trained
	cfg.Workers = trainWorkers
	cfg.Hook = func(ev core.TrainEvent) { t.epochsMs = append(t.epochsMs, ms(ev.EpochTime)) }
	t.m = core.New(cfg, inDim)
	start := time.Now()
	t.m.Train(train, valid)
	t.took = time.Since(start)
	t.m.Cfg.Hook = nil
	return t
}

// flopsPerEstimate is the multiply-add work of one all-τ estimate from
// core.Complexity (paper Section 7): two FLOPs per weight the inference
// forward reads — the VAE's encoder half, the encoder once per pass
// (τmax+1 passes for the standard model, one for CardNet-A), and the
// decoders.
func flopsPerEstimate(m *core.Model) float64 {
	c := m.Complexity()
	return 2 * (float64(c.VAE)/2 + float64(c.Encoder)*float64(m.InferenceMultiplier()) + float64(c.Decoders))
}

// archLine names a served model's architecture.
func archLine(config string, m *core.Model) string {
	return fmt.Sprintf("arch: %s accel=%v in_dim=%d tau_max=%d params=%d flops_per_estimate=%.0f",
		config, m.Cfg.Accel, m.InDim, m.Cfg.TauMax, m.Complexity().Total, flopsPerEstimate(m))
}

const (
	// offlineBulk is how many dataset records one timed offline pass
	// estimates: a batch large enough to shard across the kernel pool,
	// small enough that most passes run between two garbage collections.
	offlineBulk = 256
	// offlineTime is the least time the offline passes take, so the median
	// pass spans more than one burst of host noise.
	offlineTime = 1500 * time.Millisecond
)

// estimateRaw estimates every record's curve from raw records: feature
// encoding, then one batched forward pass.
func estimateRaw[R any](ext feature.Extractor[R], m *core.Model, recs []R) (curves *tensor.Matrix, encode, forward time.Duration) {
	t0 := time.Now()
	xs := tensor.NewMatrix(len(recs), ext.Dim())
	for i, r := range recs {
		copy(xs.Row(i), ext.Encode(r))
	}
	t1 := time.Now()
	curves = m.EstimateAllTausBatch(xs)
	return curves, t1.Sub(t0), time.Since(t1)
}

// qerrors scores curves against exact counts: exact[i][θ] for integer θ in
// [0, len(exact[i])), estimated at τ = Threshold(θ).
func qerrors(curves *tensor.Matrix, exact [][]int, threshold func(float64) int) []float64 {
	var qs []float64
	for i, row := range exact {
		curve := curves.Row(i)
		for theta, act := range row {
			tau := threshold(float64(theta))
			if tau >= len(curve) {
				tau = len(curve) - 1
			}
			est := 0.0
			if tau >= 0 {
				est = curve[tau]
			}
			qs = append(qs, qerror(est, float64(act)))
		}
	}
	return qs
}

// setAccuracy reports qerror_mean and qerror_p90 and checks every curve is
// monotone in τ.
func setAccuracy(rep *report, curves *tensor.Matrix, exact [][]int, threshold func(float64) int) {
	qs := qerrors(curves, exact, threshold)
	sort.Float64s(qs)
	p90, _ := quantile(qs, 90)
	base := fmt.Sprintf("(base: %d test (record, θ) points vs simselect exact counts)", len(qs))
	rep.set("qerror_mean", mean(qs), base)
	rep.set("qerror_p90", p90, base)
	for i := 0; i < curves.Rows; i++ {
		rep.check(core.CurveMonotone(curves.Row(i)), "offline curve %d is not monotone in τ: %v", i, curves.Row(i))
	}
}

// setOffline times offline passes over bulk records — at least three, for
// at least minDur, reporting the median — then estimates the test records
// and scores them against their exact counts.
func setOffline[R any](rep *report, ext feature.Extractor[R], m *core.Model, bulk, test []R, exact [][]int, minDur time.Duration) {
	var rates, enc, fwd []float64
	n := float64(len(bulk))
	for start := time.Now(); len(rates) < 3 || time.Since(start) < minDur; {
		_, e, f := estimateRaw(ext, m, bulk)
		rates = append(rates, n/(e+f).Seconds())
		enc = append(enc, us(e)/n)
		fwd = append(fwd, us(f)/n)
	}
	sort.Float64s(rates)
	rep.info("offline_curves_per_s %.6g 1/s (%d raw records per pass: feature encode + one batched forward; median of %d passes, range %.4g–%.4g)",
		median(rates), len(bulk), len(rates), rates[0], rates[len(rates)-1])
	rep.set("feature.encode_us", median(enc), "(per record)")
	rep.set("core.forward_per_curve_us", median(fwd), fmt.Sprintf("(batch of %d)", len(bulk)))
	curves, _, _ := estimateRaw(ext, m, test)
	setAccuracy(rep, curves, exact, ext.Threshold)
}

// setSetup reports the median set-up and training times of the repeats, and
// collects the set-up's garbage, so no measured phase pays for it.
func setSetup(rep *report, setups, trains []float64, epochMs []float64) {
	runtime.GC()
	rep.set("setup_s", median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups)))
	rep.set("train_s", median(trains), fmt.Sprintf("(median of %d trainings, part of setup_s)", len(trains)))
	rep.set("core.train_epoch_ms", median(epochMs), fmt.Sprintf("(median of %d epochs, Config.Hook)", len(epochMs)))
}
