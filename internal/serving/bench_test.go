package serving

import (
	"context"
	"strconv"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// benchModel mirrors the production architecture at production size; serving
// throughput does not depend on trained weights.
func benchModel() *core.Model {
	cfg := core.DefaultConfig(16)
	cfg.Accel = true
	return core.New(cfg, 48)
}

// BenchmarkEstimatePerRequest is the baseline the batcher must beat: one
// forward pass per estimate.
func BenchmarkEstimatePerRequest(b *testing.B) {
	m := benchModel()
	x := binVec(1, m.InDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateEncoded(x, i%(m.Cfg.TauMax+1))
	}
}

// BenchmarkEstimateBatched measures the coalesced forward pass at the batch
// sizes the engine actually forms; b.N counts estimates, not batches, so the
// numbers are directly comparable to BenchmarkEstimatePerRequest.
func BenchmarkEstimateBatched(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			m := benchModel()
			xs := tensor.NewMatrix(size, m.InDim)
			taus := make([]int, size)
			for r := 0; r < size; r++ {
				copy(xs.Row(r), binVec(int64(r), m.InDim))
				taus[r] = r % (m.Cfg.TauMax + 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				m.EstimateEncodedBatch(xs, taus)
			}
		})
	}
}

// BenchmarkEngineEstimate drives the full path — queue, batcher, cache — with
// parallel clients over a repeating query set.
func BenchmarkEngineEstimate(b *testing.B) {
	for _, tc := range []struct {
		name    string
		entries int
	}{{"cache_off", -1}, {"cache_on", 4096}} {
		b.Run(tc.name, func(b *testing.B) {
			m := benchModel()
			e := NewEngine(NewRegistry(m), Config{
				MaxBatch:     32,
				QueueDepth:   4096,
				CacheEntries: tc.entries,
			})
			defer e.Close()
			const nq = 64
			xs := make([][]float64, nq)
			for i := range xs {
				xs[i] = binVec(int64(i), m.InDim)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := i % nq
					if _, err := e.Estimate(context.Background(), xs[q], q%(m.Cfg.TauMax+1)); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}
