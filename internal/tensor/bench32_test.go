package tensor

import (
	"math/rand"
	"testing"
)

// benchDims is a Φ hidden-layer shape (paper §9.1.3): a 256-row batch
// through a 512×512 layer, M×K · (N×K)ᵀ.
const (
	benchM = 256
	benchK = 512
	benchN = 512
)

// reportGFLOPS attaches a GFLOP/s metric (2·M·N·K flops per op) so
// `make bench-kernels` can print the f64/f32 table straight from the
// benchmark output.
func reportGFLOPS(b *testing.B) {
	flops := 2 * float64(benchM) * float64(benchN) * float64(benchK)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkKernelABT_f64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, benchM, benchK)
	w := randMatrix(rng, benchN, benchK)
	out := NewMatrix(benchM, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulABT(a, w, out)
	}
	reportGFLOPS(b)
}

func BenchmarkKernelABT_f32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := Demote32(randMatrix(rng, benchM, benchK))
	w := Demote32(randMatrix(rng, benchN, benchK))
	out := NewMatrix32(benchM, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulABT32(a, w, out)
	}
	reportGFLOPS(b)
}

// zeroSkipOperands builds a MatMul left operand with the given fraction of
// exact zeros scattered at random — the regime where matMulRows' zero-skip
// branch either pays (sparse training gradients) or hurts (dense inference
// activations, where it only mispredicts).
func zeroSkipOperands(zeroFrac float64) (a, bm, out *Matrix) {
	rng := rand.New(rand.NewSource(3))
	a = randMatrix(rng, benchM, benchK)
	for i := range a.Data {
		if rng.Float64() < zeroFrac {
			a.Data[i] = 0
		}
	}
	bm = randMatrix(rng, benchK, benchN)
	return a, bm, NewMatrix(benchM, benchN)
}

func BenchmarkZeroSkip(b *testing.B) {
	cases := []struct {
		name     string
		zeroFrac float64
		kernel   func(a, b, out *Matrix) *Matrix
	}{
		// Dense activations: the skip is pure branch-misprediction overhead.
		{"dense/branchy", 0, MatMul},
		{"dense/branchfree", 0, MatMulDense},
		// Sparse training-style operands: the skip elides whole inner sweeps.
		{"sparse90/branchy", 0.9, MatMul},
		{"sparse90/branchfree", 0.9, MatMulDense},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a, bm, out := zeroSkipOperands(c.zeroFrac)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.kernel(a, bm, out)
			}
			reportGFLOPS(b)
		})
	}
}
