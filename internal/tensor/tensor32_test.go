package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix returns an r×c float64 matrix with N(0,1) entries.
func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	RandNormal(rng, m.Data, 0, 1)
	return m
}

// fuzzed shapes shared by the precision-kernel tests: skinny, square, wide,
// sub-tile and over-tile row counts (abtRowTile is 8).
var kernelShapes = []struct{ r, k, c int }{
	{1, 1, 1},
	{1, 7, 3},
	{3, 16, 5},
	{7, 33, 9},
	{8, 24, 8},
	{13, 64, 21},
	{32, 60, 17},
	{57, 128, 40},
}

func TestMatMulABT32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range kernelShapes {
		a64 := randMatrix(rng, s.r, s.k)
		b64 := randMatrix(rng, s.c, s.k)
		want := MatMulABT(a64, b64, nil)
		got := MatMulABT32(Demote32(a64), Demote32(b64), nil)
		if got.Rows != s.r || got.Cols != s.c {
			t.Fatalf("shape %v: got %d×%d", s, got.Rows, got.Cols)
		}
		for i := range got.Data {
			w := want.Data[i]
			g := float64(got.Data[i])
			if d := math.Abs(g - w); d > 1e-4*(1+math.Abs(w))*float64(s.k) {
				t.Fatalf("shape %v: elem %d = %g, want %g (|Δ|=%g)", s, i, g, w, d)
			}
		}
	}
}

func TestMatMulABTAdd32Accumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Demote32(randMatrix(rng, 9, 20))
	b := Demote32(randMatrix(rng, 6, 20))
	base := MatMulABT32(a, b, nil)
	acc := NewMatrix32(9, 6)
	for i := range acc.Data {
		acc.Data[i] = float32(i)
	}
	MatMulABTAdd32(a, b, acc)
	for i := range acc.Data {
		want := float32(i) + base.Data[i]
		if acc.Data[i] != want {
			t.Fatalf("elem %d = %g, want %g", i, acc.Data[i], want)
		}
	}
}

func TestMatMulDenseMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range kernelShapes {
		a := randMatrix(rng, s.r, s.k)
		// Sprinkle exact zeros so the zero-skip in MatMul actually fires.
		for i := range a.Data {
			if rng.Intn(3) == 0 {
				a.Data[i] = 0
			}
		}
		b := randMatrix(rng, s.k, s.c)
		want := MatMul(a, b, nil)
		got := MatMulDense(a, b, nil)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: elem %d = %g, want %g", s, i, got.Data[i], want.Data[i])
			}
		}
		// Preallocated out must be overwritten, not accumulated.
		reused := NewMatrix(s.r, s.c)
		for i := range reused.Data {
			reused.Data[i] = 99
		}
		MatMulDense(a, b, reused)
		for i := range reused.Data {
			if reused.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: reused elem %d = %g, want %g", s, i, reused.Data[i], want.Data[i])
			}
		}
	}
}
