package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// randRectCSR builds a random rows×cols matrix with the given fill density.
func randRectCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSR()
}

// randSquareCSR builds a random square matrix with a guaranteed nonzero
// diagonal (so the DIA conversion has substance).
func randSquareCSR(rng *rand.Rand, n int, density float64) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1+rng.Float64())
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSR()
}

// kernelSets is the portable reference set and the startup-selected one:
// every interleaved product must agree across them bit for bit.
func kernelSets() []*kernel.Impl { return []*kernel.Impl{kernel.Portable(), kernel.Active()} }

// spmmShapes are the row counts and panel widths the SpMM property tests
// sweep: they straddle the unrolled kernels' column and row widths.
var spmmShapes = struct{ n, s []int }{[]int{1, 9, 64, 65}, []int{1, 3, 8, 16}}

// randMulti returns an n×s multivector of standard normal entries.
func randMulti(rng *rand.Rand, n, s int) *vec.Multi {
	x := vec.NewMulti(n, s)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// checkSpMMCols asserts that column j of the panel product equals the
// single-vector product mulVec(x_j) exactly, for every column.
func checkSpMMCols(t *testing.T, what string, got *vec.IMulti, x *vec.Multi, mulVec func([]float64) []float64) {
	t.Helper()
	col := make([]float64, got.N)
	for j := 0; j < x.S; j++ {
		want := mulVec(x.Col(j))
		got.ScatterCol(j, col)
		for i := range want {
			if col[i] != want[i] {
				t.Fatalf("%s: col %d row %d: %g != %g", what, j, i, col[i], want[i])
			}
		}
	}
}

// TestCSRMulMatMatchesMulVec is the property test: for random (rectangular)
// matrices and random multivectors, one interleaved SpMM equals s
// independent SpMVs exactly, in both kernel sets, serial and parallel.
func TestCSRMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, impl := range kernelSets() {
		for _, rows := range spmmShapes.n {
			for _, s := range spmmShapes.s {
				cols := max(1, rows+rng.Intn(5)-2)
				a := randRectCSR(rng, rows, cols, 0.2)
				x := randMulti(rng, cols, s)
				ix := x.Interleaved()
				dst := vec.NewIMulti(rows, s)
				a.MulMatITo(dst, ix, impl)
				what := fmt.Sprintf("%s CSR %d×%d s=%d", impl.Name, rows, cols, s)
				checkSpMMCols(t, what, dst, x, a.MulVec)
				par := vec.NewIMulti(rows, s)
				a.ParMulMatITo(par, ix, 4, impl)
				for i := range par.Data {
					if par.Data[i] != dst.Data[i] {
						t.Fatalf("%s: ParMulMatITo differs from MulMatITo at %d", what, i)
					}
				}
			}
		}
	}
}

// TestDIAMulMatMatchesMulVec is the same property over diagonal storage.
func TestDIAMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, impl := range kernelSets() {
		for _, n := range spmmShapes.n {
			for _, s := range spmmShapes.s {
				a := MustDIAFromCSR(randSquareCSR(rng, n, 0.15))
				x := randMulti(rng, n, s)
				ix := x.Interleaved()
				dst := vec.NewIMulti(n, s)
				a.MulMatITo(dst, ix, impl)
				what := fmt.Sprintf("%s DIA n=%d s=%d", impl.Name, n, s)
				checkSpMMCols(t, what, dst, x, a.MulVec)
				par := vec.NewIMulti(n, s)
				a.ParMulMatITo(par, ix, 4, impl)
				for i := range par.Data {
					if par.Data[i] != dst.Data[i] {
						t.Fatalf("%s: ParMulMatITo differs at %d", what, i)
					}
				}
			}
		}
	}
}

// TestParSpMMLarge crosses vec's parallel-length threshold so the chunked
// goroutine paths (not the serial fallback) are what run.
func TestParSpMMLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, s := 6000, 4
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4+rng.Float64())
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i+1 < n {
			c.Add(i, i+1, -1)
		}
	}
	a := c.ToCSR()
	x := randMulti(rng, n, s)
	ix := x.Interleaved()
	serial := vec.NewIMulti(n, s)
	a.MulMatITo(serial, ix, nil)
	par := vec.NewIMulti(n, s)
	a.ParMulMatITo(par, ix, 4, nil)
	for i := range par.Data {
		if par.Data[i] != serial.Data[i] {
			t.Fatalf("CSR ParMulMatITo (chunked) differs at %d", i)
		}
	}

	d := MustDIAFromCSR(a)
	dSerial := vec.NewIMulti(n, s)
	d.MulMatITo(dSerial, ix, nil)
	dPar := vec.NewIMulti(n, s)
	d.ParMulMatITo(dPar, ix, 4, nil)
	for i := range dPar.Data {
		if dPar.Data[i] != dSerial.Data[i] {
			t.Fatalf("DIA ParMulMatITo (chunked) differs at %d", i)
		}
	}
	v, want := make([]float64, n), make([]float64, n)
	d.ParMulVecTo(v, x.Col(0), 4)
	dSerial.ScatterCol(0, want)
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("DIA ParMulVecTo (chunked) differs at %d", i)
		}
	}
}

// TestDIAParMulVec checks the new DIA row-parallel SpMV against the serial
// kernel (bitwise, since each row's accumulation order is unchanged).
func TestDIAParMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := MustDIAFromCSR(randSquareCSR(rng, 200, 0.1))
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := a.MulVec(x)
	got := make([]float64, 200)
	a.ParMulVecTo(got, x, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DIA ParMulVecTo row %d: %g != %g", i, got[i], want[i])
		}
	}
	if math.IsNaN(vec.Norm2(got)) {
		t.Fatal("NaN in product")
	}
}
