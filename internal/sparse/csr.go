package sparse

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// CSR is a compressed-sparse-row matrix. Column indices within each row are
// strictly increasing (the invariant established by COO.ToCSR and preserved
// by every constructor in this package).
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// At returns element (i, j) by binary search within row i.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.ColIdx[mid] < j:
			lo = mid + 1
		case a.ColIdx[mid] > j:
			hi = mid
		default:
			return a.Val[mid]
		}
	}
	return 0
}

// MulVec returns A·x as a new vector.
func (a *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, a.Rows)
	a.MulVecTo(y, x)
	return y
}

// MulVecTo computes dst = A·x. dst must not alias x.
func (a *CSR) MulVecTo(dst, x []float64) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVecTo dims: A %d×%d, x %d, dst %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	for i := 0; i < a.Rows; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		dst[i] = s
	}
}

// ParMulVecTo computes dst = A·x with rows partitioned across up to
// `workers` goroutines. Each goroutine owns a contiguous row block, so the
// result is bitwise identical to the serial product. workers == 1 takes
// the serial path without allocating (the allocation-free cg.SolveInto
// contract relies on this); workers <= 0 means GOMAXPROCS.
func (a *CSR) ParMulVecTo(dst, x []float64, workers int) {
	if workers == 1 {
		a.MulVecTo(dst, x)
		return
	}
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic(fmt.Sprintf("sparse: ParMulVecTo dims: A %d×%d, x %d, dst %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	vec.ParRange(a.Rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				s += a.Val[k] * x[a.ColIdx[k]]
			}
			dst[i] = s
		}
	})
}

// Diag returns the main diagonal as a dense vector (zeros where absent).
func (a *CSR) Diag() []float64 {
	n := min(a.Rows, a.Cols)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
	}
	return d
}

// IsSymmetric reports whether A equals Aᵀ within tol relative to the largest
// entry magnitude. Requires a square matrix.
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	var maxAbs float64
	for _, v := range a.Val {
		if ab := math.Abs(v); ab > maxAbs {
			maxAbs = ab
		}
	}
	if maxAbs == 0 {
		return true
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if math.Abs(a.Val[k]-a.At(j, i)) > tol*maxAbs {
				return false
			}
		}
	}
	return true
}

// Transpose returns Aᵀ.
func (a *CSR) Transpose() *CSR {
	counts := make([]int, a.Cols+1)
	for _, j := range a.ColIdx {
		counts[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		counts[j+1] += counts[j]
	}
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: counts,
		ColIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	next := make([]int, a.Cols)
	copy(next, t.RowPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = a.Val[k]
			next[j]++
		}
	}
	return t
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	return &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int{}, a.RowPtr...),
		ColIdx: append([]int{}, a.ColIdx...),
		Val:    append([]float64{}, a.Val...),
	}
}

// SplitDLU splits a square A into its diagonal D (dense vector), strictly
// lower part L, and strictly upper part U, with A = D + L + U as stored.
// Note the paper's convention is K = D − L − U (L, U carry minus signs);
// callers that need that convention negate the returned parts.
func (a *CSR) SplitDLU() (d []float64, l, u *CSR) {
	if a.Rows != a.Cols {
		panic("sparse: SplitDLU needs a square matrix")
	}
	n := a.Rows
	d = make([]float64, n)
	lc := NewCOO(n, n)
	uc := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			switch {
			case j == i:
				d[i] = a.Val[k]
			case j < i:
				lc.Add(i, j, a.Val[k])
			default:
				uc.Add(i, j, a.Val[k])
			}
		}
	}
	return d, lc.ToCSR(), uc.ToCSR()
}

// MaxRowNNZ returns the maximum number of stored entries in any row — the
// paper's "at most 14 nonzero elements" claim is checked against this.
func (a *CSR) MaxRowNNZ() int {
	m := 0
	for i := 0; i < a.Rows; i++ {
		if n := a.RowPtr[i+1] - a.RowPtr[i]; n > m {
			m = n
		}
	}
	return m
}

// Dense returns the dense row-major expansion; intended for tests on tiny
// matrices only.
func (a *CSR) Dense() [][]float64 {
	out := make([][]float64, a.Rows)
	for i := range out {
		out[i] = make([]float64, a.Cols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			out[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return out
}

// ScaleRows multiplies row i by s[i] in place (used to form D⁻¹·A etc.).
func (a *CSR) ScaleRows(s []float64) {
	if len(s) != a.Rows {
		panic("sparse: ScaleRows length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] *= s[i]
		}
	}
}

// Identity returns the n×n identity in CSR form.
func Identity(n int) *CSR {
	a := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] = i + 1
		a.ColIdx[i] = i
		a.Val[i] = 1
	}
	return a
}
