package vec

import (
	"fmt"
	"math"
)

// Multi is a column-block multivector: S dense vectors of length N stored
// in one backing slice, column j occupying Data[j*N : (j+1)*N]. It is the
// multi-right-hand-side analogue of []float64 and the container block
// solves take in and give back: every per-column view is a zero-copy
// slice, so a column can be solved on its own by the single-vector kernels
// or exported without copying. The fused multi-column work (the paper's
// long-vector argument, §3.1, carried to matrix–multivector products) runs
// on the row-interleaved IMulti panel instead.
type Multi struct {
	N, S int
	Data []float64
}

// NewMulti returns a zeroed n×s multivector.
func NewMulti(n, s int) *Multi {
	if n < 0 || s < 0 {
		panic(fmt.Sprintf("vec: NewMulti dims %d×%d", n, s))
	}
	return &Multi{N: n, S: s, Data: make([]float64, n*s)}
}

// MultiFromCols returns a multivector holding a copy of each column.
// All columns must share one length.
func MultiFromCols(cols [][]float64) *Multi {
	if len(cols) == 0 {
		return &Multi{}
	}
	n := len(cols[0])
	m := NewMulti(n, len(cols))
	for j, c := range cols {
		checkLen("MultiFromCols", len(c), n)
		copy(m.Col(j), c)
	}
	return m
}

// Col returns column j as a slice sharing the backing storage.
func (m *Multi) Col(j int) []float64 {
	return m.Data[j*m.N : (j+1)*m.N]
}

// Cols returns every column as a shared-storage slice.
func (m *Multi) Cols() [][]float64 {
	out := make([][]float64, m.S)
	for j := range out {
		out[j] = m.Col(j)
	}
	return out
}

// Prefix returns a view of the first s columns sharing the backing storage.
func (m *Multi) Prefix(s int) *Multi {
	if s < 0 || s > m.S {
		panic(fmt.Sprintf("vec: Prefix %d of %d columns", s, m.S))
	}
	return &Multi{N: m.N, S: s, Data: m.Data[:s*m.N]}
}

// SwapCols exchanges columns i and j element by element.
func (m *Multi) SwapCols(i, j int) {
	if i == j {
		return
	}
	ci, cj := m.Col(i), m.Col(j)
	for k := range ci {
		ci[k], cj[k] = cj[k], ci[k]
	}
}

// Zero sets every element to 0.
func (m *Multi) Zero() { Zero(m.Data) }

// CopyFrom copies src into m; the shapes must match.
func (m *Multi) CopyFrom(src *Multi) {
	m.checkShape("CopyFrom", src)
	copy(m.Data, src.Data)
}

// Clone returns a deep copy.
func (m *Multi) Clone() *Multi {
	return &Multi{N: m.N, S: m.S, Data: Clone(m.Data)}
}

func (m *Multi) checkShape(op string, o *Multi) {
	if m.N != o.N || m.S != o.S {
		panic(fmt.Sprintf("vec: %s shape mismatch: %d×%d vs %d×%d", op, m.N, m.S, o.N, o.S))
	}
}

// MultiMaxAbsDiff returns max_j ‖x_j − y_j‖_∞, the block form of the
// paper's convergence-test quantity.
func MultiMaxAbsDiff(x, y *Multi) float64 {
	x.checkShape("MultiMaxAbsDiff", y)
	var m float64
	for i, xi := range x.Data {
		if d := math.Abs(xi - y.Data[i]); d > m {
			m = d
		}
	}
	return m
}
