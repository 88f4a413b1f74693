package vec

import (
	"math/rand"
	"testing"
)

func randMulti(rng *rand.Rand, n, s int) *Multi {
	m := NewMulti(n, s)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMultiColsShareStorage(t *testing.T) {
	m := NewMulti(4, 3)
	m.Col(1)[2] = 7
	if m.Data[1*4+2] != 7 {
		t.Fatalf("Col(1) does not alias backing storage")
	}
	cols := m.Cols()
	cols[2][0] = 3
	if m.Col(2)[0] != 3 {
		t.Fatalf("Cols() does not alias backing storage")
	}
}

func TestMultiFromCols(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	m := MultiFromCols([][]float64{a, b})
	if m.N != 3 || m.S != 2 {
		t.Fatalf("shape %d×%d, want 3×2", m.N, m.S)
	}
	a[0] = 99 // copies, not views
	if m.Col(0)[0] != 1 {
		t.Fatalf("MultiFromCols must copy")
	}
}

func TestMultiPrefixAndSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMulti(rng, 5, 4)
	col1 := Clone(m.Col(1))
	col3 := Clone(m.Col(3))
	m.SwapCols(1, 3)
	for i := range col1 {
		if m.Col(3)[i] != col1[i] || m.Col(1)[i] != col3[i] {
			t.Fatalf("SwapCols mismatch at %d", i)
		}
	}
	p := m.Prefix(2)
	if p.S != 2 || p.N != 5 {
		t.Fatalf("Prefix shape %d×%d", p.N, p.S)
	}
	p.Col(1)[0] = 42
	if m.Col(1)[0] != 42 {
		t.Fatalf("Prefix must share storage")
	}
}

func TestMultiMaxAbsDiff(t *testing.T) {
	x := MultiFromCols([][]float64{{1, 2}, {3, 4}})
	y := MultiFromCols([][]float64{{1, 2.5}, {3, 4}})
	if d := MultiMaxAbsDiff(x, y); d != 0.5 {
		t.Fatalf("MultiMaxAbsDiff = %g, want 0.5", d)
	}
}

func TestMultiShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected shape-mismatch panic")
		}
	}()
	NewMulti(3, 2).CopyFrom(NewMulti(3, 3))
}
