package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// The agreement tests pin the package's numerical contract: every kernel
// set produces bit-identical results on every shape, because no variant
// reassociates a per-column reduction. Dot-like kernels go through ulpEqual
// so a future genuinely-reassociating variant can relax its bound in one
// place; today the allowed distance is 0 ULPs everywhere.

// testSizes crosses the shapes that exercise every unroll remainder: below,
// at and above the 4-wide vector unroll and the 8-wide column tile.
var (
	testN = []int{1, 7, 8, 9, 63, 64, 65}
	testS = []int{1, 2, 3, 8, 16}
)

// sets returns every kernel set the host can run: the portable reference,
// the generic unrolled set, and the CPU-detected set when present.
func sets() map[string]*Impl {
	m := map[string]*Impl{
		"portable": Portable(),
		"unrolled": &unrolledImpl,
	}
	if a := Accelerated(); a != nil {
		m[a.Name] = a
	}
	return m
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// ulpEqual reports whether a and b are within dist representable float64s
// of each other (0 = bit-identical, with −0 ≡ +0).
func ulpEqual(a, b float64, dist uint64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	ia, ib := ordered(a), ordered(b)
	d := ia - ib
	if ib > ia {
		d = ib - ia
	}
	return d <= dist
}

// ordered maps a float64 onto the monotone integer line (negatives
// reflected), so ULP distance is plain integer distance.
func ordered(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func TestUlpHelper(t *testing.T) {
	if !ulpEqual(1.0, 1.0, 0) || !ulpEqual(0.0, math.Copysign(0, -1), 0) {
		t.Fatal("ulpEqual rejects equal values")
	}
	next := math.Nextafter(1.0, 2.0)
	if ulpEqual(1.0, next, 0) {
		t.Fatal("ulpEqual(…, 0) accepts a 1-ULP difference")
	}
	if !ulpEqual(1.0, next, 1) {
		t.Fatal("ulpEqual(…, 1) rejects a 1-ULP difference")
	}
	if ulpEqual(math.NaN(), math.NaN(), 64) {
		t.Fatal("ulpEqual accepts NaN")
	}
}

func TestDotAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testN {
		x, y := randSlice(rng, n), randSlice(rng, n)
		want := portableDot(x, y)
		for name, im := range sets() {
			if got := im.Dot(x, y); !ulpEqual(got, want, 0) {
				t.Errorf("%s.Dot n=%d: got %v want %v", name, n, got, want)
			}
		}
	}
}

func TestGatherDot32Agreement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testN {
		x := randSlice(rng, n)
		nnz := 3*n + 1
		val := randSlice(rng, nnz)
		idx := make([]int32, nnz)
		for k := range idx {
			idx[k] = int32(rng.Intn(n))
		}
		want := portableGatherDot32(val, idx, x)
		for name, im := range sets() {
			if got := im.GatherDot32(val, idx, x); !ulpEqual(got, want, 0) {
				t.Errorf("%s.GatherDot32 n=%d: got %v want %v", name, n, got, want)
			}
		}
	}
}

func TestAxpyXpayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testN {
		x, y0 := randSlice(rng, n), randSlice(rng, n)
		a := rng.NormFloat64()
		want := append([]float64(nil), y0...)
		portableAxpy(a, x, want)
		for name, im := range sets() {
			y := append([]float64(nil), y0...)
			im.Axpy(a, x, y)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("%s.Axpy n=%d: y[%d]=%v want %v", name, n, i, y[i], want[i])
				}
			}
		}
		want = append(want[:0:0], y0...)
		portableXpay(x, a, want)
		for name, im := range sets() {
			y := append([]float64(nil), y0...)
			im.Xpay(x, a, y)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("%s.Xpay n=%d: y[%d]=%v want %v", name, n, i, y[i], want[i])
				}
			}
		}
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testN {
		for _, s := range testS {
			for _, st := range []int{s, s + 3} {
				src := randSlice(rng, n*s)
				for name, im := range sets() {
					panel := make([]float64, n*st)
					im.Interleave(panel, st, src, n, s)
					for i := 0; i < n; i++ {
						for j := 0; j < s; j++ {
							if panel[i*st+j] != src[j*n+i] {
								t.Fatalf("%s.Interleave n=%d s=%d st=%d: (%d,%d) mismatch", name, n, s, st, i, j)
							}
						}
					}
					back := make([]float64, n*s)
					im.Deinterleave(back, n, s, panel, st)
					for i := range back {
						if back[i] != src[i] {
							t.Fatalf("%s round trip n=%d s=%d st=%d: flat %d mismatch", name, n, s, st, i)
						}
					}
				}
			}
		}
	}
}

func TestPanelKernelsAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range testN {
		for _, s := range testS {
			for _, st := range []int{s, s + 3} {
				x, y0 := randSlice(rng, n*st), randSlice(rng, n*st)
				as := randSlice(rng, s)

				want := make([]float64, s)
				portableDotI(x, y0, st, n, s, want)
				got := make([]float64, s)
				for name, im := range sets() {
					im.DotI(x, y0, st, n, s, got)
					for j := 0; j < s; j++ {
						if !ulpEqual(got[j], want[j], 0) {
							t.Fatalf("%s.DotI n=%d s=%d st=%d col %d: got %v want %v", name, n, s, st, j, got[j], want[j])
						}
					}
				}

				portableNorm := make([]float64, s)
				norm2I(x, st, n, s, portableNorm)
				normInfI(x, st, n, s, got)
				for j := 0; j < s; j++ {
					// the interleaved norms must match vec's scalar
					// recurrences on the gathered column
					col := make([]float64, n)
					for i := 0; i < n; i++ {
						col[i] = x[i*st+j]
					}
					var scale, ssq = 0.0, 1.0
					var inf float64
					for _, v := range col {
						if a := math.Abs(v); a > inf {
							inf = a
						}
						if v == 0 {
							continue
						}
						a := math.Abs(v)
						if scale < a {
							r := scale / a
							ssq = 1 + ssq*r*r
							scale = a
						} else {
							r := a / scale
							ssq += r * r
						}
					}
					if w := scale * math.Sqrt(ssq); portableNorm[j] != w {
						t.Fatalf("Norm2I n=%d s=%d st=%d col %d: got %v want %v", n, s, st, j, portableNorm[j], w)
					}
					if got[j] != inf {
						t.Fatalf("NormInfI n=%d s=%d st=%d col %d: got %v want %v", n, s, st, j, got[j], inf)
					}
				}

				wantY := append([]float64(nil), y0...)
				portableAxpyI(as, x, wantY, st, n, s)
				for name, im := range sets() {
					y := append([]float64(nil), y0...)
					im.AxpyI(as, x, y, st, n, s)
					for i := range y {
						if y[i] != wantY[i] {
							t.Fatalf("%s.AxpyI n=%d s=%d st=%d: flat %d mismatch", name, n, s, st, i)
						}
					}
				}
				wantY = append(wantY[:0:0], y0...)
				portableXpayI(x, as, wantY, st, n, s)
				for name, im := range sets() {
					y := append([]float64(nil), y0...)
					im.XpayI(x, as, y, st, n, s)
					for i := range y {
						if y[i] != wantY[i] {
							t.Fatalf("%s.XpayI n=%d s=%d st=%d: flat %d mismatch", name, n, s, st, i)
						}
					}
				}
			}
		}
	}
}

// randCSR builds a random n×n pattern with sorted columns, ~nnzPerRow
// entries per row, and a guaranteed diagonal entry (so the sweep can divide
// by it).
func randCSR(rng *rand.Rand, n, nnzPerRow int) (rowptr, colidx []int, val []float64) {
	rowptr = make([]int, n+1)
	for i := 0; i < n; i++ {
		cols := map[int]bool{i: true}
		for k := 0; k < nnzPerRow; k++ {
			cols[rng.Intn(n)] = true
		}
		sorted := make([]int, 0, len(cols))
		for c := range cols {
			sorted = append(sorted, c)
		}
		for a := 1; a < len(sorted); a++ {
			for b := a; b > 0 && sorted[b] < sorted[b-1]; b-- {
				sorted[b], sorted[b-1] = sorted[b-1], sorted[b]
			}
		}
		for _, c := range sorted {
			colidx = append(colidx, c)
			v := rng.NormFloat64()
			if c == i {
				v = 4 + math.Abs(v) // dominant positive diagonal
			}
			val = append(val, v)
		}
		rowptr[i+1] = len(colidx)
	}
	return rowptr, colidx, val
}

// refSpMMCols is the single-vector reference for the SpMM kernels: each
// column of a column-contiguous block (column j at xcols[j*n:(j+1)*n]) is
// multiplied the way CSR.MulVecTo does it, one left-to-right sum per row.
func refSpMMCols(rowptr, colidx []int, val, xcols []float64, n, s int) []float64 {
	ref := make([]float64, n*s)
	for j := 0; j < s; j++ {
		x := xcols[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			var sum float64
			for k := rowptr[i]; k < rowptr[i+1]; k++ {
				sum += val[k] * x[colidx[k]]
			}
			ref[j*n+i] = sum
		}
	}
	return ref
}

// refSweepCols is the single-vector reference for the sweep kernels: the
// scalar Conrad–Wallach m-step sweep of splitting.SixColorSSOR.ApplyMStep,
// block sums accumulated as Σ then negated, run on each column of a
// column-contiguous block in turn.
func refSweepCols(a *SweepArgs, rcols []float64, n, s int) []float64 {
	out := make([]float64, n*s)
	y := make([]float64, n)
	m, ng := len(a.Alphas), len(a.Start)-1
	for j := 0; j < s; j++ {
		rhat, r := out[j*n:(j+1)*n], rcols[j*n:(j+1)*n]
		clear(y)
		for step := 1; step <= m; step++ {
			alpha := a.Alphas[m-step]
			for c := 0; c < ng; c++ {
				lo, hi := a.Start[c], a.Start[c+1]
				for i := lo; i < hi; i++ {
					var sum float64
					for p := a.RowPtr[i]; p < a.RowPtr[i+1] && a.ColIdx[p] < lo; p++ {
						sum += a.Val[p] * rhat[a.ColIdx[p]]
					}
					rhat[i] = (-sum + y[i] + alpha*r[i]) / a.Diag[i]
					if c < ng-1 {
						y[i] = -sum
					}
				}
			}
			for c := ng - 2; c >= 0; c-- {
				lo, hi := a.Start[c], a.Start[c+1]
				for i := lo; i < hi; i++ {
					var sum float64
					for p := a.RowPtr[i+1] - 1; p >= a.RowPtr[i] && a.ColIdx[p] >= hi; p-- {
						sum += a.Val[p] * rhat[a.ColIdx[p]]
					}
					if c > 0 || step == m {
						rhat[i] = (-sum + y[i] + alpha*r[i]) / a.Diag[i]
					}
					y[i] = -sum
				}
			}
		}
	}
	return out
}

func TestSpMMCSRIAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range testN {
		rowptr, colidx, val := randCSR(rng, n, 4)
		for _, s := range testS {
			for _, st := range []int{s, s + 3} {
				xcols := randSlice(rng, n*s) // column-contiguous reference input
				x := make([]float64, n*st)
				portableInterleave(x, st, xcols, n, s)

				ref := refSpMMCols(rowptr, colidx, val, xcols, n, s)

				for name, im := range sets() {
					dst := make([]float64, n*st)
					im.SpMMCSRI(rowptr, colidx, val, x, st, dst, st, 0, n, s)
					for i := 0; i < n; i++ {
						for j := 0; j < s; j++ {
							if got, want := dst[i*st+j], ref[j*n+i]; !ulpEqual(got, want, 0) {
								t.Fatalf("%s.SpMMCSRI n=%d s=%d st=%d (%d,%d): got %v want %v", name, n, s, st, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestSpMMDIAIAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range testN {
		offsets := []int{-3, -1, 0, 1, 3}
		if n < 4 {
			offsets = []int{0}
		}
		diags := make([][]float64, len(offsets))
		for k := range diags {
			diags[k] = randSlice(rng, n)
		}
		for _, s := range testS {
			for _, st := range []int{s, s + 3} {
				x := randSlice(rng, n*st)
				want := make([]float64, n*st)
				portableSpMMDIAI(offsets, diags, n, x, st, want, st, 0, n, s)
				for name, im := range sets() {
					dst := make([]float64, n*st)
					im.SpMMDIAI(offsets, diags, n, x, st, dst, st, 0, n, s)
					for i := range dst {
						if dst[i] != want[i] {
							t.Fatalf("%s.SpMMDIAI n=%d s=%d st=%d: flat %d got %v want %v", name, n, s, st, i, dst[i], want[i])
						}
					}
				}
			}
		}
	}
}

// sweepStarts partitions [0, n) into ng contiguous groups.
func sweepStarts(n, ng int) []int {
	if ng > n {
		ng = n
	}
	start := make([]int, ng+1)
	for c := 0; c <= ng; c++ {
		start[c] = c * n / ng
	}
	return start
}

func TestSweepCSRIAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range testN {
		rowptr, colidx, val := randCSR(rng, n, 3)
		diag := make([]float64, n)
		for i := 0; i < n; i++ {
			for k := rowptr[i]; k < rowptr[i+1]; k++ {
				if colidx[k] == i {
					diag[i] = val[k]
				}
			}
		}
		for _, m := range []int{1, 3} {
			alphas := randSlice(rng, m)
			args := &SweepArgs{RowPtr: rowptr, ColIdx: colidx, Val: val,
				Start: sweepStarts(n, 6), Diag: diag, Alphas: alphas}
			for _, s := range testS {
				for _, st := range []int{s, s + 3} {
					rcols := randSlice(rng, n*s)
					r := make([]float64, n*st)
					portableInterleave(r, st, rcols, n, s)

					refRhat := refSweepCols(args, rcols, n, s)

					for name, im := range sets() {
						rhat := make([]float64, n*st)
						y := make([]float64, n*st)
						im.SweepCSRI(args, rhat, r, y, st, n, s)
						for i := 0; i < n; i++ {
							for j := 0; j < s; j++ {
								if got, want := rhat[i*st+j], refRhat[j*n+i]; got != want {
									t.Fatalf("%s.SweepCSRI n=%d m=%d s=%d st=%d (%d,%d): got %v want %v", name, n, m, s, st, i, j, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDispatchAllocFree guards the steady-state zero-allocation property of
// every dispatch entry in every set, plus the layout conversions.
func TestDispatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, s, st := 64, 8, 8
	x, y := randSlice(rng, n*st), randSlice(rng, n*st)
	cols := randSlice(rng, n*s)
	as := randSlice(rng, s)
	dst := make([]float64, s)
	rowptr, colidx, val := randCSR(rng, n, 4)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 4
	}
	args := &SweepArgs{RowPtr: rowptr, ColIdx: colidx, Val: val,
		Start: sweepStarts(n, 6), Diag: diag, Alphas: []float64{1, 1}}
	idx := make([]int32, n)
	for k := range idx {
		idx[k] = int32(k)
	}
	offsets := []int{-1, 0, 1}
	diags := [][]float64{randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)}
	spmmY := make([]float64, n*st)
	sweepY := make([]float64, n*st)

	var sink float64
	for name, im := range sets() {
		checks := map[string]func(){
			"Dot":          func() { sink += im.Dot(x[:n], y[:n]) },
			"Axpy":         func() { im.Axpy(2, x[:n], y[:n]) },
			"Xpay":         func() { im.Xpay(x[:n], 2, y[:n]) },
			"GatherDot32":  func() { sink += im.GatherDot32(val[:n], idx, x[:n]) },
			"Interleave":   func() { im.Interleave(y, st, cols, n, s) },
			"Deinterleave": func() { im.Deinterleave(cols, n, s, y, st) },
			"DotI":         func() { im.DotI(x, y, st, n, s, dst) },
			"AxpyI":        func() { im.AxpyI(as, x, y, st, n, s) },
			"XpayI":        func() { im.XpayI(x, as, y, st, n, s) },
			"Norm2I":       func() { im.Norm2I(x, st, n, s, dst) },
			"NormInfI":     func() { im.NormInfI(x, st, n, s, dst) },
			"SpMMCSRI":     func() { im.SpMMCSRI(rowptr, colidx, val, x, st, spmmY, st, 0, n, s) },
			"SpMMDIAI":     func() { im.SpMMDIAI(offsets, diags, n, x, st, spmmY, st, 0, n, s) },
			"SweepCSRI":    func() { im.SweepCSRI(args, spmmY, x, sweepY, st, n, s) },
		}
		for entry, fn := range checks {
			if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
				t.Errorf("%s.%s allocates %.1f per run", name, entry, allocs)
			}
		}
	}
	_ = sink
}

func TestSelectAndValidName(t *testing.T) {
	for _, name := range []string{"", "auto", "portable"} {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false", name)
		}
	}
	for _, name := range []string{"avx512", "simd", "fast"} {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true", name)
		}
	}
	if Select("portable") != Portable() {
		t.Error("Select(portable) is not the portable set")
	}
	if Select("") != Active() || Select("auto") != Active() {
		t.Error("Select(auto) is not the active set")
	}
	if a := Accelerated(); a != nil && a.Name == "portable" {
		t.Error("accelerated set must not be named portable")
	}
	if Active() != Portable() && Active() != Accelerated() {
		t.Error("active set is neither portable nor accelerated")
	}
}

// FuzzSpMMCSRI cross-checks the interleaved SpMM kernels against the
// per-column row sums of CSR.MulVecTo on random CSR patterns.
func FuzzSpMMCSRI(f *testing.F) {
	f.Add(int64(1), 8, 8, 3)
	f.Add(int64(2), 1, 1, 0)
	f.Add(int64(3), 65, 16, 5)
	f.Add(int64(4), 9, 3, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, s, fill int) {
		if n < 1 || n > 128 || s < 1 || s > 24 || fill < 0 || fill > 16 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		rowptr, colidx, val := randCSR(rng, n, fill)
		st := s + rng.Intn(3)
		xcols := randSlice(rng, n*s)
		x := make([]float64, n*st)
		portableInterleave(x, st, xcols, n, s)
		ref := refSpMMCols(rowptr, colidx, val, xcols, n, s)
		for name, im := range sets() {
			dst := make([]float64, n*st)
			im.SpMMCSRI(rowptr, colidx, val, x, st, dst, st, 0, n, s)
			for i := 0; i < n; i++ {
				for j := 0; j < s; j++ {
					if got, want := dst[i*st+j], ref[j*n+i]; !ulpEqual(got, want, 0) {
						t.Fatalf("%s n=%d s=%d st=%d (%d,%d): got %v want %v", name, n, s, st, i, j, got, want)
					}
				}
			}
		}
	})
}
