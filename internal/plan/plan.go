// Package plan turns one solve's shape — matrix structure, batch width,
// worker and cache budgets — into an explicit execution Plan. It is the
// single place the per-request decisions the service and core used to make
// inline (matvec backend, kernel fan-out, batch tiling) are taken, the
// software analogue of the paper's central argument: match the algorithm's
// layout to the machine before running it, not while running it.
//
// The package sits below internal/core: it sees only the sparse matrix
// structure (via Probe) and budgets, never the solver configuration types.
// core re-exports the Backend enum as a type alias, so existing callers of
// core.Backend are unaffected by the move.
package plan

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sparse"
)

// Backend selects the matrix storage the CG matvec path runs on. The
// preconditioner always keeps the CSR form (the SSOR sweeps need row
// structure); the backend only decides how K itself is applied.
type Backend int

const (
	// BackendAuto (the zero value) probes the matrix structure and picks
	// the backend itself; see Probe.Choose.
	BackendAuto Backend = iota
	// BackendCSR forces compressed-sparse-row storage.
	BackendCSR
	// BackendDIA forces diagonal (Madsen–Rodrigue–Karush) storage, the
	// paper's CYBER 203/205 layout. Requires a square matrix.
	BackendDIA
	// BackendDecomposed runs the solve on the domain-decomposed parallel
	// path — the paper's Finite Element Machine for real: the mesh is
	// partitioned into subdomains, each owned by a dedicated goroutine
	// processor with halo exchange and tree-reduced inner products.
	// Requires a mesh-backed (plate) problem.
	BackendDecomposed
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendCSR:
		return "csr"
	case BackendDIA:
		return "dia"
	case BackendDecomposed:
		return "decomposed"
	}
	return "?"
}

// ParseBackend resolves a backend name ("", "auto", "csr", "dia",
// "decomposed"); the empty string means Auto.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "csr":
		return BackendCSR, nil
	case "dia":
		return BackendDIA, nil
	case "decomposed":
		return BackendDecomposed, nil
	}
	return 0, fmt.Errorf("plan: unknown backend %q (want auto, csr, dia or decomposed)", name)
}

// Auto-selection thresholds. Diagonal storage performs numDiags·n
// multiply-adds where CSR performs NNZ, so its padding overhead is the
// reciprocal of the DIA fill ratio NNZ/(numDiags·n); in exchange every
// operand is a long contiguous diagonal — the regular access pattern the
// paper's CYBER layout is built on. DIA pays off when the matrix occupies
// a bounded, size-independent family of diagonals (banded multicolor
// systems, eq. 3.2 of the paper: the 6-color plate stays at ~47 diagonals
// at every size, simple 5-point stencils at 5), and loses badly on
// scattered fill, where the diagonal count grows with n and the fill
// ratio collapses.
const (
	// autoMaxDiags bounds the stored-diagonal count Auto accepts: above
	// it, even a moderate fill ratio means streaming many mostly-padding
	// vectors.
	autoMaxDiags = 128
	// autoMinFill is the lowest DIA fill ratio Auto accepts — at most
	// 1/autoMinFill padded flops per CSR flop. The colored plate sits
	// near 0.25, dense-diagonal stencils near 1, scattered fill near 0.
	autoMinFill = 1.0 / 6
)

// Probe is the structure scan of one matrix: everything the planner needs
// to know about K, decoupled from the matrix itself so cache layers can
// memoize it (the matrix is immutable per cache entry, so the O(nnz)
// pattern scan runs once, not once per request).
type Probe struct {
	// Rows, Cols are the matrix dimensions.
	Rows, Cols int
	// NNZ is the stored-entry count.
	NNZ int
	// MaxRowNNZ is the widest row (a lower bound on the diagonal count).
	MaxRowNNZ int
	// NumDiags is the number of occupied diagonals.
	NumDiags int
	// Fill is the DIA fill ratio NNZ/(NumDiags·Rows), 0 when NumDiags is 0.
	Fill float64
}

// NewProbe scans k's structure. One pass over the pattern (O(nnz)); callers
// that solve the same matrix repeatedly should keep the result.
func NewProbe(k *sparse.CSR) Probe {
	p := Probe{Rows: k.Rows, Cols: k.Cols, NNZ: k.NNZ(), MaxRowNNZ: k.MaxRowNNZ()}
	if p.Rows == p.Cols && p.NNZ > 0 {
		nd, _ := k.DiagStats()
		p.NumDiags = nd
		if nd > 0 {
			p.Fill = float64(p.NNZ) / (float64(nd) * float64(p.Rows))
		}
	}
	return p
}

// Choose resolves a backend policy against the probed structure: CSR and
// DIA pass through, and Auto picks DIA exactly when diagonal storage is in
// the banded regime it wins in — few distinct diagonals and a bounded
// padding overhead — and CSR otherwise.
func (p Probe) Choose(policy Backend) Backend {
	switch policy {
	case BackendCSR, BackendDIA:
		return policy
	}
	if p.Rows != p.Cols || p.NNZ == 0 {
		return BackendCSR
	}
	// Every row's entries sit on distinct diagonals, so MaxRowNNZ lower-
	// bounds the diagonal count — a cheap early out.
	if p.MaxRowNNZ > autoMaxDiags {
		return BackendCSR
	}
	if p.NumDiags == 0 || p.NumDiags > autoMaxDiags {
		return BackendCSR
	}
	if p.Fill < autoMinFill {
		return BackendCSR
	}
	return BackendDIA
}

// Planner defaults. The tile budget bounds the block solve's per-iteration
// multivector working set (the four CG scratch blocks plus the iterate and
// right-hand side — six n-vectors per column at 8 bytes each); sequential
// tiles each re-stream the matrix, so the budget trades matrix-traversal
// amortization against multivector cache residency.
const (
	// DefaultBudgetBytes is the default tile cache budget: a conservative
	// share of a contemporary L3 slice.
	DefaultBudgetBytes = 8 << 20
	// DefaultMaxTile caps a tile's width even when the budget would allow
	// more — beyond it the SpMM row-scan fusion has already amortized the
	// matrix traversal and wider tiles only grow the working set.
	DefaultMaxTile = 32
	// DefaultMinTile keeps tiles from dropping below the SpMM fusion
	// width: a narrower tile wastes the block machinery, so huge systems
	// run 8-wide tiles and eat the cache misses.
	DefaultMinTile = 8
	// bytesPerColumn is the block solve's resident vectors per batch
	// column: r, r̂, p, Kp scratch plus u and f, 8 bytes per element.
	bytesPerColumn = 6 * 8

	// interleaveMinWidth is the tile width from which the block solve runs
	// on the row-interleaved panel layout: wide tiles convert at the tile
	// boundary so each gathered matrix row feeds every column from one
	// cache line, while narrower tiles (s = 1 scalar solves above all) run
	// their columns one by one through the scalar recurrence, which
	// measures at least as fast as panels below this width.
	interleaveMinWidth = 4

	// DefaultDecompMinBytes is the single-matrix footprint (CSR values +
	// column indices + the solve's n-vectors) above which Auto prefers the
	// decomposed backend for mesh-backed problems. Seeded from the
	// vectorsim cost model's crossover: once K alone overflows the tile
	// cache budget several times over (6× DefaultBudgetBytes), every CG
	// iteration streams the whole matrix from memory, while P subdomains
	// of footprint/P each can stay cache-resident and the halo traffic
	// they add is a surface term (O(√(n/P)) per subdomain per iteration)
	// against the volume term they save.
	DefaultDecompMinBytes = 48 << 20
	// bytesPerNNZ approximates a CSR entry's footprint: an 8-byte value
	// plus a column index.
	bytesPerNNZ = 16
)

// Planner turns solve inputs into execution plans. The zero value uses the
// defaults above; it is pure (no internal state), so equal Inputs always
// produce equal Plans — a cache hit re-planning a warm request decides
// exactly what the cold request decided.
type Planner struct {
	// BudgetBytes bounds the multivector working set of one tile
	// (default DefaultBudgetBytes).
	BudgetBytes int
	// MaxTile caps columns per tile (default DefaultMaxTile).
	MaxTile int
	// MinTile floors the tile width for huge systems (default
	// DefaultMinTile).
	MinTile int
	// DecompMinBytes is the matrix footprint above which Auto switches a
	// mesh-backed problem to the decomposed backend (default
	// DefaultDecompMinBytes).
	DecompMinBytes int
}

// DecompInputs describes the mesh behind a solve — present only when the
// problem is mesh-backed (a plate), which is what the decomposed backend
// needs to partition. Nil Decomp means the backend is unavailable.
type DecompInputs struct {
	// Rows is the mesh's node-row count (row-strip partitions need
	// Rows ≥ P).
	Rows int
	// FreeNodes is the number of unconstrained nodes (each processor must
	// own at least one).
	FreeNodes int
	// Requested pins the subdomain count (0 = planner's choice).
	Requested int
	// MaxProcs bounds the subdomain count (the session's worker budget).
	MaxProcs int
}

// Inputs describes one solve to the planner.
type Inputs struct {
	// K is the assembled matrix; probed when Probe is nil. Callers with a
	// memoized Probe (the service cache) may leave K nil.
	K *sparse.CSR
	// Probe, when non-nil, is the memoized structure scan of K.
	Probe *Probe
	// Policy is the requested backend (Auto probes the structure).
	Policy Backend
	// RHS is the batch width s (right-hand sides solved together).
	RHS int
	// M is the preconditioner step count (recorded in the plan).
	M int
	// Workers is the kernel goroutine budget available to the solve.
	Workers int
	// Kernel is the kernel-set policy for the solve: "" or "auto" for the
	// startup-selected set, "portable" to force the reference set
	// (kernel.Select resolves it).
	Kernel string
	// Decomp, when non-nil, describes the mesh behind the problem and
	// enables the decomposed backend (Auto considers it; forcing
	// BackendDecomposed without it plans a single subdomain and fails
	// downstream where the mesh is truly required).
	Decomp *DecompInputs
}

// Plan is the resolved execution decision for one solve: which storage the
// matvec path runs on, how the batch is split into column tiles, the kernel
// fan-out each tile runs with, and the preconditioner step count.
type Plan struct {
	// Backend is the resolved matvec storage (never Auto).
	Backend Backend
	// Tiles partitions the RHS column indices 0..s-1 into contiguous
	// groups executed as sequential block solves. Always at least one
	// tile; a batch at or under the tile width is a single tile.
	Tiles [][]int
	// Workers is the kernel goroutine fan-out per tile (≥ 1; 1 when the
	// system is too small for the parallel kernels to engage).
	Workers int
	// M is the preconditioner step count the solve runs with.
	M int
	// Subdomains is the processor count of a decomposed plan (0 for the
	// single-matrix backends): the mesh is partitioned this many ways and
	// each subdomain gets a dedicated goroutine.
	Subdomains int
	// Interleave reports that the tiles are planned onto the
	// row-interleaved panel layout: every tile is at least four columns
	// wide. The block solve honors it when the preconditioner can serve
	// panels too. False on a multi-column tile means the tile runs column
	// by column through the scalar recurrence.
	Interleave bool
	// Kernel names the kernel set the solve's fused loops run through
	// ("portable", "avx2", "neon") — the resolved form of Inputs.Kernel.
	Kernel string
}

// TileWidths reports the size of each tile (a compact summary for logs and
// stats).
func (p Plan) TileWidths() []int {
	w := make([]int, len(p.Tiles))
	for i, t := range p.Tiles {
		w[i] = len(t)
	}
	return w
}

// Attrs flattens the plan into span attributes: the evidence trail a job
// trace records about the planner's decision, so offline analysis (and the
// future self-tuning planner) can correlate every decision with the
// measured outcome it produced.
func (p Plan) Attrs() map[string]any {
	a := map[string]any{
		"backend":     p.Backend.String(),
		"tiles":       len(p.Tiles),
		"tile_widths": p.TileWidths(),
		"workers":     p.Workers,
		"m":           p.M,
		"kernel":      p.Kernel,
		"interleave":  p.Interleave,
	}
	if p.Subdomains > 0 {
		a["subdomains"] = p.Subdomains
	}
	return a
}

// Attrs flattens the probe into span attributes — the structural evidence
// the planner decided from.
func (p Probe) Attrs() map[string]any {
	return map[string]any{
		"rows":        p.Rows,
		"nnz":         p.NNZ,
		"max_row_nnz": p.MaxRowNNZ,
		"num_diags":   p.NumDiags,
		"fill":        p.Fill,
	}
}

// minParallelRows mirrors vec's serial-fallback threshold: below it the
// parallel kernels run serially regardless of budget, so the plan records
// an effective fan-out of 1.
const minParallelRows = 4096

// Plan resolves in into an execution plan. It never fails: missing probes
// are computed from K, and a nil K with a forced policy plans structure-
// blind (tiling then assumes nothing about n and uses MaxTile).
func (pl Planner) Plan(in Inputs) Plan {
	budget := pl.BudgetBytes
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	maxTile := pl.MaxTile
	if maxTile <= 0 {
		maxTile = DefaultMaxTile
	}
	minTile := pl.MinTile
	if minTile <= 0 {
		minTile = DefaultMinTile
	}
	if minTile > maxTile {
		minTile = maxTile
	}

	probe := in.Probe
	if probe == nil && in.K != nil {
		p := NewProbe(in.K)
		probe = &p
	}

	var backend Backend
	switch {
	case in.Policy != BackendAuto:
		backend = in.Policy
	case probe != nil:
		backend = probe.Choose(BackendAuto)
		if in.Decomp != nil && pl.decompWins(probe, in.Decomp) {
			backend = BackendDecomposed
		}
	default:
		backend = BackendCSR
	}

	subdomains := 0
	if backend == BackendDecomposed {
		subdomains = subdomainCount(in.Decomp)
	}

	rows := 0
	if probe != nil {
		rows = probe.Rows
	}

	s := in.RHS
	if s < 1 {
		s = 1
	}

	// Tile width: how many columns of six resident n-vectors fit the
	// budget, clamped to [minTile, maxTile]. Unknown n plans optimistically
	// at maxTile.
	width := maxTile
	if rows > 0 {
		width = budget / (rows * bytesPerColumn)
		if width > maxTile {
			width = maxTile
		}
		if width < minTile {
			width = minTile
		}
	}

	workers := in.Workers
	if workers < 1 {
		workers = 1
	}
	if rows > 0 && rows < minParallelRows {
		// The vec kernels fall back to serial below this size; record the
		// fan-out the solve will actually use.
		workers = 1
	}

	if backend == BackendDecomposed {
		// The subdomain goroutines are the parallelism: kernel fan-out per
		// case is 1 and the batch runs as one untiled case sequence (each
		// case occupies all P processors). Local sweeps dispatch through the
		// startup-selected kernel set.
		return Plan{
			Backend:    backend,
			Tiles:      tile(s, s),
			Workers:    1,
			M:          in.M,
			Subdomains: subdomains,
			Kernel:     kernel.Active().Name,
		}
	}

	tiles := tile(s, width)
	// Balanced tiling keeps widths within one of each other, so the last
	// tile is the narrowest; interleave only when every tile clears the
	// threshold (s = 1 scalar solves never do).
	interleave := len(tiles[len(tiles)-1]) >= interleaveMinWidth

	// Only the interleaved panel path threads a per-solve kernel policy;
	// every other path dispatches through the process-wide startup set
	// (kernel.Active), so the plan records the set that will actually run.
	kernelName := kernel.Active().Name
	if interleave {
		kernelName = kernel.Select(in.Kernel).Name
	}

	return Plan{
		Backend:    backend,
		Tiles:      tiles,
		Workers:    workers,
		M:          in.M,
		Interleave: interleave,
		Kernel:     kernelName,
	}
}

// decompWins is Auto's rule for preferring the decomposed backend: the
// single-matrix solve's footprint (CSR entries plus the six resident
// n-vectors) exceeds the decomposition threshold and the mesh actually
// yields at least two subdomains.
func (pl Planner) decompWins(probe *Probe, dc *DecompInputs) bool {
	minBytes := pl.DecompMinBytes
	if minBytes <= 0 {
		minBytes = DefaultDecompMinBytes
	}
	footprint := probe.NNZ*bytesPerNNZ + probe.Rows*bytesPerColumn
	return footprint > minBytes && subdomainCount(dc) >= 2
}

// subdomainCount resolves a decomposed plan's processor count: the
// requested pin, else the session's worker budget, clamped to what the
// mesh can feed (row strips need a node row per processor, and every
// processor must own a free node).
func subdomainCount(dc *DecompInputs) int {
	if dc == nil {
		return 1
	}
	p := dc.Requested
	if p <= 0 {
		p = dc.MaxProcs
	}
	if dc.Rows > 0 && p > dc.Rows {
		p = dc.Rows
	}
	if dc.FreeNodes > 0 && p > dc.FreeNodes {
		p = dc.FreeNodes
	}
	if p < 1 {
		p = 1
	}
	return p
}

// tile partitions 0..s-1 into ⌈s/width⌉ contiguous, balanced groups (sizes
// differ by at most one — splitting 33 columns 32+1 would run the last tile
// as a degenerate near-scalar solve; 17+16 keeps both tiles block-shaped).
func tile(s, width int) [][]int {
	if width < 1 {
		width = 1
	}
	nt := (s + width - 1) / width
	tiles := make([][]int, nt)
	base, rem := s/nt, s%nt
	next := 0
	for i := range tiles {
		size := base
		if i < rem {
			size++
		}
		t := make([]int, size)
		for j := range t {
			t[j] = next
			next++
		}
		tiles[i] = t
	}
	return tiles
}
