package plan

import (
	"testing"

	"repro/internal/kernel"
)

// TestPlanInterleave pins the wide-block layout decision: interleave exactly
// when every tile clears the threshold (balanced tiling makes the last tile
// the narrowest), s = 1 never interleaves.
func TestPlanInterleave(t *testing.T) {
	const rows, width = 1000, 16
	probe := &Probe{Rows: rows, Cols: rows, NNZ: 5 * rows, MaxRowNNZ: 5, NumDiags: 5, Fill: 1}
	for _, tc := range []struct {
		name string
		s    int
		want bool
	}{
		{"scalar solve stays columnar", 1, false},
		{"narrow block under threshold", 3, false},
		{"at threshold", 4, true},
		{"full tile", 16, true},
		{"split 9+8 keeps both wide", 17, true},
	} {
		p := pinned(rows, width).Plan(Inputs{Probe: probe, RHS: tc.s})
		if p.Interleave != tc.want {
			t.Errorf("%s (s=%d): Interleave=%v want %v", tc.name, tc.s, p.Interleave, tc.want)
		}
	}
}

// TestPlanKernel pins what the plan reports as the running kernel set: the
// per-solve policy only reaches the interleaved panel path, so portable shows
// up exactly when the plan interleaves; every other path runs the startup set.
func TestPlanKernel(t *testing.T) {
	const rows, width = 1000, 16
	probe := &Probe{Rows: rows, Cols: rows, NNZ: 5 * rows, MaxRowNNZ: 5, NumDiags: 5, Fill: 1}
	active := kernel.Active().Name
	pl := pinned(rows, width)

	if p := pl.Plan(Inputs{Probe: probe, RHS: 8, Kernel: "portable"}); !p.Interleave || p.Kernel != "portable" {
		t.Errorf("wide block with portable policy: Interleave=%v Kernel=%q", p.Interleave, p.Kernel)
	}
	if p := pl.Plan(Inputs{Probe: probe, RHS: 8}); p.Kernel != active {
		t.Errorf("wide block auto policy: Kernel=%q want %q", p.Kernel, active)
	}
	// A scalar solve never takes the interleaved path, so even a portable
	// policy runs — and must report — the startup set.
	if p := pl.Plan(Inputs{Probe: probe, RHS: 1, Kernel: "portable"}); p.Interleave || p.Kernel != active {
		t.Errorf("scalar solve: Interleave=%v Kernel=%q want false/%q", p.Interleave, p.Kernel, active)
	}
	// Decomposed plans run local sweeps through the startup set.
	dc := &DecompInputs{Rows: rows, FreeNodes: rows, Requested: 4}
	if p := pl.Plan(Inputs{Probe: probe, RHS: 4, Policy: BackendDecomposed, Decomp: dc, Kernel: "portable"}); p.Kernel != active {
		t.Errorf("decomposed plan: Kernel=%q want %q", p.Kernel, active)
	}
}

// TestPlanAttrsKernel: the decision trail must carry the layout and kernel
// choices.
func TestPlanAttrsKernel(t *testing.T) {
	probe := &Probe{Rows: 1000, Cols: 1000, NNZ: 5000, MaxRowNNZ: 5, NumDiags: 5, Fill: 1}
	p := pinned(1000, 16).Plan(Inputs{Probe: probe, RHS: 8})
	a := p.Attrs()
	if a["interleave"] != true {
		t.Errorf("attrs interleave = %v", a["interleave"])
	}
	if a["kernel"] != kernel.Active().Name {
		t.Errorf("attrs kernel = %v", a["kernel"])
	}
}
