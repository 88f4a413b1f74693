package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// streamDump renders a workload's problems and the first n requests of its
// stream.
func streamDump(t *testing.T, name string, seed uint64, n int) string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	st := w.stream()
	var items []item
	for range n {
		items = append(items, st.next())
	}
	b, err := json.Marshal(map[string]any{"warm": w.Warm, "canonical": w.Canonical, "items": items})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSeedGivesIdenticalRequestStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := streamDump(t, name, 7, 400), streamDump(t, name, 7, 400)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if a == streamDump(t, name, 8, 400) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestCanonicalProblemIgnoresSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(name, 1)
		b, _ := newWorkload(name, 2)
		if !reflect.DeepEqual(a.Canonical, b.Canonical) {
			t.Errorf("%s: canonical problem depends on the seed", name)
		}
	}
}

// TestSeedKeepsWarmWorkFixed checks that the seed changes only the order of
// warm work, never its amount: the warm sets of two seeds hold the same
// plates and the same load cases.
func TestSeedKeepsWarmWorkFixed(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(name, 1)
		b, _ := newWorkload(name, 2)
		if len(a.Warm) != len(b.Warm) {
			t.Fatalf("%s: warm sets of %d and %d problems", name, len(a.Warm), len(b.Warm))
		}
		for i := range a.Warm {
			pa, pb := *a.Warm[i].Plate, *b.Warm[i].Plate
			ta, tb := slices.Sorted(slices.Values(pa.Tractions)), slices.Sorted(slices.Values(pb.Tractions))
			pa.Tractions, pb.Tractions = nil, nil
			if !reflect.DeepEqual(pa, pb) || !slices.Equal(ta, tb) {
				t.Errorf("%s: warm problem %d differs between seeds: %+v %v vs %+v %v", name, i, pa, ta, pb, tb)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end metric named for it to move", m.Name)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", wl, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, m)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %g, want 3", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 = %g, want 4.6", q)
	}
}

// TestLadderOrder checks the ladder's layers nest on one problem: a
// matrix-vector product is cheaper than a CG iteration, the iterations
// cheaper than a warm engine job, and the job cheaper than the same job
// over HTTP. It also checks the fleet rung's cache affinity: every request
// through the router is served by the problem's ring owner.
func TestLadderOrder(t *testing.T) {
	w, err := newWorkload("plate-serve", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Warm = w.Warm[:1]
	w.Warm[0].Plate.Rows, w.Warm[0].Plate.Cols = 14, 14
	w.Canonical = w.Warm[0]
	chk, err := newChecker(w)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := setUp(w, chk)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	lr, err := runLadder(e, w, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	v := lr.vals
	chain := []struct {
		name string
		us   float64
	}{
		{"kernel.spmv_us", v["kernel.spmv_us"]},
		{"cg.iter_us", v["cg.iter_us"]},
		{"engine.warm_job_ms", v["engine.warm_job_ms"] * 1e3},
		{"http p50", lr.httpP50 * 1e3},
	}
	for i := 1; i < len(chain); i++ {
		if !(chain[i-1].us < chain[i].us) {
			t.Errorf("%s = %.1fµs is not below %s = %.1fµs", chain[i-1].name, chain[i-1].us, chain[i].name, chain[i].us)
		}
	}
	names := map[string]bool{}
	for _, m := range perLayer {
		names[m.Name] = true
	}
	for k := range v {
		if !names[k] {
			t.Errorf("ladder reports %q, which is not a per-layer metric", k)
		}
	}
	if lr.routed == 0 || lr.onOwner != lr.routed {
		t.Errorf("ladder fleet requests: %d of %d on their owner", lr.onOwner, lr.routed)
	}
}
