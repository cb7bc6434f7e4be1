package core

import (
	"testing"

	"ivory/internal/tech"
)

// Seam tests for the ConfigRef enumeration and the range/ref evaluation
// entry points that cluster mode and perfbench are built on: slices must tile the full
// sweep exactly, enumeration must be reproducible, and malformed inputs
// must be rejected before any evaluation runs.

// outcomeEqual compares two outcomes candidate-by-candidate on the wire
// fields (kind, label, metrics); design pointers are not compared because
// they do not cross the shard wire.
func outcomeEqual(a, b RefOutcome) bool {
	if a.Rejected != b.Rejected || len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		x, y := a.Candidates[i], b.Candidates[i]
		if x.Kind != y.Kind || x.Label != y.Label || x.Metrics != y.Metrics {
			return false
		}
	}
	return true
}

func TestExploreRangeSlicesTileFullSweep(t *testing.T) {
	spec := smallSpec()
	full, err := ExploreRange(spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := full.Total
	if total == 0 {
		t.Fatal("empty enumeration")
	}
	whole, err := ExploreRange(spec, 0, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Outcomes) != total {
		t.Fatalf("whole-range outcomes %d != total %d", len(whole.Outcomes), total)
	}

	// Tile the space into three uneven slices and re-evaluate: positional
	// concatenation must reproduce the whole-range outcomes exactly.
	cuts := []int{0, total / 3, total / 2, total}
	var tiled []RefOutcome
	for i := 0; i+1 < len(cuts); i++ {
		rr, err := ExploreRange(spec, cuts[i], cuts[i+1])
		if err != nil {
			t.Fatalf("slice [%d,%d): %v", cuts[i], cuts[i+1], err)
		}
		if rr.Total != total {
			t.Fatalf("slice reports total %d, want %d", rr.Total, total)
		}
		tiled = append(tiled, rr.Outcomes...)
	}
	for i := range whole.Outcomes {
		if !outcomeEqual(whole.Outcomes[i], tiled[i]) {
			t.Fatalf("outcome %d differs between whole-range and tiled evaluation", i)
		}
	}
}

func TestExploreRangeMatchesExplore(t *testing.T) {
	spec := smallSpec()
	res, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ExploreRange(spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ExploreRange(spec, 0, rr.Total)
	if err != nil {
		t.Fatal(err)
	}
	// Enumeration-time rejections are counted once per spec, outside any
	// slice.
	ec, err := prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, pre := ec.enumerate()
	n, rejected := 0, 0
	for _, r := range pre {
		rejected += r
	}
	for _, o := range whole.Outcomes {
		n += len(o.Candidates)
		rejected += o.Rejected
	}
	if n != len(res.Candidates) {
		t.Errorf("range sweep found %d candidates, Explore found %d", n, len(res.Candidates))
	}
	if rejected != res.Rejected {
		t.Errorf("range sweep rejected %d, Explore rejected %d", rejected, res.Rejected)
	}
}

func TestEnumerationIsReproducible(t *testing.T) {
	spec := smallSpec()
	if err := spec.defaults(); err != nil {
		t.Fatal(err)
	}
	node, err := tech.Lookup(spec.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	a, preA := newEvalContext(spec, node).enumerate()
	b, preB := newEvalContext(spec, node).enumerate()
	if len(a) != len(b) || preA != preB {
		t.Fatalf("enumeration not reproducible: %d/%v vs %d/%v", len(a), preA, len(b), preB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs across enumerations: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestExploreRangeBounds(t *testing.T) {
	spec := smallSpec()
	rr, err := ExploreRange(spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{-1, 0}, {5, 2}, {0, rr.Total + 1}} {
		if _, err := ExploreRange(spec, c[0], c[1]); err == nil {
			t.Errorf("range [%d,%d) must be rejected", c[0], c[1])
		}
	}
}

func TestEvalRefsValidation(t *testing.T) {
	spec := smallSpec()
	bad := []ConfigRef{
		{Kind: Kind(99)},
		{Kind: KindSC, Topo: 9999},
		{Kind: KindSC, Pol: 7},
		{Kind: KindBuck, Axis: 9999},
		{Kind: KindLDO, Axis: -1},
	}
	for i, ref := range bad {
		if _, err := EvalRefs(spec, []ConfigRef{ref}); err == nil {
			t.Errorf("ref %d (%+v) must be rejected", i, ref)
		}
	}
}

func TestEvalRefsMatchesRangeSlice(t *testing.T) {
	spec := smallSpec()
	if err := spec.defaults(); err != nil {
		t.Fatal(err)
	}
	node, err := tech.Lookup(spec.NodeName)
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := newEvalContext(spec, node).enumerate()
	lo, hi := len(refs)/4, len(refs)/2
	byRange, err := ExploreRange(spec, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	byRefs, err := EvalRefs(spec, refs[lo:hi])
	if err != nil {
		t.Fatal(err)
	}
	if len(byRange.Outcomes) != len(byRefs.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(byRange.Outcomes), len(byRefs.Outcomes))
	}
	for i := range byRange.Outcomes {
		if !outcomeEqual(byRange.Outcomes[i], byRefs.Outcomes[i]) {
			t.Fatalf("outcome %d differs between range and ref evaluation", i)
		}
	}
}
