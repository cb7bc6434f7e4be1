package workload

import (
	"math"
	"testing"
)

func testSchedule() PhaseSchedule {
	return PhaseSchedule{
		Name: "cpu-burst",
		Phases: []Phase{
			{Benchmark: "CFD", Duration: 3e-6},
			{Benchmark: "BFS2", Duration: 2e-6, Scale: 0.5},
			{Benchmark: "HOTSP", Duration: 4e-6, Scale: 1.1},
		},
	}
}

func TestPhaseScheduleValidate(t *testing.T) {
	if err := testSchedule().Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := []PhaseSchedule{
		{Name: "", Phases: []Phase{{Benchmark: "CFD", Duration: 1e-6}}},
		{Name: "empty"},
		{Name: "unknown", Phases: []Phase{{Benchmark: "NOPE", Duration: 1e-6}}},
		{Name: "zero-dur", Phases: []Phase{{Benchmark: "CFD"}}},
		{Name: "neg-scale", Phases: []Phase{{Benchmark: "CFD", Duration: 1e-6, Scale: -1}}},
	}
	for _, ps := range cases {
		if err := ps.Validate(); err == nil {
			t.Errorf("schedule %q: expected a validation error", ps.Name)
		}
	}
}

// TestPhaseScheduleGolden pins the synthesized trace at the phase
// boundaries: the first and last sample of every occurrence across one
// full cycle plus the wrap back into phase 0. Any change to the seed
// derivation, the boundary sample assignment, or the per-phase restart
// breaks these values and must be called out as a breaking change.
func TestPhaseScheduleGolden(t *testing.T) {
	ps := testSchedule()
	const (
		tdp  = 5.0
		dt   = 1e-8
		n    = 1200 // 12 µs: one full 9 µs cycle plus 3 µs of the next
		seed = 20170618
	)
	got := ps.PowerTraceInto(nil, tdp, dt, n, seed)
	if len(got) != n {
		t.Fatalf("trace length %d, want %d", len(got), n)
	}
	// Occurrence sample ranges at dt=10 ns: CFD [0,300), BFS2 [300,500),
	// HOTSP [500,900), CFD again [900,1200).
	golden := map[int]float64{
		0:    goldenPhase0First,
		299:  goldenPhase0Last,
		300:  goldenPhase1First,
		499:  goldenPhase1Last,
		500:  goldenPhase2First,
		899:  goldenPhase2Last,
		900:  goldenPhase3First,
		1199: goldenPhase3Last,
	}
	for k, want := range golden {
		//lint:ignore floatcmp golden samples are pinned bit-exactly
		if got[k] != want {
			t.Errorf("sample %d = %.17g, want %.17g", k, got[k], want)
		}
	}
}

// Pinned by TestPhaseScheduleGolden (values produced by the derivation
// rule documented in the package doc; regenerate only on an intentional
// contract change).
const (
	goldenPhase0First = 2.8495338742332632
	goldenPhase0Last  = 3.2903631157322906
	goldenPhase1First = 1.2191357979838418
	goldenPhase1Last  = 1.1962438730832199
	goldenPhase2First = 3.2959405769161458
	goldenPhase2Last  = 3.831343518837421
	goldenPhase3First = 4.2946945784903932
	goldenPhase3Last  = 3.5213041425238991
)

// TestPhaseSchedulePrefixStable proves extending the span never changes
// already-generated samples, and repeated synthesis is bit-identical.
func TestPhaseSchedulePrefixStable(t *testing.T) {
	ps := testSchedule()
	short := ps.PowerTraceInto(nil, 5, 1e-8, 400, 7)
	long := ps.PowerTraceInto(nil, 5, 1e-8, 1600, 7)
	again := ps.PowerTraceInto(nil, 5, 1e-8, 1600, 7)
	for k := range short {
		//lint:ignore floatcmp prefix stability is a bit-exact contract
		if short[k] != long[k] {
			t.Fatalf("prefix diverges at sample %d: %g vs %g", k, short[k], long[k])
		}
	}
	for k := range long {
		//lint:ignore floatcmp regeneration must be bit-identical
		if long[k] != again[k] {
			t.Fatalf("rerun diverges at sample %d", k)
		}
	}
}

// TestPhaseScheduleSegmentsMatchBenchmarks proves each occurrence is the
// phase benchmark's own trace restarted at local time zero under the
// derived seed — the composition adds no synthesis of its own.
func TestPhaseScheduleSegmentsMatchBenchmarks(t *testing.T) {
	ps := testSchedule()
	const (
		tdp  = 5.0
		dt   = 1e-8
		n    = 900
		seed = 99
	)
	got := ps.PowerTraceInto(nil, tdp, dt, n, seed)
	segs := []struct {
		occ        int
		bench      string
		begin, end int
		scale      float64
	}{
		{0, "CFD", 0, 300, 1},
		{1, "BFS2", 300, 500, 0.5},
		{2, "HOTSP", 500, 900, 1.1},
	}
	for _, s := range segs {
		b, err := Get(s.bench)
		if err != nil {
			t.Fatal(err)
		}
		direct := b.PowerTraceInto(nil, tdp, dt, s.end-s.begin, ps.segmentSeed(seed, s.occ, s.bench))
		for i, v := range direct {
			//lint:ignore floatcmp segment stitching is a bit-exact contract
			if want := v * s.scale; got[s.begin+i] != want {
				t.Fatalf("occurrence %d sample %d: %g, want %g", s.occ, i, got[s.begin+i], want)
			}
		}
	}
}

// TestPhaseScheduleInto exercises buffer reuse and the degenerate-input
// contract shared with Benchmark.PowerTraceInto.
func TestPhaseScheduleInto(t *testing.T) {
	ps := testSchedule()
	buf := make([]float64, 512)
	out := ps.PowerTraceInto(buf, 5, 1e-8, 256, 3)
	if &out[0] != &buf[0] || len(out) != 256 {
		t.Fatalf("expected in-place reuse of the donated buffer")
	}
	fresh := ps.PowerTraceInto(nil, 5, 1e-8, 256, 3)
	for k := range fresh {
		//lint:ignore floatcmp buffer reuse must not change a single bit
		if out[k] != fresh[k] {
			t.Fatalf("reused-buffer trace diverges at %d", k)
		}
	}
	if ps.PowerTraceInto(nil, 0, 1e-8, 16, 1) != nil ||
		ps.PowerTraceInto(nil, 5, 0, 16, 1) != nil ||
		ps.PowerTraceInto(nil, 5, 1e-8, 0, 1) != nil {
		t.Fatal("degenerate inputs must return nil")
	}
	bad := PhaseSchedule{Name: "bad", Phases: []Phase{{Benchmark: "NOPE", Duration: 1e-6}}}
	if bad.PowerTraceInto(nil, 5, 1e-8, 16, 1) != nil {
		t.Fatal("invalid schedule must return nil")
	}
	for _, v := range out {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("non-physical sample %g", v)
		}
	}
}

// TestTraceSignatureDistinguishes covers the memo-identity contract of
// Source.TraceSignature for both implementations.
func TestTraceSignatureDistinguishes(t *testing.T) {
	base := testSchedule()
	variants := []PhaseSchedule{}
	renamed := base
	renamed.Name = "other"
	variants = append(variants, renamed)
	longer := base
	longer.Phases = append(append([]Phase(nil), base.Phases...), Phase{Benchmark: "KMN", Duration: 1e-6})
	variants = append(variants, longer)
	scaled := base
	scaled.Phases = append([]Phase(nil), base.Phases...)
	scaled.Phases[1].Scale = 0.75
	variants = append(variants, scaled)
	for _, v := range variants {
		if v.TraceSignature() == base.TraceSignature() {
			t.Errorf("schedule %q shares the base signature", v.Name)
		}
	}
	cfd, _ := Get("CFD")
	bfs, _ := Get("BFS2")
	if cfd.TraceSignature() == bfs.TraceSignature() {
		t.Error("distinct benchmarks share a signature")
	}
	if cfd.TraceSignature() == base.TraceSignature() {
		t.Error("benchmark and schedule signatures collide")
	}
	tweaked := cfd
	tweaked.Base += 0.01
	if tweaked.TraceSignature() == cfd.TraceSignature() {
		t.Error("parameter change did not change the benchmark signature")
	}
}
