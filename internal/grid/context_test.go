package grid

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestPlaceIVRsContextCancelled checks run control on the placement
// heuristic: a cancelled context aborts with ctx.Err(), an uncancelled one
// returns the pinned placement of TestPlaceIVRsUnchangedByCachedSolver.
func TestPlaceIVRsContextCancelled(t *testing.T) {
	m, err := NewMesh(16, 16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cores := m.QuadCores()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.PlaceIVRsContext(ctx, 4, cores); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled PlaceIVRsContext returned %v, want context.Canceled", err)
	}
	want := []Point{{4, 4}, {12, 4}, {4, 12}, {12, 12}}
	got, err := m.PlaceIVRsContext(context.Background(), 4, cores)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("placed %d taps, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tap %d diverges: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestWorstCaseResistanceContextCancelled checks the per-core fan-out
// honors cancellation and the uncancelled path matches a serial scan.
func TestWorstCaseResistanceContextCancelled(t *testing.T) {
	m, err := NewMesh(12, 12, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cores := m.QuadCores()
	s, err := m.NewSolver([]Point{{6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.WorstCaseResistanceContext(ctx, cores); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled WorstCaseResistanceContext returned %v, want context.Canceled", err)
	}
	plain := 0.0
	for _, c := range cores {
		r, err := s.EffectiveResistance(c)
		if err != nil {
			t.Fatal(err)
		}
		plain = math.Max(plain, r)
	}
	withCtx, err := s.WorstCaseResistanceContext(context.Background(), cores)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain-withCtx) != 0 {
		t.Fatalf("context path %.17g diverges from plain path %.17g", withCtx, plain)
	}
}

// TestSolverStatsCounts checks the direct-vs-CG telemetry moves when a
// solver is built on each path.
func TestSolverStatsCounts(t *testing.T) {
	// Small mesh: bandwidth 8 <= 64, direct path.
	small, err := NewMesh(8, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	chol0, cg0 := SolverStats()
	if _, err := small.NewSolver([]Point{{4, 4}}); err != nil {
		t.Fatal(err)
	}
	chol1, cg1 := SolverStats()
	if chol1 != chol0+1 || cg1 != cg0 {
		t.Fatalf("direct solver moved counters (%d,%d)->(%d,%d), want one Cholesky",
			chol0, cg0, chol1, cg1)
	}
	// Wide mesh: short dimension 100 > 64 forces the CG fallback.
	big, err := NewMesh(100, 100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.NewSolver([]Point{{50, 50}}); err != nil {
		t.Fatal(err)
	}
	chol2, cg2 := SolverStats()
	if cg2 != cg1+1 || chol2 != chol1 {
		t.Fatalf("fallback solver moved counters (%d,%d)->(%d,%d), want one CG",
			chol1, cg1, chol2, cg2)
	}
}
