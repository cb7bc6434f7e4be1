package grid

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ivory/internal/numeric"
)

// laplacian builds, from scratch, the mesh conductance matrix with the tap nodes tied to
// the reference through a very large conductance (ideal regulators).
func laplacian(m *Mesh, taps []Point) (*numeric.SparseMatrix, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("grid: at least one regulator tap is required")
	}
	n := m.W * m.H
	sm := numeric.NewSparseMatrix(n)
	g := 1 / m.RTile
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := m.idx(Point{x, y})
			if x+1 < m.W {
				j := m.idx(Point{x + 1, y})
				sm.AddDiag(i, g)
				sm.AddDiag(j, g)
				sm.AddSym(i, j, -g)
			}
			if y+1 < m.H {
				j := m.idx(Point{x, y + 1})
				sm.AddDiag(i, g)
				sm.AddDiag(j, g)
				sm.AddSym(i, j, -g)
			}
		}
	}
	gTap := g * 1e7 // taps are ~ideal vs the mesh links
	for _, t := range taps {
		if !m.inBounds(t) {
			return nil, fmt.Errorf("grid: tap %v outside the %dx%d mesh", t, m.W, m.H)
		}
		sm.AddDiag(m.idx(t), gTap)
	}
	return sm, nil
}

// irDrop solves the mesh with per-core load currents and returns each
// core's voltage drop below the regulated level (V).
func irDrop(s *Solver, cores []Point, currents []float64) ([]float64, error) {
	if len(cores) != len(currents) {
		return nil, fmt.Errorf("grid: %d cores but %d currents", len(cores), len(currents))
	}
	n := s.m.W * s.m.H
	b := make([]float64, n)
	for k, c := range cores {
		if !s.m.inBounds(c) {
			return nil, fmt.Errorf("grid: core %v outside the mesh", c)
		}
		b[s.index(c)] += currents[k]
	}
	x, err := s.solve(b)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(cores))
	for k, c := range cores {
		out[k] = x[s.index(c)]
	}
	return out, nil
}

// uncachedEffectiveResistance is the pre-Solver reference path: assemble
// the tapped Laplacian from scratch and restart CG from zero.
func uncachedEffectiveResistance(t *testing.T, m *Mesh, taps []Point, p Point) float64 {
	t.Helper()
	sm, err := laplacian(m, taps)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.W*m.H)
	b[m.idx(p)] = 1
	x, _, err := sm.SolveCG(b, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	return x[m.idx(p)]
}

func uncachedIRDrop(t *testing.T, m *Mesh, taps, cores []Point, currents []float64) []float64 {
	t.Helper()
	sm, err := laplacian(m, taps)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.W*m.H)
	for k, c := range cores {
		b[m.idx(c)] += currents[k]
	}
	x, _, err := sm.SolveCG(b, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(cores))
	for k, c := range cores {
		out[k] = x[m.idx(c)]
	}
	return out
}

// tapSets returns 1-, 2-, and 4-tap sets for a mesh.
func tapSets(m *Mesh) [][]Point {
	c := Point{m.W / 2, m.H / 2}
	q := m.QuadCores()
	return [][]Point{
		{c},
		{q[0], q[3]},
		q,
	}
}

// TestSolverMatchesUncachedPath checks the cached-Laplacian solver against
// the assemble-from-scratch CG path within 1e-9, on meshes with 1, 2, and
// 4 taps, covering both the banded direct path (small meshes, incl. a
// non-square one exercising the transposed ordering) and the CG fallback
// (short dimension above the direct-path bandwidth limit).
func TestSolverMatchesUncachedPath(t *testing.T) {
	for _, dim := range []struct {
		w, h int
		r    float64
	}{{8, 8, 0.03}, {12, 10, 0.03}, {10, 14, 0.08}, {24, 24, 0.05}, {70, 70, 0.05}} {
		m, err := NewMesh(dim.w, dim.h, dim.r)
		if err != nil {
			t.Fatal(err)
		}
		cores := m.QuadCores()
		for _, taps := range tapSets(m) {
			s, err := m.NewSolver(taps)
			if err != nil {
				t.Fatalf("%dx%d taps %v: %v", dim.w, dim.h, taps, err)
			}
			for _, c := range cores {
				got, err := s.EffectiveResistance(c)
				if err != nil {
					t.Fatal(err)
				}
				want := uncachedEffectiveResistance(t, m, taps, c)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Errorf("%dx%d taps %v core %v: solver R=%.15g, uncached %.15g",
						dim.w, dim.h, taps, c, got, want)
				}
			}
			currents := make([]float64, len(cores))
			for i := range currents {
				currents[i] = 1.5 + 0.5*float64(i)
			}
			got, err := irDrop(s, cores, currents)
			if err != nil {
				t.Fatal(err)
			}
			want := uncachedIRDrop(t, m, taps, cores, currents)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Errorf("%dx%d taps %v: IR drop[%d] solver %.15g, uncached %.15g",
						dim.w, dim.h, taps, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlaceIVRsUnchangedByCachedSolver pins the greedy placement against
// the taps the pre-Solver implementation returned (captured before the
// change). The n=8 quad-core case had two exactly symmetric taps whose
// order the old CG rounding noise broke arbitrarily, so that case checks
// set equality plus the (identical) worst-case metric.
func TestPlaceIVRsUnchangedByCachedSolver(t *testing.T) {
	check := func(w, h int, rTile float64, n int, want []Point, asSet bool) {
		t.Helper()
		m, err := NewMesh(w, h, rTile)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PlaceIVRsContext(context.Background(), n, m.QuadCores())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%dx%d n=%d: got %v, want %v", w, h, n, got, want)
		}
		for i := range want {
			if asSet {
				if !containsPoint(got, want[i]) {
					t.Fatalf("%dx%d n=%d: got %v, want the set %v", w, h, n, got, want)
				}
			} else if got[i] != want[i] {
				t.Fatalf("%dx%d n=%d: got %v, want %v", w, h, n, got, want)
			}
		}
	}
	// 24x24 case-study mesh (the gridscale experiment's configuration).
	check(24, 24, 0.05, 1, []Point{{13, 13}}, false)
	check(24, 24, 0.05, 2, []Point{{13, 13}, {10, 10}}, false)
	check(24, 24, 0.05, 4, []Point{{6, 6}, {18, 6}, {6, 18}, {18, 18}}, false)
	check(24, 24, 0.05, 8, []Point{{6, 6}, {18, 6}, {6, 18}, {18, 18}, {19, 19}, {7, 19}, {19, 7}, {7, 7}}, true)
	// Smaller and non-square meshes.
	check(8, 8, 0.03, 1, []Point{{4, 4}}, false)
	check(12, 10, 0.03, 2, []Point{{6, 4}, {7, 7}}, false)
	check(16, 16, 0.03, 4, []Point{{4, 4}, {12, 4}, {4, 12}, {12, 12}}, false)
}

// TestSolverValidation covers the solver's input contracts.
func TestSolverValidation(t *testing.T) {
	m, err := NewMesh(8, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewSolver(nil); err == nil {
		t.Fatal("expected an error for an empty tap set")
	}
	if _, err := m.NewSolver([]Point{{99, 0}}); err == nil {
		t.Fatal("expected an error for an out-of-bounds tap")
	}
	s, err := m.NewSolver([]Point{{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EffectiveResistance(Point{-1, 0}); err == nil {
		t.Fatal("expected an error for an out-of-bounds load point")
	}
	if _, err := s.WorstCaseResistanceContext(context.Background(), nil); err == nil {
		t.Fatal("expected an error for an empty core list")
	}
}
