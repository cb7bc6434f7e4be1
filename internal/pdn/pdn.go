// Package pdn models the cascaded power-delivery network the paper's Fig. 1
// shows: the off-chip portion (VRM output, PCB planes, package) built from
// discrete RLC segments, the C4-bump interface, and the on-chip grid with
// die decap. A network is a ladder of series R-L segments, each terminated
// by a shunt decoupling branch (C with ESR).
//
// Two views are provided:
//
//   - the analytic input impedance Z(jω) seen by the load, used for
//     resonance analysis and guardband reasoning;
//   - an LTI state-space realization (dx/dt = A·x + B·u with inputs
//     u = [V_src, I_load]) integrated with the unconditionally stable
//     trapezoidal rule, used for transient droop simulation under workload
//     current traces.
package pdn

import (
	"context"
	"fmt"
	"math"

	"ivory/internal/numeric"
)

// Stage is one ladder segment: a series R-L branch from the previous node,
// terminated by a shunt decap branch (C in series with ESR) at its node.
type Stage struct {
	// Name identifies the stage in reports ("board", "package", "die").
	Name string
	// R and L are the series branch resistance (ohm) and inductance (H).
	R, L float64
	// C is the shunt decap (F) and ESR its series resistance (ohm). Every
	// stage must carry decap (C > 0): a realistic PDN decouples each level,
	// and it keeps the state-space free of inductor cut-sets.
	C, ESR float64
}

// Network is a source-to-load ladder of stages. The load attaches at the
// final stage's node.
type Network struct {
	stages []Stage
}

// New validates and builds a network. At least one stage is required, and
// every stage needs positive R, L, and C.
func New(stages ...Stage) (*Network, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pdn: at least one stage is required")
	}
	for i, s := range stages {
		if s.R <= 0 || s.L <= 0 || s.C <= 0 {
			return nil, fmt.Errorf("pdn: stage %d (%s) needs positive R, L, C (got R=%g L=%g C=%g)",
				i, s.Name, s.R, s.L, s.C)
		}
		if s.ESR < 0 {
			return nil, fmt.Errorf("pdn: stage %d (%s) has negative ESR", i, s.Name)
		}
	}
	cp := make([]Stage, len(stages))
	copy(cp, stages)
	return &Network{stages: cp}, nil
}

// TotalR returns the end-to-end series resistance (the DC IR-drop per
// ampere).
func (n *Network) TotalR() float64 {
	r := 0.0
	for _, s := range n.stages {
		r += s.R
	}
	return r
}

// StateSpace returns the LTI realization of the ladder:
//
//	states  x = [i_L1..i_Lk, v_C1..v_Ck]
//	inputs  u = [V_src, I_load]
//	output  v_load = C_out·x + D·u (last-stage node voltage)
//
// Node voltages eliminate algebraically: v_i = v_Ci + ESR_i·(i_Li − i_L(i+1) − 1{i=k}·I_load).
func (n *Network) StateSpace() (a, b *numeric.Matrix, cOut, dOut []float64) {
	k := len(n.stages)
	nx := 2 * k
	a = numeric.NewMatrix(nx, nx)
	b = numeric.NewMatrix(nx, 2)
	cOut = make([]float64, nx)
	dOut = make([]float64, 2)

	// Helper index maps.
	iL := func(i int) int { return i }     // inductor current of stage i
	vC := func(i int) int { return k + i } // decap voltage of stage i

	// v_i as linear form over states and inputs.
	type lin struct {
		x []float64
		u []float64
	}
	nodeV := make([]lin, k)
	for i := 0; i < k; i++ {
		l := lin{x: make([]float64, nx), u: make([]float64, 2)}
		l.x[vC(i)] = 1
		l.x[iL(i)] += n.stages[i].ESR
		if i+1 < k {
			l.x[iL(i+1)] -= n.stages[i].ESR
		} else {
			l.u[1] -= n.stages[i].ESR // load current drawn at last node
		}
		nodeV[i] = l
	}
	// d iL_i/dt = (v_{i-1} - v_i - R_i iL_i)/L_i ; v_{-1} = V_src.
	for i := 0; i < k; i++ {
		s := n.stages[i]
		addLin := func(l lin, scale float64) {
			for j, v := range l.x {
				a.Add(iL(i), j, scale*v/s.L)
			}
			for j, v := range l.u {
				b.Add(iL(i), j, scale*v/s.L)
			}
		}
		if i == 0 {
			b.Add(iL(0), 0, 1/s.L) // + V_src/L
		} else {
			addLin(nodeV[i-1], +1)
		}
		addLin(nodeV[i], -1)
		a.Add(iL(i), iL(i), -s.R/s.L)
	}
	// d vC_i/dt = i_C/C = (iL_i - iL_{i+1} - 1{i=k-1} I_load)/C_i.
	for i := 0; i < k; i++ {
		s := n.stages[i]
		a.Add(vC(i), iL(i), 1/s.C)
		if i+1 < k {
			a.Add(vC(i), iL(i+1), -1/s.C)
		} else {
			b.Add(vC(i), 1, -1/s.C)
		}
	}
	// Output: last node voltage.
	last := nodeV[k-1]
	copy(cOut, last.x)
	copy(dOut, last.u)
	return a, b, cOut, dOut
}

// transientCancelStride is the number of trapezoidal steps between context
// polls. A stride is a small fraction of one simulation cell, so cancellation
// lands mid-cell instead of after it, while the poll itself stays invisible
// in profiles.
const transientCancelStride = 1024

// TransientContext simulates the load-node voltage for a piecewise-linear
// load current trace iLoad(t) sampled at fixed step dt over [0, T], with a
// constant source voltage. The network starts in DC steady state at
// iLoad(0). It returns the sampled times and node voltages.
//
// ctx is polled every transientCancelStride steps so a cancelled case-study
// cell stops mid-trace, and tsBuf/vsBuf (may be nil) donate their capacity
// for the returned slices, letting hot callers recycle trace storage across
// simulations. On error the returned slices are nil and the buffers'
// contents are unspecified.
func (n *Network) TransientContext(ctx context.Context, vSrc float64, iLoad func(t float64) float64, dt, T float64, tsBuf, vsBuf []float64) (ts, vs []float64, err error) {
	if dt <= 0 || T <= 0 {
		return nil, nil, fmt.Errorf("pdn: dt and T must be positive")
	}
	a, b, cOut, dOut := n.StateSpace()
	sys, err := numeric.NewLinearSystem(a, b, dt)
	if err != nil {
		return nil, nil, fmt.Errorf("pdn: state-space setup: %w", err)
	}
	// DC initial condition: all inductor currents equal the initial load,
	// cap voltages equal their node DC voltages.
	k := len(n.stages)
	x := make([]float64, 2*k)
	i0 := iLoad(0)
	vNode := vSrc
	for i := 0; i < k; i++ {
		vNode -= n.stages[i].R * i0
		x[i] = i0
		x[k+i] = vNode
	}
	steps := int(math.Ceil(T / dt))
	ts = growFloats(tsBuf, steps+1)
	vs = growFloats(vsBuf, steps+1)
	readout := func(t, iNow float64) {
		v := dOut[0]*vSrc + dOut[1]*iNow
		for j, cj := range cOut {
			v += cj * x[j]
		}
		ts = append(ts, t)
		vs = append(vs, v)
	}
	readout(0, i0)
	u0 := []float64{vSrc, i0}
	u1 := []float64{vSrc, 0}
	// iLoad is deterministic in t, so the previous step's end-of-interval
	// sample is this step's start-of-interval sample: one closure call per
	// step instead of three.
	prev := i0
	for s := 1; s <= steps; s++ {
		if s%transientCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		t1 := float64(s) * dt
		cur := iLoad(t1)
		u0[1] = prev
		u1[1] = cur
		sys.Step(x, u0, u1)
		readout(t1, cur)
		prev = cur
	}
	if err := numeric.AllFinite("pdn: transient voltage", vs...); err != nil {
		return nil, nil, err
	}
	return ts, vs, nil
}

// growFloats returns an empty slice backed by buf when its capacity covers
// capHint, or a fresh one otherwise.
func growFloats(buf []float64, capHint int) []float64 {
	if cap(buf) < capHint {
		return make([]float64, 0, capHint)
	}
	return buf[:0]
}

// TypicalOffChip returns the three-level off-chip network used throughout
// the case study, patterned after the GPUVolt equivalent circuit the paper
// adopts: VRM-side bulk capacitance, board plane, package with embedded
// decap, and the C4/grid interface with dieDecap farads of on-die
// capacitance behind gridR ohms of grid spreading resistance.
func TypicalOffChip(dieDecap, gridR float64) (*Network, error) {
	if dieDecap <= 0 {
		return nil, fmt.Errorf("pdn: dieDecap must be positive")
	}
	if gridR <= 0 {
		return nil, fmt.Errorf("pdn: gridR must be positive")
	}
	return New(
		Stage{Name: "board", R: 0.4e-3, L: 1.2e-9, C: 300e-6, ESR: 0.6e-3},
		Stage{Name: "package", R: 0.5e-3, L: 80e-12, C: 4e-6, ESR: 1.0e-3},
		Stage{Name: "die", R: gridR, L: 10e-12, C: dieDecap, ESR: 0.3e-3},
	)
}
