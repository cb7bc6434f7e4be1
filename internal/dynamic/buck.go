package dynamic

import (
	"fmt"
	"math"
)

// BuckParams is the dynamic model of an N-phase buck converter in CCM: per
// the paper, an N-interleaved buck transforms to N parallel-connected buck
// converters for dynamic-response derivation. The model integrates each
// phase's inductor current at in-cycle resolution (so high-frequency load
// noise sees the output capacitance directly) and updates the duty cycle
// with a discrete PI voltage-mode controller once per switching cycle.
type BuckParams struct {
	// VIn is the input voltage (V).
	VIn float64
	// L is the per-phase inductance (H) and RL its series resistance (ohm).
	L, RL float64
	// COut is the output capacitance (F).
	COut float64
	// FSw is the per-phase switching frequency (Hz).
	FSw float64
	// Interleave is the phase count.
	Interleave int
	// Kp and Ki are the PI controller gains (duty per volt, duty per
	// volt-second); zero selects stable defaults derived from the plant.
	Kp, Ki float64
}

// BuckSimulator runs the combined model of the interleaved buck.
type BuckSimulator struct {
	P BuckParams
}

// Validate checks the parameters.
func (s *BuckSimulator) Validate() error {
	p := s.P
	if p.VIn <= 0 || p.L <= 0 || p.COut <= 0 || p.FSw <= 0 {
		return fmt.Errorf("dynamic: buck VIn, L, COut, FSw must be positive")
	}
	if p.RL < 0 {
		return fmt.Errorf("dynamic: negative RL")
	}
	if p.Interleave < 0 {
		return fmt.Errorf("dynamic: negative interleave")
	}
	return nil
}

// Run simulates the output over [0, T] at step dt with load iLoad(t) and
// reference vRef(t). Phases are staggered by 1/(N·fsw); the PI controller
// samples once per cycle. The converter starts in steady state at vRef(0)
// and iLoad(0).
func (s *BuckSimulator) Run(iLoad, vRef Signal, T, dt float64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := validateRun(T, dt); err != nil {
		return nil, err
	}
	p := s.P
	n := p.Interleave
	if n == 0 {
		n = 1
	}
	period := 1 / p.FSw
	if dt > period/16 {
		return nil, fmt.Errorf("dynamic: dt %g must resolve the switching period %g (>=16 pts)", dt, period)
	}
	kp, ki := p.Kp, p.Ki
	if kp == 0 && ki == 0 {
		// Voltage-mode gains: the low-frequency plant gain from duty to
		// output is VIn, so kp = 0.5/VIn keeps the proportional loop gain
		// at 0.5 (stable for a one-cycle-delay discrete loop), with the
		// integrator closing the remaining error over ~4 switching cycles.
		kp = 0.5 / p.VIn
		ki = kp * p.FSw / 4
	}

	v0 := vRef(0)
	i0 := iLoad(0)
	duty := (v0 + i0/float64(n)*p.RL) / p.VIn
	if duty >= 1 {
		return nil, fmt.Errorf("dynamic: initial operating point saturates the duty cycle")
	}
	// Per-phase state.
	iL := make([]float64, n)
	phaseStart := make([]float64, n)
	for i := range iL {
		iL[i] = i0 / float64(n)
		phaseStart[i] = float64(i) * period / float64(n)
	}
	v := v0
	integ := 0.0

	steps := int(math.Ceil(T / dt))
	tr := &Trace{Times: make([]float64, 0, steps+1), V: make([]float64, 0, steps+1)}
	tr.Times = append(tr.Times, 0)
	tr.V = append(tr.V, v)
	nextCtl := period
	for k := 1; k <= steps; k++ {
		t := float64(k) * dt
		// PI update once per cycle: feed-forward of the reference plus
		// proportional and integral correction.
		for nextCtl <= t {
			e := vRef(nextCtl) - v
			integ += e * period
			duty = clamp(vRef(nextCtl)/p.VIn+kp*e+ki*integ, 0.02, 0.98)
			nextCtl += period
			tr.SwitchEvents += n
		}
		// In-cycle integration of each phase.
		sum := 0.0
		for i := 0; i < n; i++ {
			frac := math.Mod(t-phaseStart[i], period) / period
			if frac < 0 {
				frac += 1
			}
			vx := 0.0
			if frac < duty {
				vx = p.VIn
			}
			iL[i] += dt * (vx - v - p.RL*iL[i]) / p.L
			if iL[i] < 0 {
				iL[i] = 0 // synchronous rectifier with diode emulation
			}
			sum += iL[i]
		}
		v += dt * (sum - iLoad(t)) / p.COut
		tr.Times = append(tr.Times, t)
		tr.V = append(tr.V, v)
	}
	tr.AvgFSw = p.FSw
	if err := tr.Finite(); err != nil {
		return nil, err
	}
	return tr, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
