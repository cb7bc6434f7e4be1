package sc

import (
	"fmt"

	"ivory/internal/ivr"
	"ivory/internal/topology"
)

// Reconfigurable models a gear-shifting switched-capacitor converter: one
// switch/capacitor fabric that can be reconfigured between several
// conversion ratios at run time — the style of design the paper validates
// against silicon in Fig. 7 (a 32 nm reconfigurable 3:2 / 2:1 converter)
// and the natural companion to DVFS, where the best ratio tracks the
// output voltage.
//
// Every gear shares the same configuration (technology, C/G budget, area);
// only the topology analysis differs. Evaluation picks the most efficient
// feasible gear for the requested operating point.
type Reconfigurable struct {
	gears []*Design
}

// NewReconfigurable builds one Design per gear from the shared base
// configuration (base.Analysis is ignored). At least one gear must be
// feasible for construction to succeed; per-operating-point feasibility is
// decided at evaluation time.
func NewReconfigurable(base Config, gears []*topology.Analysis) (*Reconfigurable, error) {
	if len(gears) == 0 {
		return nil, fmt.Errorf("sc: reconfigurable converter needs at least one gear")
	}
	r := &Reconfigurable{}
	var firstErr error
	for _, an := range gears {
		cfg := base
		cfg.Analysis = an
		d, err := New(cfg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.gears = append(r.gears, d)
	}
	if len(r.gears) == 0 {
		return nil, fmt.Errorf("sc: no feasible gear: %w", firstErr)
	}
	return r, nil
}

// EvaluateAtVOut re-targets every gear to the requested output voltage,
// evaluates each at the load, and returns the best gear's metrics along
// with its index. Gears whose ideal ratio cannot reach the target are
// skipped — exactly the gear-shifting decision a reconfigurable
// controller makes.
func (r *Reconfigurable) EvaluateAtVOut(vOut, iLoad float64) (ivr.Metrics, int, error) {
	bestIdx := -1
	var best ivr.Metrics
	var firstErr error
	for i, g := range r.gears {
		cfg := g.Config()
		cfg.VOut = vOut
		d, err := New(cfg)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m, err := d.Evaluate(iLoad)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if bestIdx < 0 || m.Efficiency > best.Efficiency {
			bestIdx = i
			best = m
		}
	}
	if bestIdx < 0 {
		return ivr.Metrics{}, -1, ivr.Infeasible("reconfigurable SC",
			"no gear reaches %.3g V at %.3g A: %v", vOut, iLoad, firstErr)
	}
	return best, bestIdx, nil
}

// EfficiencyEnvelope sweeps the output voltage and returns, per point, the
// best gear's efficiency and which gear won — the upper envelope of the
// per-gear efficiency curves, which is what a DVFS governor experiences.
func (r *Reconfigurable) EfficiencyEnvelope(iLoad, vLo, vHi float64, points int) (vout, eff []float64, gear []int) {
	if points < 2 {
		points = 2
	}
	for k := 0; k < points; k++ {
		target := vLo + (vHi-vLo)*float64(k)/float64(points-1)
		m, idx, err := r.EvaluateAtVOut(target, iLoad)
		if err != nil {
			continue
		}
		vout = append(vout, target)
		eff = append(eff, m.Efficiency)
		gear = append(gear, idx)
	}
	return vout, eff, gear
}

// ShiftPoints returns the output voltages (midpoints between sweep samples)
// where the winning gear changes across the envelope.
func (r *Reconfigurable) ShiftPoints(iLoad, vLo, vHi float64, points int) []float64 {
	vout, _, gear := r.EfficiencyEnvelope(iLoad, vLo, vHi, points)
	var shifts []float64
	for i := 1; i < len(gear); i++ {
		if gear[i] != gear[i-1] {
			shifts = append(shifts, 0.5*(vout[i-1]+vout[i]))
		}
	}
	return shifts
}
