package spice

import (
	"math"
	"math/cmplx"
	"testing"

	"ivory/internal/pdn"
)

func TestACVoltageDividerFlat(t *testing.T) {
	c := NewCircuit()
	c.V("vac", "a", "0", DC(0))
	c.R("r1", "a", "b", 1000)
	c.R("r2", "b", "0", 1000)
	res, err := c.AC([]float64{10, 1e3, 1e6}, "vac")
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Freqs {
		if math.Abs(res.Mag("b", k)-0.5) > 1e-9 {
			t.Errorf("f=%v: divider = %v, want 0.5", res.Freqs[k], res.Mag("b", k))
		}
	}
}

func TestACRCLowPassCorner(t *testing.T) {
	// RC low pass: -3 dB at f = 1/(2*pi*RC); magnitude 1/sqrt(2).
	r, cap := 1e3, 1e-9
	fc := 1 / (2 * math.Pi * r * cap)
	c := NewCircuit()
	c.V("vac", "a", "0", DC(0))
	c.R("r1", "a", "b", r)
	c.C("c1", "b", "0", cap, 0)
	res, err := c.AC([]float64{fc / 100, fc, fc * 100}, "vac")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mag("b", 0)-1) > 1e-3 {
		t.Errorf("passband gain %v", res.Mag("b", 0))
	}
	if math.Abs(res.Mag("b", 1)-1/math.Sqrt2) > 1e-3 {
		t.Errorf("corner gain %v, want %v", res.Mag("b", 1), 1/math.Sqrt2)
	}
	if res.Mag("b", 2) > 0.02 {
		t.Errorf("stopband gain %v", res.Mag("b", 2))
	}
	// Phase at the corner is -45 degrees.
	if math.Abs(res.PhaseDeg("b", 1)+45) > 0.5 {
		t.Errorf("corner phase %v, want -45", res.PhaseDeg("b", 1))
	}
}

func TestACSeriesResonance(t *testing.T) {
	// Series RLC driven by current: node impedance dips to R at resonance.
	r, l, cap := 2.0, 1e-6, 1e-9
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*cap))
	c := NewCircuit()
	c.I("iac", "a", "0", DC(0))
	c.R("r1", "a", "b", r)
	c.L("l1", "b", "c", l, 0)
	c.C("c1", "c", "0", cap, 0)
	res, err := c.AC([]float64{f0 / 10, f0, f0 * 10}, "iac")
	if err != nil {
		t.Fatal(err)
	}
	zRes := res.Mag("a", 1)
	if math.Abs(zRes-r) > 0.05*r {
		t.Errorf("resonant impedance %v, want ~%v", zRes, r)
	}
	if res.Mag("a", 0) < 5*r || res.Mag("a", 2) < 5*r {
		t.Errorf("off-resonance impedance should be much larger: %v, %v",
			res.Mag("a", 0), res.Mag("a", 2))
	}
}

// Cross-validation: the analytic PDN ladder impedance must match the AC
// analysis of the equivalent netlist across six decades.
func TestACMatchesPDNImpedance(t *testing.T) {
	// The case-study off-chip ladder (pdn.TypicalOffChip) with 80 nF of die
	// decap behind 1.5 mOhm of grid.
	stages := []pdn.Stage{
		{Name: "board", R: 0.4e-3, L: 1.2e-9, C: 300e-6, ESR: 0.6e-3},
		{Name: "package", R: 0.5e-3, L: 80e-12, C: 4e-6, ESR: 1.0e-3},
		{Name: "die", R: 1.5e-3, L: 10e-12, C: 80e-9, ESR: 0.3e-3},
	}
	net, err := pdn.New(stages...)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit()
	// Build the ladder: source node shorted to ground (ideal source), load
	// node driven with a 1 A AC current source.
	prev := "0"
	for i, s := range stages {
		node := nodeName(i)
		c.R(nodeName(i)+"_r", prev, node+"_l", s.R)
		c.L(nodeName(i)+"_ind", node+"_l", node, s.L, 0)
		if s.ESR > 0 {
			c.R(node+"_esr", node, node+"_c", s.ESR)
			c.C(node+"_cap", node+"_c", "0", s.C, 0)
		} else {
			c.C(node+"_cap", node, "0", s.C, 0)
		}
		prev = node
	}
	c.I("iac", prev, "0", DC(0))

	var freqs []float64
	for d := 3.0; d <= 9; d += 0.25 {
		freqs = append(freqs, math.Pow(10, d))
	}
	res, err := c.AC(freqs, "iac")
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range freqs {
		zSpice := res.Mag(prev, k)
		zModel := cmplx.Abs(net.Impedance(f))
		if rel := math.Abs(zSpice-zModel) / math.Max(zModel, 1e-9); rel > 0.02 {
			t.Errorf("f=%.3g Hz: spice %v vs analytic %v (%.1f%% off)",
				f, zSpice, zModel, rel*100)
		}
	}
}

func nodeName(i int) string {
	return string(rune('p'+i)) + "n"
}

func TestACValidation(t *testing.T) {
	c := NewCircuit()
	c.V("v1", "a", "0", DC(1))
	c.R("r1", "a", "0", 10)
	if _, err := c.AC(nil, "v1"); err == nil {
		t.Error("empty frequency list must fail")
	}
	if _, err := c.AC([]float64{1e3}, "nope"); err == nil {
		t.Error("unknown AC source must fail")
	}
}

func TestACSwitchStateFrozen(t *testing.T) {
	// A switch closed at t=0 conducts in AC analysis.
	c := NewCircuit()
	c.V("vac", "a", "0", DC(0))
	c.SW("s1", "a", "b", 1, func(t float64) bool { return true })
	c.R("r1", "b", "0", 999)
	res, err := c.AC([]float64{1e3}, "vac")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mag("b", 0)-0.999) > 1e-6 {
		t.Errorf("closed switch divider = %v", res.Mag("b", 0))
	}
	// And an open one blocks.
	c2 := NewCircuit()
	c2.V("vac", "a", "0", DC(0))
	c2.SW("s1", "a", "b", 1, func(t float64) bool { return false })
	c2.R("r1", "b", "0", 999)
	res2, err := c2.AC([]float64{1e3}, "vac")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mag("b", 0) > 1e-6 {
		t.Errorf("open switch leaked %v", res2.Mag("b", 0))
	}
}
