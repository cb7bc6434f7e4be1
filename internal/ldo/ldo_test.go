package ldo

import (
	"errors"
	"math"
	"testing"

	"ivory/internal/ivr"
	"ivory/internal/tech"

	"ivory/internal/numeric"
)

func baseConfig() Config {
	return Config{
		Node:    tech.MustLookup("45nm"),
		VIn:     1.8,
		VOut:    1.0,
		GPass:   10,
		COut:    20e-9,
		FSample: 100e6,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(baseConfig()); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Node = nil },
		func(c *Config) { c.VIn = 0 },
		func(c *Config) { c.VOut = 2.0 }, // above VIn
		func(c *Config) { c.GPass = 0 },
		func(c *Config) { c.COut = 0 },
		func(c *Config) { c.FSample = 0 },
		func(c *Config) { c.CurrentEfficiency = 1.5 },
		func(c *Config) { c.Interleave = -1 },
	}
	for i, mut := range cases {
		cfg := baseConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestEfficiencyTracksConversionRatio(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Evaluate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.99 * 1.0 / 1.8
	if math.Abs(m.Efficiency-want) > 0.02 {
		t.Errorf("efficiency %v, want ~%v", m.Efficiency, want)
	}
	if m.Loss.Dropout <= 0 {
		t.Error("dropout loss must dominate")
	}
}

func TestDropoutLimit(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Headroom 0.8 V at GPass 10 S -> 8 A limit.
	if math.Abs(d.MaxCurrent()-8) > 1e-12 {
		t.Errorf("MaxCurrent = %v, want 8", d.MaxCurrent())
	}
	_, err = d.Evaluate(9)
	var inf *ivr.InfeasibleError
	if !errors.As(err, &inf) {
		t.Errorf("expected dropout infeasibility, got %v", err)
	}
}

func TestRippleBehaviour(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1 := d.Ripple(1.0)
	if r1 <= 0 {
		t.Fatal("ripple must be positive under load")
	}
	// Faster sampling cuts ripple proportionally.
	cfg := baseConfig()
	cfg.FSample = 200e6
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d2.Ripple(1.0)-r1/2) > 1e-12 {
		t.Error("ripple should scale as 1/FSample")
	}
	// Interleaving cuts ripple too.
	cfg = baseConfig()
	cfg.Interleave = 4
	d4, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d4.Ripple(1.0)-r1/4) > 1e-12 {
		t.Error("ripple should scale as 1/Interleave")
	}
	if d.Ripple(0) != 0 {
		t.Error("no ripple without load")
	}
}

func TestEfficiencyCurveIsLinear(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	vout, eff := efficiencyCurve(d, 1.0, 0.5, 1.5, 11)
	if len(vout) < 10 {
		t.Fatalf("curve too short: %d", len(vout))
	}
	// Check linearity: eff/vout ratio nearly constant.
	ratio0 := eff[0] / vout[0]
	for i := range vout {
		r := eff[i] / vout[i]
		if math.Abs(r-ratio0)/ratio0 > 0.03 {
			t.Errorf("efficiency not linear in VOut at %v: ratio %v vs %v", vout[i], r, ratio0)
		}
	}
}

func TestAreaPositiveAndMonotonic(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Area() <= 0 {
		t.Fatal("area must be positive")
	}
	cfg := baseConfig()
	cfg.GPass = 50
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Area() <= d.Area() {
		t.Error("bigger pass array must use more area")
	}
}

func TestNegativeLoadRejected(t *testing.T) {
	d, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Evaluate(-1); err == nil {
		t.Error("negative load must fail")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := baseConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Config()
	if !numeric.ApproxEqual(got.CurrentEfficiency, defaultEtaI, 0) || got.Interleave != 1 {
		t.Errorf("defaults not applied: %+v", got)
	}
}

// efficiencyCurve sweeps the regulation target from vLo to vHi at fixed
// load and returns the achieved V_out and efficiency of every feasible
// point.
func efficiencyCurve(d *Design, iLoad, vLo, vHi float64, points int) (vout, eff []float64) {
	for k := 0; k < points; k++ {
		cfg := d.Config()
		cfg.VOut = vLo + (vHi-vLo)*float64(k)/float64(points-1)
		dd, err := New(cfg)
		if err != nil {
			continue
		}
		m, err := dd.Evaluate(iLoad)
		if err != nil {
			continue
		}
		vout = append(vout, m.VOut)
		eff = append(eff, m.Efficiency)
	}
	return vout, eff
}
