// Package ldo implements Ivory's model of digital low-dropout linear
// regulators. Following recent design trends the paper cites, the feedback
// path is a clocked digital comparator/controller rather than an analog Gm
// amplifier, which makes transient response a function of the sampling
// frequency. A linear regulator's efficiency is intrinsically bounded by
// the conversion ratio: η = η_I · V_out/V_in, where the current efficiency
// η_I (≈99 % in state-of-the-art designs at moderate load) accounts for
// quiescent and bias currents.
package ldo

import (
	"fmt"

	"ivory/internal/ivr"
	"ivory/internal/tech"
)

// Config parameterizes a digital LDO design point.
type Config struct {
	// Node is the technology node.
	Node *tech.Node
	// VIn and VOut are the input voltage and regulation target (V).
	VIn, VOut float64
	// GPass is the fully-on conductance of the pass device array (S); it
	// bounds the dropout the regulator can sustain at full load.
	GPass float64
	// COut is the output capacitance (F).
	COut float64
	// FSample is the digital feedback sampling frequency (Hz).
	FSample float64
	// CurrentEfficiency is η_I; zero selects the default 0.99.
	CurrentEfficiency float64
	// Interleave splits the pass array into independently clocked segments
	// (phase-spread update), reducing the limit-cycle ripple; defaults to 1.
	Interleave int
}

// Design is a validated LDO.
type Design struct {
	cfg   Config
	dev   tech.SwitchDevice
	stack int
	width float64
}

const (
	defaultEtaI = 0.99
	routingTax  = 1.10
	ctrlGates   = 1200
	ctrlStaticW = 40e-6
)

// New validates the configuration and sizes the pass device.
func New(cfg Config) (*Design, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("ldo: Config.Node is required")
	}
	if cfg.VIn <= 0 || cfg.VOut <= 0 {
		return nil, fmt.Errorf("ldo: voltages must be positive")
	}
	if cfg.VOut >= cfg.VIn {
		return nil, ivr.Infeasible("ldo", "VOut %.3g V must be below VIn %.3g V", cfg.VOut, cfg.VIn)
	}
	if cfg.GPass <= 0 || cfg.COut <= 0 || cfg.FSample <= 0 {
		return nil, fmt.Errorf("ldo: GPass, COut, and FSample must be positive")
	}
	if cfg.CurrentEfficiency == 0 {
		cfg.CurrentEfficiency = defaultEtaI
	}
	if cfg.CurrentEfficiency <= 0 || cfg.CurrentEfficiency > 1 {
		return nil, fmt.Errorf("ldo: current efficiency %g outside (0, 1]", cfg.CurrentEfficiency)
	}
	if cfg.Interleave == 0 {
		cfg.Interleave = 1
	}
	if cfg.Interleave < 1 {
		return nil, fmt.Errorf("ldo: interleave %d must be >= 1", cfg.Interleave)
	}
	// The pass device must survive VIn on its drain when the output is
	// discharged.
	dev, stack, err := cfg.Node.SwitchForVoltage(cfg.VIn)
	if err != nil {
		return nil, err
	}
	d := &Design{cfg: cfg, dev: dev, stack: stack}
	d.width = float64(stack) * dev.ROnWidth * cfg.GPass
	return d, nil
}

// Config returns the (defaulted) configuration.
func (d *Design) Config() Config { return d.cfg }

// MaxCurrent returns the largest load the regulator can pass while holding
// the target output: the dropout limit (VIn-VOut)·GPass.
func (d *Design) MaxCurrent() float64 {
	return (d.cfg.VIn - d.cfg.VOut) * d.cfg.GPass
}

// Ripple returns the limit-cycle output ripple of the clocked feedback: the
// load discharges COut for one sampling period before the pass array
// updates, and interleaved segments phase-spread the correction.
func (d *Design) Ripple(iLoad float64) float64 {
	if iLoad <= 0 {
		return 0
	}
	return iLoad / (d.cfg.COut * d.cfg.FSample * float64(d.cfg.Interleave))
}

// Evaluate computes the static metrics at load current iLoad (A).
func (d *Design) Evaluate(iLoad float64) (ivr.Metrics, error) {
	cfg := d.cfg
	if iLoad < 0 {
		return ivr.Metrics{}, fmt.Errorf("ldo: negative load current")
	}
	if iLoad > d.MaxCurrent() {
		return ivr.Metrics{}, ivr.Infeasible("ldo",
			"load %.3g A exceeds the %.3g A dropout limit at %.3g V headroom",
			iLoad, d.MaxCurrent(), cfg.VIn-cfg.VOut)
	}
	var loss ivr.LossBreakdown
	// Intrinsic series-pass dissipation.
	loss.Dropout = (cfg.VIn - cfg.VOut) * iLoad
	// Quiescent / bias current drawn from the input at full voltage.
	iq := iLoad * (1/cfg.CurrentEfficiency - 1)
	loss.Leakage = iq * cfg.VIn
	// Digital controller and comparator.
	eg := cfg.Node.LogicEnergyPerGateJ
	loss.Control = ctrlStaticW + cfg.FSample*eg*float64(ctrlGates*cfg.Interleave)
	// Pass-array gate activity: only a fraction of segments toggle per
	// sample in steady state; charge a tenth of the array per cycle.
	vdr := d.dev.VDrive
	loss.GateDrive = 0.1 * cfg.FSample * d.dev.CGate(d.width) * vdr * vdr

	pOut := cfg.VOut * iLoad
	eff := 0.0
	if pOut > 0 {
		eff = pOut / (pOut + loss.Total())
	}
	m := ivr.Metrics{
		Topology:   "digital LDO",
		VIn:        cfg.VIn,
		VOut:       cfg.VOut,
		ILoad:      iLoad,
		POut:       pOut,
		Loss:       loss,
		Efficiency: eff,
		RippleVpp:  d.Ripple(iLoad),
		FSw:        cfg.FSample,
		AreaDie:    d.Area(),
	}
	if err := m.Finite(); err != nil {
		return ivr.Metrics{}, err
	}
	return m, nil
}

// Area returns the die area (m²): pass array, output cap, controller.
func (d *Design) Area() float64 {
	cfg := d.cfg
	a := float64(d.stack) * d.dev.Area(d.width)
	// Output decap uses the densest available option.
	capOpt, err := cfg.Node.Capacitor(tech.DeepTrench)
	if err != nil {
		capOpt, _ = cfg.Node.Capacitor(tech.MOSCap)
	}
	a += capOpt.Area(cfg.COut)
	f := cfg.Node.FeatureM
	a += float64(ctrlGates*cfg.Interleave) * 40 * f * f * 25
	return a * routingTax
}
