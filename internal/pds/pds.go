// Package pds composes complete power-delivery subsystems — off-chip VRM +
// PDN + optional on-chip IVRs + digital loads — and evaluates them the way
// the paper's case study does (§5): workload-driven voltage-noise traces
// per configuration (Figs. 10-11), guardband extraction, and the final
// source-to-core power breakdown and delivery efficiency (Fig. 13).
//
// The configuration is a Rail, and it is the only variable: one
// System.Simulate and one System.Breakdown serve every rail.
//
//   - Off-chip VRM: conversion at the board, the full PDN carries the core
//     current at core voltage — large IR drop and the package-resonance
//     first droop set a wide guardband.
//   - Centralized / distributed IVRs: the PDN carries current at the board
//     voltage (3.3 V), an on-chip SC converter regulates near the load, and
//     distributing N IVRs shrinks the residual on-chip grid impedance per
//     core by ~1/N — the mechanism behind the paper's finding that four
//     distributed IVRs minimize noise.
//   - Digital LDO: a centralized on-chip linear regulator fed from a board
//     rail just above core voltage — IVR-like regulation, off-chip-like
//     PDN current.
package pds

import (
	"context"
	"fmt"

	"ivory/internal/buck"
	"ivory/internal/dynamic"
	"ivory/internal/ldo"
	"ivory/internal/numeric"
	"ivory/internal/pdn"
	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/workload"
)

// System describes the manycore platform under study.
type System struct {
	// Cores is the number of SM-class cores (the paper uses 4).
	Cores int
	// TDPPerCore is each core's average power (W) at nominal voltage.
	TDPPerCore float64
	// VNominal is the core's nominal supply (V).
	VNominal float64
	// VSource is the board supply feeding the PDS (V).
	VSource float64
	// Load is the per-core current model.
	Load workload.LoadModel
	// GridR and GridL are the on-chip grid impedance from a centralized
	// regulation point to a core; distributing N IVRs divides both by N.
	GridR, GridL float64
	// Network is the off-chip PDN (board + package + die).
	Network *pdn.Network
	// Seed makes workload synthesis reproducible.
	Seed int64
}

// Validate checks the system description.
func (s *System) Validate() error {
	if s.Cores < 1 {
		return fmt.Errorf("pds: need at least one core")
	}
	if s.TDPPerCore <= 0 || s.VNominal <= 0 || s.VSource <= s.VNominal {
		return fmt.Errorf("pds: TDPPerCore, VNominal must be positive and VSource above VNominal")
	}
	if err := s.Load.Validate(); err != nil {
		return err
	}
	if s.GridR < 0 || s.GridL < 0 {
		return fmt.Errorf("pds: negative grid impedance")
	}
	if s.Network == nil {
		return fmt.Errorf("pds: off-chip network is required")
	}
	return nil
}

// NoiseResult is the outcome of one configuration x benchmark simulation.
type NoiseResult struct {
	// Config names the PDS configuration ("off-chip VRM", "1 IVR", ...).
	Config string
	// Benchmark is the workload name.
	Benchmark string
	// Times and VCore sample the worst core's supply voltage. They are nil
	// when the simulation ran with SimOptions.KeepTrace false.
	Times, VCore []float64
	// VStats is the distribution summary of VCore, computed during the
	// simulation so it survives even when the trace itself is dropped.
	VStats numeric.Summary
	// NoiseVpp is max-min of VCore.
	NoiseVpp float64
	// WorstDroop is VNominal - min(VCore).
	WorstDroop float64
}

func (s *System) coreCurrents(src workload.Source, dt float64, n int, v float64) [][]float64 {
	out := make([][]float64, s.Cores)
	for c := 0; c < s.Cores; c++ {
		p := src.PowerTraceInto(nil, s.TDPPerCore, dt, n, benchStreamSeed(s.Seed, src.TraceName(), c))
		out[c] = s.Load.CurrentTrace(p, v)
	}
	return out
}

// sumTracesInto sums traces sample-wise into dst (grown when too small; may
// be nil). An empty trace set returns nil.
func sumTracesInto(dst []float64, traces [][]float64) []float64 {
	if len(traces) == 0 {
		return nil
	}
	n := len(traces[0])
	out := dst
	if cap(out) < n {
		out = make([]float64, n)
	} else {
		out = out[:n]
	}
	copy(out, traces[0])
	for _, tr := range traces[1:] {
		for i, v := range tr {
			out[i] += v
		}
	}
	return out
}

// gridDropInto subtracts the local grid IR + L·di/dt drop of the first
// core's current from the regulated node voltage, into dst (may be nil).
//
// The k=0 sample intentionally carries no inductive term: both transient
// models enter the trace in steady state at the initial load (pdn.Transient
// applies a DC initial condition; the SC loop starts settled at its
// reference), so the segment current is flat across the first sample
// boundary — i[-1] ≡ i[0] and di/dt = 0. Differencing against an artificial
// zero-current prior sample would instead inject a spurious L·i[0]/dt
// turn-on droop into every noise statistic. A unit test pins this contract.
func gridDropInto(dst, vReg, iCore []float64, dt, r, l float64) []float64 {
	out := dst
	if cap(out) < len(vReg) {
		out = make([]float64, len(vReg))
	} else {
		out = out[:len(vReg)]
	}
	for k := range vReg {
		drop := iCore[k] * r
		if k > 0 && l > 0 {
			drop += l * (iCore[k] - iCore[k-1]) / dt
		}
		out[k] = vReg[k] - drop
	}
	return out
}

// Scratch holds the reusable buffers of one transient-engine worker: summed
// load currents, raw simulator output, decimated and derived traces, and the
// summary workspace. A zero Scratch is ready to use; buffers grow on first
// use and are recycled afterwards. A Scratch must not be shared between
// concurrently running simulations — give each worker its own.
type Scratch struct {
	total []float64     // summed load current
	ts    []float64     // PDN sample times
	vs    []float64     // PDN node voltages
	vReg  []float64     // decimated regulated voltage
	times []float64     // decimated sample times
	vCore []float64     // core voltage after grid drop
	stats []float64     // SummarizeInPlace workspace (gets permuted)
	tr    dynamic.Trace // SC simulator waveform
}

// SimOptions controls one simulation call of the transient engine.
type SimOptions struct {
	// KeepTrace retains Times and VCore on the result. When false the
	// engine still fills VStats/NoiseVpp/WorstDroop but the result holds no
	// trace, so box-plot cells never retain the full waveform.
	KeepTrace bool
	// Scratch recycles buffers across simulations; nil uses per-call
	// storage.
	Scratch *Scratch
}

func (o SimOptions) scratch() *Scratch {
	if o.Scratch != nil {
		return o.Scratch
	}
	return &Scratch{}
}

// grow returns a length-n slice backed by buf when its capacity suffices, or
// a fresh one otherwise. Contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// summarize fills the result's statistics from vCore via the scratch
// workspace (SummarizeInPlace permutes its input, so the trace is copied
// into scr.stats first) and, when requested, copies the trace out so the
// result never aliases scratch storage.
func (r *NoiseResult) summarize(scr *Scratch, times, vCore []float64, vNom float64, keepTrace bool) {
	scr.stats = grow(scr.stats, len(vCore))
	copy(scr.stats, vCore)
	r.VStats = numeric.SummarizeInPlace(scr.stats)
	if r.VStats.N > 0 {
		r.NoiseVpp = r.VStats.Max - r.VStats.Min
		r.WorstDroop = vNom - r.VStats.Min
	}
	if keepTrace {
		r.Times = append([]float64(nil), times...)
		r.VCore = append([]float64(nil), vCore...)
	}
}

// Simulate produces the worst core's supply-voltage trace for one rail
// running src (a workload.Benchmark or a PhaseSchedule) for T seconds at
// step dt. Every rail shares the load synthesis, the local grid drop and
// the statistics; the rail picks only the regulated node:
//
//   - OffChipVRM: regulation at the board, the PDN carrying the summed core
//     current at core voltage. The VRM output is assumed ripple-free (paper
//     §2.2), so all noise comes from PDN impedance.
//   - CentralizedIVR / DistributedIVR: reg.SC, the chip-level converter, is
//     split evenly across the N instances, each serving Cores/N cores and
//     clocked for its peak load. The first IVR is simulated.
//   - DigitalLDO: reg.LDO regulates all cores from a board-supplied input
//     rail at its VIn, assumed stiff (the same idealization the IVR path
//     applies to its 3.3 V feed), with the proportional controller the
//     paper-cited digital LDOs implement.
//
// The worst (first) core sits behind its regulation point's share of the
// on-chip grid: GridR/N, GridL/N for N distributed IVRs, the full span for
// every centralized style.
//
// Cancellation is polled inside the PDN and SC integration loops, so a
// cancelled run stops mid-cell; the LDO simulator is not cancellable, so
// its rail polls before and after the run. Returned Times/VCore are freshly
// allocated, never aliased to opt.Scratch, so results outlive the scratch
// they were built with.
func (s *System) Simulate(ctx context.Context, reg Regulator, src workload.Source, T, dt float64, opt SimOptions) (*NoiseResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkRegulator(reg); err != nil {
		return nil, err
	}
	steps := int(T / dt)
	if steps < 16 {
		return nil, fmt.Errorf("pds: trace too short (%d samples)", steps)
	}
	scr := opt.scratch()
	all := s.coreCurrentsCached(src, dt, steps, s.VNominal)
	if err := checkTraces(src, all, steps); err != nil {
		return nil, err
	}
	n := reg.Rail.ivrs()
	var times, vReg []float64
	var err error
	switch reg.Rail.Kind {
	case OffChipVRM:
		times, vReg, err = s.pdnNode(ctx, scr, all, T, dt, steps)
	case CentralizedIVR, DistributedIVR:
		times, vReg, err = s.ivrNode(ctx, scr, reg.SC, n, all[:s.Cores/n], T, dt, steps)
	case DigitalLDO:
		times, vReg, err = s.ldoNode(ctx, scr, reg.LDO, all, T, dt, steps)
	}
	if err != nil {
		return nil, err
	}
	scr.vCore = gridDropInto(scr.vCore, vReg, all[0][:len(vReg)], dt, s.GridR/float64(n), s.GridL/float64(n))
	res := &NoiseResult{
		Config:    reg.Rail.Label(),
		Benchmark: src.TraceName(),
	}
	res.summarize(scr, times, scr.vCore, s.VNominal, opt.KeepTrace)
	return res, nil
}

// checkRegulator validates the rail and that it carries the design it
// needs and can serve the system's cores.
func (s *System) checkRegulator(reg Regulator) error {
	r := reg.Rail
	if err := r.Validate(); err != nil {
		return err
	}
	switch r.Kind {
	case CentralizedIVR, DistributedIVR:
		n := r.ivrs()
		if n > s.Cores {
			return fmt.Errorf("pds: IVR count %d outside [1, %d]", n, s.Cores)
		}
		if s.Cores%n != 0 {
			return fmt.Errorf("pds: %d IVRs cannot evenly serve %d cores", n, s.Cores)
		}
		if reg.SC == nil {
			return fmt.Errorf("pds: nil SC design")
		}
	case DigitalLDO:
		if reg.LDO == nil {
			return fmt.Errorf("pds: nil LDO design")
		}
	}
	return nil
}

// pdnNode integrates the off-chip PDN under the summed load of all cores.
func (s *System) pdnNode(ctx context.Context, scr *Scratch, cores [][]float64, T, dt float64, steps int) (times, vReg []float64, err error) {
	scr.total = sumTracesInto(scr.total, cores)
	load := dynamic.Sampled(scr.total, dt)
	ts, vs, err := s.Network.TransientContext(ctx, s.VNominal, func(t float64) float64 { return load(t) }, dt, T, scr.ts, scr.vs)
	if err != nil {
		return nil, nil, err
	}
	scr.ts, scr.vs = ts, vs
	// Clip to steps samples for uniformity.
	if len(vs) > steps {
		ts, vs = ts[:steps], vs[:steps]
	}
	return ts, vs, nil
}

// ivrNode simulates one of n IVR instances, each a 1/n slice of the
// chip-level converter base, under the summed load of the cores it serves.
func (s *System) ivrNode(ctx context.Context, scr *Scratch, base *sc.Design, n int, served [][]float64, T, dt float64, steps int) (times, vReg []float64, err error) {
	cfg := base.Config()
	cfg.CTotal /= float64(n)
	cfg.GTotal /= float64(n)
	cfg.CDecap /= float64(n)
	if cfg.Interleave >= n {
		cfg.Interleave /= n
	}
	inst, err := sc.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("pds: per-IVR design: %w", err)
	}
	scr.total = sumTracesInto(scr.total, served)
	// Clock the hysteretic loop for the per-IVR worst-case load.
	_, iPk := numeric.MinMax(scr.total)
	params, err := dynamic.SCFromDesignAtLoad(inst, iPk*1.2)
	if err != nil {
		return nil, nil, fmt.Errorf("pds: IVR cannot sustain the peak load: %w", err)
	}
	sim := &dynamic.SCSimulator{P: params}
	// The step must resolve the interleaved pump ticks.
	nSlices := params.Interleave
	if nSlices == 0 {
		nSlices = 1
	}
	tick := 1 / (params.FClk * float64(nSlices))
	err = scr.refineAndDecimate(dt, tick, steps, func(dtSim float64) (*dynamic.Trace, error) {
		return sim.RunInto(ctx, &scr.tr, dynamic.Sampled(scr.total, dt), dynamic.Constant(s.VNominal), T, dtSim)
	})
	return scr.times, scr.vReg, err
}

// ldoNode simulates the centralized digital LDO under the summed load of
// all cores.
func (s *System) ldoNode(ctx context.Context, scr *Scratch, des *ldo.Design, cores [][]float64, T, dt float64, steps int) (times, vReg []float64, err error) {
	scr.total = sumTracesInto(scr.total, cores)
	_, iPk := numeric.MinMax(scr.total)
	if iPk > des.MaxCurrent() {
		return nil, nil, fmt.Errorf("pds: LDO cannot sustain the peak load: %.3g A exceeds the %.3g A dropout limit",
			iPk, des.MaxCurrent())
	}
	params := dynamic.LDOFromDesign(des)
	// Proportional multi-segment updates: the controller class the
	// paper-cited digital LDOs implement, and the one that can track
	// benchmark-scale load steps within a sampling period.
	params.Proportional = true
	sim := &dynamic.LDOSimulator{P: params}
	// The step must resolve the controller sampling period.
	err = scr.refineAndDecimate(dt, 1/params.FSample, steps, func(dtSim float64) (*dynamic.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr, err := sim.Run(dynamic.Sampled(scr.total, dt), dynamic.Constant(s.VNominal), T, dtSim)
		if err != nil {
			return nil, err
		}
		return tr, ctx.Err()
	})
	return scr.times, scr.vReg, err
}

// refineAndDecimate runs a regulator model at dt/k, the coarsest integer
// refinement of dt that resolves its control tick, then keeps every k-th
// sample in scr.times/scr.vReg so the regulated node lines up with the
// load samples.
func (scr *Scratch) refineAndDecimate(dt, tick float64, steps int, run func(dtSim float64) (*dynamic.Trace, error)) error {
	factor := 1
	for dt/float64(factor) > tick {
		factor++
	}
	tr, err := run(dt / float64(factor))
	if err != nil {
		return err
	}
	scr.vReg = grow(scr.vReg, steps)
	scr.times = grow(scr.times, steps)
	for k := 0; k < steps; k++ {
		scr.vReg[k] = tr.V[k*factor]
		scr.times[k] = tr.Times[k*factor]
	}
	return nil
}

// checkTraces rejects a workload source that produced no (or truncated)
// traces — an invalid PhaseSchedule is the one Source that can fail
// synthesis, and it fails by returning nil.
func checkTraces(src workload.Source, traces [][]float64, n int) error {
	for _, tr := range traces {
		if len(tr) < n {
			return fmt.Errorf("pds: workload source %q produced no usable trace (invalid schedule?)", src.TraceName())
		}
	}
	return nil
}

// Breakdown itemizes source-to-core power for one configuration (Fig. 13).
type Breakdown struct {
	// Config names the configuration.
	Config string
	// PCoreUseful is the computation power at nominal voltage (W).
	PCoreUseful float64
	// PMargin is the extra core power burned because the supply must sit
	// above nominal by the guardband (dynamic power rises ~quadratically).
	PMargin float64
	// PGridIR is on-chip grid conduction loss (W).
	PGridIR float64
	// PIVRLoss is the on-chip regulator's (IVR or LDO) conversion loss
	// (W); zero for the off-chip case.
	PIVRLoss float64
	// PPDNIR is the off-chip board+package conduction loss (W).
	PPDNIR float64
	// PVRMLoss is the off-chip VRM conversion loss (W).
	PVRMLoss float64
	// PSource is the total power drawn from the source (W).
	PSource float64
	// Efficiency is PCoreUseful / PSource — the paper's power-delivery
	// efficiency metric.
	Efficiency float64
}

// BreakdownParams supplies what the power ladder needs beyond the rail:
// the guardband and the on-chip regulator's measured efficiency.
type BreakdownParams struct {
	// Margin is the voltage guardband (V) from the noise analysis.
	Margin float64
	// RegulatorEfficiency is the on-chip regulator's (IVR or LDO)
	// conversion efficiency at the operating point; ignored for the
	// off-chip VRM.
	RegulatorEfficiency float64
	// LDOHeadroomV is the digital LDO's input headroom above the operating
	// voltage (V); used only by the DigitalLDO rail.
	LDOHeadroomV float64
}

// ivrFeedEfficiency is the board-side efficiency of an IVR rail: the 3.3 V
// board supply reaches the IVRs through the PDN with only light
// conditioning.
const ivrFeedEfficiency = 0.97

// Breakdown computes the steady-state power ladder of one rail at full
// activity, from the cores back to the board source. The cores run at
// VNominal + Margin, so dynamic power rises with V² at fixed frequency (the
// load model's leakage, which scales faster, is folded into the same
// factor), and each core sits behind its regulation point's share of the
// grid, as in Simulate. The rail then sets the rest of the ladder:
//
//   - OffChipVRM: the board VRM (BoardVRMEfficiency) converts the source
//     to the operating voltage and the PDN carries the core current at it.
//   - CentralizedIVR / DistributedIVR: the PDN carries the IVR input
//     current at VSource, fed by a light-conditioning board stage.
//   - DigitalLDO: the board VRM produces the LDO input rail at the
//     operating voltage plus LDOHeadroomV, and the PDN carries the chip
//     current at that rail — barely above core voltage, so the conduction
//     loss stays off-chip-VRM-like, the structural handicap of LDO rails.
func (s *System) Breakdown(r Rail, p BreakdownParams) (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	if err := r.Validate(); err != nil {
		return Breakdown{}, err
	}
	if p.Margin < 0 {
		return Breakdown{}, fmt.Errorf("pds: negative margin")
	}
	switch r.Kind {
	case CentralizedIVR, DistributedIVR:
		if p.RegulatorEfficiency <= 0 || p.RegulatorEfficiency > 1 {
			return Breakdown{}, fmt.Errorf("pds: IVR efficiency %g outside (0, 1]", p.RegulatorEfficiency)
		}
	case DigitalLDO:
		if p.LDOHeadroomV <= 0 {
			return Breakdown{}, fmt.Errorf("pds: LDO headroom %g must be positive", p.LDOHeadroomV)
		}
		if p.RegulatorEfficiency <= 0 || p.RegulatorEfficiency > 1 {
			return Breakdown{}, fmt.Errorf("pds: LDO efficiency %g outside (0, 1]", p.RegulatorEfficiency)
		}
	}
	b := Breakdown{Config: r.Label()}
	pCore := s.TDPPerCore * float64(s.Cores)
	b.PCoreUseful = pCore
	vOp := s.VNominal + p.Margin
	scale := vOp * vOp / (s.VNominal * s.VNominal)
	pCoreActual := pCore * scale
	b.PMargin = pCoreActual - pCore

	iCore := pCoreActual / float64(s.Cores) / vOp
	b.PGridIR = float64(s.Cores) * iCore * iCore * (s.GridR / float64(r.ivrs()))
	rPDN := s.Network.TotalR()
	var vrmOut, vrmEff float64
	var err error
	if r.Kind == OffChipVRM {
		// The PDN carries the core current at the operating voltage. The
		// grid loss stays out of that current: the pinned Fig. 13 and
		// hybrid results are computed this way.
		iPDN := pCoreActual / vOp
		b.PPDNIR = iPDN * iPDN * rPDN
		vrmOut = pCoreActual + b.PGridIR + b.PPDNIR
		vrmEff, err = BoardVRMEfficiency(s.VSource, vOp, pCore)
	} else {
		regOut := pCoreActual + b.PGridIR
		eff := p.RegulatorEfficiency
		b.PIVRLoss = regOut * (1 - eff) / eff
		regIn := regOut + b.PIVRLoss
		vIn := s.VSource
		vrmEff = ivrFeedEfficiency
		if r.Kind == DigitalLDO {
			vIn = vOp + p.LDOHeadroomV
			vrmEff, err = BoardVRMEfficiency(s.VSource, vIn, pCore)
		}
		iPDN := regIn / vIn
		b.PPDNIR = iPDN * iPDN * rPDN
		vrmOut = regIn + b.PPDNIR
	}
	if err != nil {
		return Breakdown{}, err
	}
	b.PVRMLoss = vrmOut * (1 - vrmEff) / vrmEff
	b.PSource = vrmOut + b.PVRMLoss
	b.Efficiency = b.PCoreUseful / b.PSource
	return b, nil
}

// BoardVRMEfficiency evaluates the off-chip VRM — a surface-mount buck at
// low frequency, built from the same buck model as the on-chip designs (the
// paper's commensurate-modeling principle) — producing vOut at power pOut
// from the board rail vIn.
func BoardVRMEfficiency(vIn, vOut, pOut float64) (float64, error) {
	iLoad := pOut / vOut
	cfg := buck.Config{
		Node:       tech.MustLookup("130nm"), // board-class silicon
		Inductor:   tech.SurfaceMount,
		OutCap:     tech.MIMCap,
		VIn:        vIn,
		VOut:       vOut,
		L:          300e-9,
		COut:       20e-6,
		FSw:        2e6,
		GHigh:      50,
		GLow:       80,
		Interleave: 4,
	}
	d, err := buck.New(cfg)
	if err != nil {
		return 0, err
	}
	d, err = d.OptimizeConductances(iLoad)
	if err != nil {
		return 0, err
	}
	m, err := d.Evaluate(iLoad)
	if err != nil {
		return 0, err
	}
	// Board-level realities the on-chip model does not include: the input
	// filter network and sense/trace resistance between the VRM and the
	// board plane (~1.2 mOhm at the output current), plus the analog
	// controller's quiescent power.
	rTrace := 1.2e-3
	pTrace := iLoad * iLoad * rTrace
	pCtl := 0.25
	loss := m.Loss.Total() + pTrace + pCtl
	return m.POut / (m.POut + loss), nil
}
