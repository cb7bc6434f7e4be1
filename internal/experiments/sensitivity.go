package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"ivory/internal/core"
	"ivory/internal/numeric"
	"ivory/internal/sc"
	"ivory/internal/tech"
)

// VariationResult is a Monte-Carlo process-variation study of the
// case-study SC design. The paper notes that both SC and buck efficiency
// "is sensitive to device parameters which depend on technology and process
// options"; this quantifies that sensitivity: switch on-resistance, gate
// capacitance, and capacitor density are perturbed log-normally and the
// winning design is re-evaluated (same sizing — the fabricated design
// cannot re-optimize itself).
type VariationResult struct {
	// Samples is the Monte-Carlo count; Sigma the per-parameter relative
	// spread.
	Samples int
	Sigma   float64
	// Nominal is the unperturbed efficiency.
	Nominal float64
	// Stats summarizes the efficiency distribution.
	Stats numeric.Summary
	// FailFraction is the share of samples where the perturbed design
	// cannot reach the regulation target at full load.
	FailFraction float64
}

// VariationContext runs the Monte-Carlo study. ctx cancels the baseline
// exploration and is re-checked between Monte-Carlo samples.
func VariationContext(ctx context.Context, samples int, sigma float64) (*VariationResult, error) {
	if samples <= 0 {
		samples = 200
	}
	if sigma <= 0 {
		sigma = 0.10 // 10 % (3-sigma ~ 30 %): early-stage corner spread
	}
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	spec := cs.Spec
	spec.VOut = 0.9
	spec.Context = ctx
	res, err := core.Explore(spec)
	if err != nil {
		return nil, err
	}
	cand, ok := res.BestOfKind(core.KindSC)
	if !ok {
		return nil, fmt.Errorf("experiments: no SC design for the variation study")
	}
	baseCfg := cand.SC.Config()
	baseNode := baseCfg.Node
	out := &VariationResult{Samples: samples, Sigma: sigma, Nominal: cand.Metrics.Efficiency}

	rng := rand.New(rand.NewSource(seed))
	var effs []float64
	fails := 0
	for k := 0; k < samples; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		node := perturbNode(baseNode, sigma, rng, k)
		cfg := baseCfg
		cfg.Node = node
		// The fabricated capacitor bank shrinks/grows with density.
		capBase, err1 := baseNode.Capacitor(cfg.CapKind)
		capVar, err2 := node.Capacitor(cfg.CapKind)
		if err1 == nil && err2 == nil && capBase.DensityFPerM2 > 0 {
			cfg.CTotal *= capVar.DensityFPerM2 / capBase.DensityFPerM2
			cfg.CDecap *= capVar.DensityFPerM2 / capBase.DensityFPerM2
		}
		d, err := sc.New(cfg)
		if err != nil {
			fails++
			continue
		}
		m, err := d.Evaluate(spec.IMax)
		if err != nil {
			fails++
			continue
		}
		effs = append(effs, m.Efficiency)
	}
	out.Stats = numeric.Summarize(effs)
	out.FailFraction = float64(fails) / float64(samples)
	return out, nil
}

// perturbNode returns a copy of the node with log-normal-ish multiplicative
// perturbations on the process-sensitive parameters.
func perturbNode(n *tech.Node, sigma float64, rng *rand.Rand, k int) *tech.Node {
	mul := func() float64 {
		m := 1 + sigma*rng.NormFloat64()
		if m < 0.5 {
			m = 0.5
		}
		if m > 1.5 {
			m = 1.5
		}
		return m
	}
	out := *n
	out.Name = fmt.Sprintf("%s-mc%d", n.Name, k)
	// The draws come from one shared stream, so the maps are walked in
	// key order: Go's randomized map order would otherwise hand each
	// parameter a different draw on every run.
	out.Switches = map[tech.DeviceClass]tech.SwitchDevice{}
	for _, class := range sortedKeys(n.Switches) {
		sw := n.Switches[class]
		sw.ROnWidth *= mul()
		sw.CGatePerWidth *= mul()
		out.Switches[class] = sw
	}
	out.Capacitors = map[tech.CapacitorKind]tech.CapacitorOption{}
	for _, kind := range sortedKeys(n.Capacitors) {
		c := n.Capacitors[kind]
		c.DensityFPerM2 *= mul()
		out.Capacitors[kind] = c
	}
	out.Inductors = n.Inductors
	return &out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Format renders the study.
func (r *VariationResult) Format() string {
	s := r.Stats
	out := fmt.Sprintf("Extension — process-variation sensitivity (%d samples, %.0f%% sigma per parameter)\n",
		r.Samples, r.Sigma*100)
	out += fmt.Sprintf("nominal efficiency: %.1f%%\n", r.Nominal*100)
	out += fmt.Sprintf("distribution: min %.1f%%, Q1 %.1f%%, median %.1f%%, Q3 %.1f%%, max %.1f%% (std %.2f pp)\n",
		s.Min*100, s.Q1*100, s.Median*100, s.Q3*100, s.Max*100, s.Std*100)
	out += fmt.Sprintf("regulation failures at full load: %.1f%% of corners\n", r.FailFraction*100)
	return out
}

// NodeSweepRow is one technology node's best case-study design.
type NodeSweepRow struct {
	Node       string
	Kind       string
	Label      string
	Efficiency float64
	AreaMM2    float64
	FSwMHz     float64
	Feasible   bool
}

// NodeSweepResult explores the case-study spec across every built-in
// technology node — the cross-technology optimization the paper's
// conclusion highlights ("optimizing across technologies and topologies
// can yield efficiency and area savings otherwise missed").
type NodeSweepResult struct {
	Rows []NodeSweepRow
}

// NodeSweepContext runs the per-node exploration, with run control
// threaded into each per-node exploration.
func NodeSweepContext(ctx context.Context) (*NodeSweepResult, error) {
	out := &NodeSweepResult{}
	for _, name := range tech.Nodes() {
		spec := core.CaseStudySpec(name)
		spec.Context = ctx
		row := NodeSweepRow{Node: name}
		res, err := core.Explore(spec)
		if err != nil && ctx.Err() != nil {
			// Cancellation, not an infeasible node: stop the sweep.
			return nil, ctx.Err()
		}
		if err == nil {
			best := res.Best
			row.Kind = best.Kind.String()
			row.Label = best.Label
			row.Efficiency = best.Metrics.Efficiency
			row.AreaMM2 = best.Metrics.AreaDie * 1e6
			row.FSwMHz = best.Metrics.FSw / 1e6
			row.Feasible = true
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the sweep.
func (r *NodeSweepResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		if !row.Feasible {
			rows = append(rows, []string{row.Node, "-", "-", "-", "-", "-"})
			continue
		}
		rows = append(rows, []string{
			row.Node, row.Kind,
			fmt.Sprintf("%.1f", row.Efficiency*100),
			fmt.Sprintf("%.1f", row.AreaMM2),
			fmt.Sprintf("%.0f", row.FSwMHz),
			row.Label,
		})
	}
	return "Extension — best case-study design per technology node\n" +
		table([]string{"node", "kind", "eff(%)", "area(mm2)", "fsw(MHz)", "design"}, rows)
}
