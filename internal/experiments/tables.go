package experiments

import (
	"context"
	"fmt"

	"ivory/internal/core"
	"ivory/internal/pdn"
	"ivory/internal/pds"
	"ivory/internal/workload"
)

// caseNode is the technology node the case study runs in. The paper's case
// study targets an embedded GPU with an IVR area budget scaled from Intel's
// 45 nm FIVR, so 45 nm is the reference node here.
const caseNode = "45nm"

// CaseSystem bundles the full case-study platform: the Table 1 parameters
// realized as a pds.System plus the chip-level design spec.
type CaseSystem struct {
	Spec   core.Spec
	System *pds.System
}

// NewCaseSystem builds the paper's Table 1 configuration: four Fermi-class
// SMs at 5 W each, 0.85 V nominal (+0.15 V legacy guardband at the board
// VRM), 3.3 V board supply, 20 mm² IVR area budget, up to 4 distributed
// IVRs, and the GPUVolt-style off-chip PDN.
func NewCaseSystem() (*CaseSystem, error) {
	net, err := pdn.TypicalOffChip(60e-9, 1.2e-3)
	if err != nil {
		return nil, err
	}
	sys := &pds.System{
		Cores:      4,
		TDPPerCore: 5,
		VNominal:   0.85,
		VSource:    3.3,
		Load:       workload.LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25},
		GridR:      3.5e-3,
		GridL:      50e-12,
		Network:    net,
		Seed:       seed,
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &CaseSystem{Spec: core.CaseStudySpec(caseNode), System: sys}, nil
}

// Table1 formats the case-study input parameters (paper Table 1).
func Table1() (string, error) {
	cs, err := NewCaseSystem()
	if err != nil {
		return "", err
	}
	s := cs.Spec
	sys := cs.System
	rows := [][]string{
		{"Max. area (mm2)", fmt.Sprintf("%.0f", s.AreaMax*1e6)},
		{"Total average power (W)", fmt.Sprintf("%.0f", sys.TDPPerCore*float64(sys.Cores))},
		{"Input / output (V)", fmt.Sprintf("%.1f / %.2f", s.VIn, s.VOut)},
		{"Core nominal voltage (V)", fmt.Sprintf("%.2f", sys.VNominal)},
		{"Max distributed IVRs", fmt.Sprintf("%d", sys.Cores)},
		{"Max load current (A)", fmt.Sprintf("%.1f", s.IMax)},
		{"Technology node", caseNode},
		{"Off-chip PDN R (mOhm)", fmt.Sprintf("%.2f", sys.Network.TotalR()*1e3)},
		{"On-chip grid R (mOhm) / L (pH)", fmt.Sprintf("%.1f / %.0f", sys.GridR*1e3, sys.GridL*1e12)},
	}
	return "Table 1 — case-study input parameters\n" + table([]string{"parameter", "value"}, rows), nil
}

// Table2Context runs the design-space exploration across 1/2/4 distributed
// IVRs (paper Table 2), with run control threaded into every per-count
// exploration of the distribution sweep.
func Table2Context(ctx context.Context) (*core.DistributionTable, error) {
	cs, err := NewCaseSystem()
	if err != nil {
		return nil, err
	}
	spec := cs.Spec
	spec.Context = ctx
	return core.ExploreDistribution(spec, []int{1, 2, 4})
}
