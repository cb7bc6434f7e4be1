package pds

import (
	"fmt"
	"strconv"
	"strings"

	"ivory/internal/ivr"
	"ivory/internal/ldo"
	"ivory/internal/sc"
)

// RailKind classifies how a rail is regulated.
type RailKind int

const (
	// OffChipVRM regulates at the board: the PDN carries the load current
	// at core voltage.
	OffChipVRM RailKind = iota
	// CentralizedIVR regulates with one on-chip SC converter fed from the
	// board supply.
	CentralizedIVR
	// DistributedIVR splits the on-chip converter across Rail.N
	// instances, shrinking the residual grid impedance per block by 1/N.
	DistributedIVR
	// DigitalLDO regulates with a centralized digital LDO from a
	// board-supplied headroom rail.
	DigitalLDO
)

// Rail is one power-delivery configuration: the only variable of the
// paper's §5 case study, and the per-domain choice of a hybrid SoC.
type Rail struct {
	Kind RailKind
	// N is the instance count for DistributedIVR (>= 2); zero otherwise.
	N int
}

// IVRRail maps a case-study IVR count to its rail: 0 is the off-chip VRM,
// 1 the centralized IVR, n >= 2 n distributed IVRs.
func IVRRail(n int) Rail {
	switch {
	case n <= 0:
		return Rail{Kind: OffChipVRM}
	case n == 1:
		return Rail{Kind: CentralizedIVR}
	default:
		return Rail{Kind: DistributedIVR, N: n}
	}
}

// ivrs returns the number of on-chip regulation points sharing the grid:
// N for distributed IVRs, 1 for every centralized style (a board VRM
// reaches the cores across the same full grid span a centralized
// regulator does).
func (r Rail) ivrs() int {
	if r.Kind == DistributedIVR {
		return r.N
	}
	return 1
}

// Validate checks the rail.
func (r Rail) Validate() error {
	switch r.Kind {
	case OffChipVRM, CentralizedIVR, DigitalLDO:
		if r.N != 0 {
			return fmt.Errorf("pds: rail %v takes no instance count (got %d)", r.Kind, r.N)
		}
		return nil
	case DistributedIVR:
		if r.N < 2 {
			return fmt.Errorf("pds: distributed IVR rail needs N >= 2 (got %d)", r.N)
		}
		return nil
	default:
		return fmt.Errorf("pds: unknown rail kind %d", int(r.Kind))
	}
}

// String renders the compact wire/CLI token: "vrm", "ivr", "ivrN", "ldo".
func (r Rail) String() string {
	switch r.Kind {
	case OffChipVRM:
		return "vrm"
	case CentralizedIVR:
		return "ivr"
	case DistributedIVR:
		return "ivr" + strconv.Itoa(r.N)
	case DigitalLDO:
		return "ldo"
	}
	return fmt.Sprintf("rail(%d)", int(r.Kind))
}

// Label renders the descriptive form that names the rail in results
// (NoiseResult.Config, Breakdown.Config).
func (r Rail) Label() string {
	switch r.Kind {
	case OffChipVRM:
		return "off-chip VRM"
	case CentralizedIVR:
		return "centralized IVR"
	case DistributedIVR:
		return fmt.Sprintf("%d distributed IVRs", r.N)
	case DigitalLDO:
		return "digital LDO"
	}
	return r.String()
}

// ParseRail parses the compact token form String emits.
func ParseRail(s string) (Rail, error) {
	switch t := strings.ToLower(strings.TrimSpace(s)); {
	case t == "vrm" || t == "off-chip" || t == "offchip":
		return Rail{Kind: OffChipVRM}, nil
	case t == "ivr" || t == "ivr1":
		return Rail{Kind: CentralizedIVR}, nil
	case t == "ldo":
		return Rail{Kind: DigitalLDO}, nil
	case strings.HasPrefix(t, "ivr"):
		n, err := strconv.Atoi(t[len("ivr"):])
		if err != nil || n < 2 {
			return Rail{}, fmt.Errorf("pds: bad rail token %q (want vrm|ivr|ivrN|ldo)", s)
		}
		return Rail{Kind: DistributedIVR, N: n}, nil
	default:
		return Rail{}, fmt.Errorf("pds: bad rail token %q (want vrm|ivr|ivrN|ldo)", s)
	}
}

// Regulator pairs a rail with the on-chip design it needs. Simulate reads
// only the design matching the rail's kind.
type Regulator struct {
	Rail Rail
	// SC is the chip-level SC converter of an IVR rail, sized for the
	// whole system; Simulate splits it evenly across the rail's instances.
	SC *sc.Design
	// LDO is the digital LDO of a DigitalLDO rail.
	LDO *ldo.Design
}

// Area returns the on-chip regulator area the rail spends (m²): the whole
// chip-level SC converter for IVR rails (split across instances, not
// replicated), the LDO's area, zero for the off-chip VRM.
func (g Regulator) Area() float64 {
	switch g.Rail.Kind {
	case CentralizedIVR, DistributedIVR:
		return g.SC.Area()
	case DigitalLDO:
		return g.LDO.Area()
	}
	return 0
}

// Efficiency evaluates the on-chip regulator's conversion efficiency at
// load current iLoad (A), the BreakdownParams.RegulatorEfficiency of the
// rail. The off-chip VRM has no on-chip stage and reports 0.
func (g Regulator) Efficiency(iLoad float64) (float64, error) {
	var m ivr.Metrics
	var err error
	switch g.Rail.Kind {
	case CentralizedIVR, DistributedIVR:
		m, err = g.SC.Evaluate(iLoad)
	case DigitalLDO:
		m, err = g.LDO.Evaluate(iLoad)
	}
	return m.Efficiency, err
}
