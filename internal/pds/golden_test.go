package pds

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"ivory/internal/ldo"
	"ivory/internal/numeric"
	"ivory/internal/pdn"
	"ivory/internal/tech"
	"ivory/internal/workload"
)

// goldenRail is one rail's pinned outcome on the case-study system.
type goldenRail struct {
	Rail       string
	Config     string
	VStats     numeric.Summary
	NoiseVpp   float64
	WorstDroop float64
	// TraceDigest is the FNV-1a 64 digest of the little-endian float bits
	// of Times, then VCore.
	TraceDigest string
	// Breakdown is the power ladder at the result's guardband.
	Breakdown Breakdown
}

// TestRailsGolden pins every rail of the case study — off-chip VRM,
// centralized, 2 and 4 distributed IVRs, digital LDO — running CFD for
// 10 µs at 5 ns: noise statistics, a digest of the full trace, and the
// power ladder at the measured guardband. The golden file is the
// behaviour reference for every rail and is never regenerated: any
// difference is a behaviour change.
func TestRailsGolden(t *testing.T) {
	net, err := pdn.TypicalOffChip(60e-9, 1.2e-3)
	if err != nil {
		t.Fatal(err)
	}
	s := &System{
		Cores: 4, TDPPerCore: 5, VNominal: 0.85, VSource: 3.3,
		Load:  workload.LoadModel{PNominal: 5, VNominal: 0.85, LeakFraction: 0.25},
		GridR: 3.5e-3, GridL: 50e-12, Network: net, Seed: 20170618,
	}
	const headroomV = 0.15
	iMax := s.TDPPerCore * float64(s.Cores) / s.VNominal
	lowDrop, err := ldo.New(ldo.Config{
		Node: tech.MustLookup("45nm"), VIn: s.VNominal + headroomV, VOut: s.VNominal,
		GPass: 2 * iMax / headroomV, COut: 80e-9 * iMax, FSample: 250e6, Interleave: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ivr := testDesign(t)
	cfd, _ := workload.Get("CFD")

	var got []goldenRail
	for _, tok := range []string{"vrm", "ivr", "ivr2", "ivr4", "ldo"} {
		r, err := ParseRail(tok)
		if err != nil {
			t.Fatal(err)
		}
		reg := Regulator{Rail: r, SC: ivr, LDO: lowDrop}
		nr, err := s.Simulate(context.Background(), reg, cfd, 10e-6, 5e-9, keep)
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		eff, err := reg.Efficiency(iMax)
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		bd, err := s.Breakdown(r, BreakdownParams{
			Margin: math.Max(nr.WorstDroop, 0), RegulatorEfficiency: eff, LDOHeadroomV: headroomV,
		})
		if err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, xs := range [][]float64{nr.Times, nr.VCore} {
			for _, x := range xs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				_, _ = h.Write(b[:])
			}
		}
		got = append(got, goldenRail{
			Rail: r.String(), Config: nr.Config, VStats: nr.VStats, NoiseVpp: nr.NoiseVpp,
			WorstDroop: nr.WorstDroop, TraceDigest: fmt.Sprintf("%016x", h.Sum64()), Breakdown: bd,
		})
	}
	js, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/rails_case_study.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(js, '\n'), want) {
		t.Errorf("rail outcomes differ from the golden file:\n%s", js)
	}
}
