package core

import (
	"fmt"
	"reflect"
	"testing"

	"ivory/internal/sc"
	"ivory/internal/tech"
	"ivory/internal/topology"
)

// TestPlanDesignMatchesNew checks that sizing from a precomputed switch
// plan — the exploration engine's path — builds exactly the design
// sc.New builds: same errors, bit-identical metrics and equal element
// values, for every built-in node, every topology the SC enumeration can
// produce, both allocation policies and a spread of sizing points.
func TestPlanDesignMatchesNew(t *testing.T) {
	type topoAt struct {
		an        *topology.Analysis
		vin, vout float64
	}
	seen := map[string]bool{}
	var tops []topoAt
	for _, vin := range []float64{1.2, 1.8, 3.3} {
		for i := 1; float64(i)*0.05 < vin; i++ {
			vout := float64(i) * 0.05
			for _, top := range scRatios(Spec{VIn: vin, VOut: vout}) {
				an, err := top.Analyze()
				if err != nil || seen[an.Name] {
					continue
				}
				seen[an.Name] = true
				tops = append(tops, topoAt{an, vin, vout})
			}
		}
	}
	if len(tops) < 12 {
		t.Fatalf("enumerated %d SC topologies, want all 12 ratios", len(tops))
	}
	points := []struct {
		cTot, gTot float64
		interleave int
	}{{20e-9, 50, 1}, {100e-9, 400, 4}, {400e-9, 2000, 16}}
	const iLoad = 0.2
	compared := 0
	for _, node := range builtinNodes {
		n := tech.MustLookup(node)
		for _, ta := range tops {
			for _, uniform := range []bool{false, true} {
				plan, perr := sc.NewPlan(ta.an, n, ta.vin, uniform)
				for _, pt := range points {
					cfg := sc.Config{
						Analysis: ta.an, Node: n, CapKind: tech.MIMCap,
						VIn: ta.vin, VOut: ta.vout,
						CTotal: pt.cTot, GTotal: pt.gTot, CDecap: pt.cTot / 9,
						FSwMax: 1e9, Interleave: pt.interleave,
						UniformSwitchAllocation: uniform,
					}
					where := fmt.Sprintf("%s %s uniform=%v %+v", node, ta.an.Name, uniform, pt)
					want, werr := sc.New(cfg)
					if perr != nil {
						if werr == nil {
							t.Errorf("%s: NewPlan fails (%v) but sc.New succeeds", where, perr)
						}
						continue
					}
					got, gerr := plan.Design(cfg)
					if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
						t.Errorf("%s: plan error %v, sc.New error %v", where, gerr, werr)
						continue
					}
					if gerr != nil {
						continue
					}
					if !reflect.DeepEqual(got.Config(), want.Config()) {
						t.Errorf("%s: config %+v, want %+v", where, got.Config(), want.Config())
					}
					gc, gr := got.ElementValues()
					wc, wr := want.ElementValues()
					if !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gr, wr) {
						t.Errorf("%s: element values differ", where)
					}
					gm, gerr := got.Evaluate(iLoad)
					wm, werr := want.Evaluate(iLoad)
					if (gerr == nil) != (werr == nil) {
						t.Errorf("%s: evaluate error %v, want %v", where, gerr, werr)
						continue
					}
					if !reflect.DeepEqual(gm, wm) {
						t.Errorf("%s: metrics %+v, want %+v", where, gm, wm)
					}
					if gerr == nil {
						compared++
					}
				}
			}
		}
	}
	// Guard against a vacuous pass: at least half the sizing points must
	// evaluate (the rest exercise the error paths).
	if want := len(builtinNodes) * len(tops) * len(points); compared < want {
		t.Errorf("only %d designs evaluated, want at least %d", compared, want)
	}
}
