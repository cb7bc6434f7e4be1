package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"ivory/internal/ivr"
)

// goldenExplore is one exploration's pinned outcome.
type goldenExplore struct {
	Node   string
	Spec   string
	Search string
	// Err is the exploration error, when the run fails as a whole.
	Err string `json:",omitempty"`

	Rejected      int
	Evaluated     int
	Accepted      int
	PrunedBound   int
	PrunedHalving int
	FrontSize     int
	Ranked        int
	// RankDigest is the FNV-1a 64 digest of candidateKey over the ranked
	// candidates, each key followed by a newline.
	RankDigest string
	BestLabel  string
	Best       ivr.Metrics
}

// builtinNodes lists the technology database's built-in nodes.
var builtinNodes = []string{"130nm", "90nm", "65nm", "45nm", "32nm", "22nm", "14nm", "10nm"}

// goldenSpecs span the SC ratio bands the engine enumerates: step-down
// from an I/O rail (3:1, 5:2, 8:3, 7:3), from a 1.8 V rail (2:1, 5:3,
// 3:2), and a shallow 5:4 conversion.
var goldenSpecs = []struct {
	name string
	spec Spec
}{
	{"3v3-1v0", Spec{VIn: 3.3, VOut: 1.0, IMax: 6, AreaMax: 6e-6}},
	{"1v8-0v8", Spec{VIn: 1.8, VOut: 0.8, IMax: 2, AreaMax: 3e-6}},
	{"1v2-0v9", Spec{VIn: 1.2, VOut: 0.9, IMax: 1, AreaMax: 2e-6}},
}

// TestExploreGolden pins every built-in node × search strategy × spec:
// rejection and pruning counts, a digest of the full ranked candidate
// list, and the winner's label and metrics at full precision. The golden
// file is the behaviour reference for the exploration engine and is never
// regenerated: any difference is a behaviour change.
func TestExploreGolden(t *testing.T) {
	var got []goldenExplore
	for _, node := range builtinNodes {
		for _, search := range []SearchStrategy{SearchExhaustive, SearchAdaptive} {
			for _, gs := range goldenSpecs {
				spec := gs.spec
				spec.NodeName = node
				spec.Search = search
				g := goldenExplore{Node: node, Spec: gs.name, Search: fmt.Sprint(search)}
				res, err := Explore(spec)
				if err != nil {
					g.Err = err.Error()
					got = append(got, g)
					continue
				}
				st := res.Stats
				g.Rejected, g.Evaluated, g.Accepted = res.Rejected, st.Evaluated(), st.Accepted()
				g.PrunedBound, g.PrunedHalving, g.FrontSize = st.PrunedBound, st.PrunedHalving, st.FrontSize
				g.Ranked = len(res.Candidates)
				h := fnv.New64a()
				for _, c := range res.Candidates {
					_, _ = h.Write([]byte(candidateKey(c) + "\n"))
				}
				g.RankDigest = fmt.Sprintf("%016x", h.Sum64())
				g.BestLabel, g.Best = res.Best.Label, res.Best.Metrics
				got = append(got, g)
			}
		}
	}
	js, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/explore.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(js, '\n'), want) {
		t.Errorf("exploration outcomes differ from the golden file:\n%s", js)
	}
}
