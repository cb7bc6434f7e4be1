package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func mkCand(kind Kind, label string, eff, area, ripple float64) Candidate {
	c := Candidate{Kind: kind, Label: label}
	c.Metrics.Efficiency = eff
	c.Metrics.AreaDie = area
	c.Metrics.RippleVpp = ripple
	c.Metrics.FSw = 1e8
	c.Metrics.POut = 1
	return c
}

// TestRankDeterministicUnderPermutation is the regression test for the
// ranked-merge determinism bug: labels are not unique and objective scores
// tie, so without the canonical-key tie-break the final order depended on
// input (shard-merge) order. Every permutation must rank byte-identically.
func TestRankDeterministicUnderPermutation(t *testing.T) {
	cands := []Candidate{
		mkCand(KindSC, "a x4", 0.80, 2e-6, 0.01),
		mkCand(KindSC, "a x4", 0.80, 2e-6, 0.02), // same label+eff+area, differs in ripple
		mkCand(KindBuck, "b x1", 0.80, 3e-6, 0.01),
		mkCand(KindSC, "c x2", 0.80, 1e-6, 0.01), // ties eff with a/b
		mkCand(KindLDO, "d", 0.55, 1e-6, 0.00),
		mkCand(KindSC, "e x8", 0.91, 4e-6, 0.03),
	}
	rankOrder := func(in []Candidate) string {
		cp := append([]Candidate(nil), in...)
		sort.Slice(cp, rankSliceLess(cp, MaxEfficiency, 0))
		keys := make([]string, len(cp))
		for i := range cp {
			keys[i] = candidateKey(cp[i])
		}
		return strings.Join(keys, "\n")
	}
	want := rankOrder(cands)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := append([]Candidate(nil), cands...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got := rankOrder(perm); got != want {
			t.Fatalf("trial %d: ranking depends on input order\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}

// rankSliceLess adapts rankLess to sort.Slice for the test.
func rankSliceLess(cp []Candidate, obj Objective, floor float64) func(i, j int) bool {
	less := rankLess(obj, floor)
	return func(i, j int) bool { return less(cp[i], cp[j]) }
}

// TestRankNaNRowsSink pins that candidates with non-finite metrics never
// outrank finite ones under any objective and land in a deterministic
// position (the tail), regardless of where the input order put them.
func TestRankNaNRowsSink(t *testing.T) {
	nan := math.NaN()
	rows := []Candidate{
		mkCand(KindSC, "nan-eff", nan, 2e-6, 0.01),
		mkCand(KindSC, "ok-low", 0.10, 2e-6, 0.01),
		mkCand(KindBuck, "inf-area", 0.90, math.Inf(1), 0.01),
		mkCand(KindSC, "ok-high", 0.90, 2e-6, 0.01),
		mkCand(KindLDO, "nan-ripple", 0.70, 1e-6, nan),
	}
	for _, obj := range []Objective{MaxEfficiency, MinArea, MinNoise} {
		for trial := 0; trial < 8; trial++ {
			cp := append([]Candidate(nil), rows...)
			rand.New(rand.NewSource(int64(trial))).Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
			sort.Slice(cp, rankSliceLess(cp, obj, 0.25))
			for i, c := range cp[:2] {
				if !finiteMetrics(c) {
					t.Fatalf("%v trial %d: non-finite row %q ranked %d", obj, trial, c.Label, i)
				}
			}
			for _, c := range cp[2:] {
				if finiteMetrics(c) {
					t.Fatalf("%v trial %d: finite row %q sank below NaN rows", obj, trial, c.Label)
				}
			}
		}
	}
}

// batchFront is the quadratic reference the incremental set is checked
// against: keep every candidate no other candidate dominates.
func batchFront(in []Candidate) map[string]int {
	p := &ParetoSet{}
	out := map[string]int{}
	for i := range in {
		if !finiteMetrics(in[i]) {
			continue
		}
		dominated := false
		for j := range in {
			if i != j && finiteMetrics(in[j]) && p.dominates(in[j], in[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			// Exact duplicates never dominate each other, so the front is
			// a multiset: count occurrences per canonical key.
			out[candidateKey(in[i])]++
		}
	}
	return out
}

// TestParetoSetMatchesBatch drives the incremental front with randomized
// candidates and insertion orders and checks it always lands on the batch
// answer.
func TestParetoSetMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		cands := make([]Candidate, n)
		for i := range cands {
			// Coarse metric grid to force plenty of ties and duplicates.
			cands[i] = mkCand(KindSC, "p", float64(rng.Intn(5))/5, float64(1+rng.Intn(4))*1e-6, float64(rng.Intn(3))*0.01)
		}
		if trial%5 == 4 {
			cands[rng.Intn(n)].Metrics.Efficiency = math.NaN()
		}
		set := NewParetoSet()
		for _, c := range cands {
			set.Insert(c)
		}
		want := batchFront(cands)
		front := set.items
		got := map[string]int{}
		total := 0
		for _, c := range front {
			if !finiteMetrics(c) {
				t.Fatalf("trial %d: non-finite candidate on front", trial)
			}
			got[candidateKey(c)]++
		}
		for k, n := range want {
			total += n
			if got[k] != n {
				t.Fatalf("trial %d: key %s appears %d times on incremental front, batch says %d", trial, k, got[k], n)
			}
		}
		if len(front) != total {
			t.Fatalf("trial %d: front size %d, want %d", trial, len(front), total)
		}
		if set.Size() != len(front) {
			t.Fatalf("trial %d: Size %d != front length %d", trial, set.Size(), len(front))
		}
	}
}

// TestParetoFrontOrderDeterministic pins that the front's membership, as a
// multiset of canonical keys, is the same for any insertion order.
func TestParetoFrontOrderDeterministic(t *testing.T) {
	cands := []Candidate{
		mkCand(KindSC, "a", 0.9, 2e-6, 0.01),
		mkCand(KindBuck, "b", 0.8, 1e-6, 0.02),
		mkCand(KindLDO, "c", 0.95, 3e-6, 0.01),
		mkCand(KindSC, "d", 0.8, 1e-6, 0.02), // ties b on every front metric
	}
	var want string
	for trial := 0; trial < 10; trial++ {
		cp := append([]Candidate(nil), cands...)
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		set := NewParetoSet()
		for _, c := range cp {
			set.Insert(c)
		}
		var keys []string
		for _, c := range set.items {
			keys = append(keys, candidateKey(c))
		}
		sort.Strings(keys)
		got := strings.Join(keys, "\n")
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trial %d: front order depends on insertion order\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}

// TestResultFrontsExcludeNonFinite feeds the front a run's Stats.FrontSize
// counts a mix of finite and NaN rows.
func TestResultFrontsExcludeNonFinite(t *testing.T) {
	set := NewParetoSet()
	for _, c := range []Candidate{
		mkCand(KindSC, "ok", 0.9, 2e-6, 0.01),
		mkCand(KindSC, "bad", math.NaN(), 1e-6, 0.01),
		mkCand(KindBuck, "ok2", 0.5, 1e-6, 0.05),
	} {
		set.Insert(c)
	}
	if set.Size() == 0 {
		t.Fatal("empty front")
	}
	for _, c := range set.items {
		if !finiteMetrics(c) {
			t.Fatalf("non-finite candidate %q on front", c.Label)
		}
	}
}
