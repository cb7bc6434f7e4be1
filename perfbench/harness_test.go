package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"ivory/internal/server"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	hot1, a := serveStream(7, serveRate, 3*time.Second)
	hot2, b := serveStream(7, serveRate, 3*time.Second)
	if digest(a) != digest(b) || len(a) != len(b) {
		t.Fatalf("same seed gave different streams: %s vs %s", digest(a), digest(b))
	}
	for i := range a {
		if a[i].Due != b[i].Due || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
	if !bytes.Equal(mustJSON(hot1), mustJSON(hot2)) {
		t.Fatal("same seed gave different hot sets")
	}
	if _, c := serveStream(8, serveRate, 3*time.Second); digest(c) == digest(a) {
		t.Fatal("different seeds gave the same stream")
	}
	x, y := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		if !bytes.Equal(mustJSON(clusterSpec(x, i)), mustJSON(clusterSpec(y, i))) {
			t.Fatalf("cluster spec %d differs between identical seeds", i)
		}
	}
}

func TestStreamMix(t *testing.T) {
	span := 20 * time.Second
	_, s := serveStream(1, serveRate, span)
	n := map[string]int{}
	for _, q := range s[:len(s)/len(block)*len(block)] {
		kind := q.Endpoint
		if kind == "explore" {
			kind = q.Spec.Search
		}
		n[kind]++
	}
	blocks := len(s) / len(block)
	// Hot specs are half exhaustive and half adaptive, so each search
	// strategy carries its 5 unique requests per block plus some hot ones.
	if e, a := n["exhaustive"], n["adaptive"]; e+a != 15*blocks || e < 5*blocks || a < 5*blocks {
		t.Errorf("explore: %d exhaustive + %d adaptive over %d blocks", e, a, blocks)
	}
	if n["hybrid"] != 4*blocks || n["transient"] != blocks {
		t.Errorf("hybrid %d transient %d over %d blocks", n["hybrid"], n["transient"], blocks)
	}
	if keys, late := traceKeys(s, span); keys <= 64 || late == 0 {
		t.Errorf("stream offers %d trace keys (%d late); want more than the 64-entry cap, still arriving at the end", keys, late)
	}
}

func TestTailSelection(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{19, 50, 10, false},
		{20, 50, 10, true},
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		p, v, ok := tail(seq(c.n))
		if p != c.p || v != c.v || ok != c.ok {
			t.Errorf("n=%d: tail p%g=%g ok=%v, want p%g=%g ok=%v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, p), p)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0},   // runs past the parent
		{Name: "open", Start: 60, End: -1, Parent: 0}, // never closed
		{Name: "grandchild", Start: 12, End: 14, Parent: 1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 2, 30, 30, 0, 2}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestExploreCheckCatchesPerturbation(t *testing.T) {
	p := &coreProbe{}
	ref, err := p.explore(server.SpecDTO{Node: "45nm", VInV: 1.8, VOutV: 0.9, IMaxA: 1, AreaMM2: 3})
	if err != nil {
		t.Fatal(err)
	}
	good := mustJSON(ref)
	if err := checkExplore(good, ref); err != nil {
		t.Fatalf("unperturbed body rejected: %v", err)
	}
	// Volatile stats never fail a check.
	stats := *ref
	stats.Stats.WallMS += 5
	if err := checkExplore(mustJSON(&stats), ref); err != nil {
		t.Fatalf("stats-only difference rejected: %v", err)
	}
	perturb := []func(r *server.ExploreResponse){
		func(r *server.ExploreResponse) { b := *r.Best; b.EfficiencyPct += 1e-9; r.Best = &b },
		func(r *server.ExploreResponse) { r.TotalCandidates++ },
		func(r *server.ExploreResponse) {
			c := append([]server.CandidateDTO(nil), r.Candidates...)
			c[0], c[1] = c[1], c[0]
			r.Candidates = c
		},
		func(r *server.ExploreResponse) {
			c := append([]server.CandidateDTO(nil), r.Candidates...)
			c[len(c)-1].RippleMV *= 1.001
			r.Candidates = c
		},
		func(r *server.ExploreResponse) { r.Rejected++ },
	}
	for i, f := range perturb {
		bad := *ref
		f(&bad)
		if err := checkExplore(mustJSON(&bad), ref); err == nil {
			t.Errorf("perturbation %d passed the check", i)
		}
	}
}

func TestPinnedCheckCatchesPerturbation(t *testing.T) {
	body := mustJSON(server.TransientResponse{
		RequestHash: "abc",
		Cells: []server.TransientCellDTO{
			{Benchmark: "KMN", Config: "off-chip VRM", NoiseMVpp: 40},
			{Benchmark: "CFD", Config: "off-chip VRM", NoiseMVpp: 50},
		},
		Stats: server.TransientStatsDTO{WallMS: 3},
	})
	pin, err := bodyDigest("transient", body)
	if err != nil {
		t.Fatal(err)
	}
	reordered := bytes.Replace(body, []byte(`"KMN"`), []byte(`"TMP"`), 1)
	reordered = bytes.Replace(reordered, []byte(`"CFD"`), []byte(`"KMN"`), 1)
	reordered = bytes.Replace(reordered, []byte(`"TMP"`), []byte(`"CFD"`), 1)
	reordered = bytes.Replace(reordered, []byte(`:40`), []byte(`:TMP`), 1)
	reordered = bytes.Replace(reordered, []byte(`:50`), []byte(`:40`), 1)
	reordered = bytes.Replace(reordered, []byte(`:TMP`), []byte(`:50`), 1)
	if err := checkPinned("transient", reordered, pin); err != nil {
		t.Fatalf("cell order changed the digest: %v", err)
	}
	if err := checkPinned("transient", bytes.Replace(body, []byte(`:50`), []byte(`:50.0001`), 1), pin); err == nil {
		t.Fatal("perturbed noise passed the pinned check")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the binary prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "serve,cluster,reproduce" {
		t.Errorf("workloads %s", got)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("BENCHMARK.json declares %d metrics, the binary prints %d", len(c.declared), len(c.printed))
		}
		for _, m := range c.declared {
			if u, ok := c.printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s (%s): printed with unit %q (present %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}
