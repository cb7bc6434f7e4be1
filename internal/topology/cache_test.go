package topology

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestAnalyzeCacheStatsCount checks the exported hit/miss telemetry: a
// first-sight Analyze is a miss, the repeat is a hit.
func TestAnalyzeCacheStatsCount(t *testing.T) {
	top := NewBuilder("cache-stats-probe").Build()
	h0, m0 := CacheStats()
	_, _ = top.Analyze() // empty netlist: errors are memoized too
	h1, m1 := CacheStats()
	if m1 != m0+1 || h1 != h0 {
		t.Fatalf("first sight: hits %d->%d misses %d->%d, want one miss", h0, h1, m0, m1)
	}
	_, _ = top.Analyze()
	h2, m2 := CacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("repeat: hits %d->%d misses %d->%d, want one hit", h1, h2, m1, m2)
	}
}

// TestAnalyzeCacheCapConcurrent floods the memo with 1,536 unique one-off
// netlists from many goroutines (run under -race in CI). The memo must
// stay within its 512-entry cap and, once full, still cache a new key
// instead of freezing on the first 512 it saw.
func TestAnalyzeCacheCapConcurrent(t *testing.T) {
	const workers = 16
	const perWorker = 96 // 1536 unique keys, well past the 512-entry cap
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				// Unique name -> unique cache key; the empty netlist makes
				// the analyze itself trivially cheap (its error is cached).
				top := NewBuilder(fmt.Sprintf("cap-race-%d-%d", w, k)).Build()
				if _, err := top.Analyze(); err == nil {
					t.Error("empty netlist unexpectedly analyzed")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := analyzeMemo.Len(); n > analyzeCacheLimit {
		t.Fatalf("memo holds %d entries, over the %d cap", n, analyzeCacheLimit)
	}
	top := NewBuilder("after-the-flood").Build()
	_, _ = top.Analyze()
	h0, _ := CacheStats()
	_, _ = top.Analyze()
	if h1, _ := CacheStats(); h1 != h0+1 {
		t.Fatalf("a full memo did not cache a new key: hits %d -> %d", h0, h1)
	}
}

// TestAnalyzeCacheDuplicateKeyReservesOneSlot hammers one fresh key from
// many goroutines: however the concurrent first-sight misses resolve, the
// key occupies at most one entry, and the next lookup hits.
func TestAnalyzeCacheDuplicateKeyReservesOneSlot(t *testing.T) {
	before := analyzeMemo.Len()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = NewBuilder("dup-key-probe").Build().Analyze()
		}()
	}
	wg.Wait()
	// <= 1, not == 1: a full memo evicts one entry for the new key.
	if d := analyzeMemo.Len() - before; d > 1 {
		t.Fatalf("one key occupies %d entries", d)
	}
	h0, _ := CacheStats()
	_, _ = NewBuilder("dup-key-probe").Build().Analyze()
	if h1, _ := CacheStats(); h1 != h0+1 {
		t.Fatalf("repeat of the hammered key missed: hits %d -> %d", h0, h1)
	}
}

// TestAnalyzeMemoized checks that repeated Analyze calls return the cached
// (pointer-identical) Analysis, and that the cached result equals a fresh
// uncached solve field for field.
func TestAnalyzeMemoized(t *testing.T) {
	top, err := Ladder(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := top.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := top.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("second Analyze did not return the cached Analysis")
	}
	fresh, err := top.analyze()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a1 {
		t.Fatal("uncached analyze returned the cached pointer")
	}
	if math.Abs(fresh.Ratio-a1.Ratio) > 0 || math.Abs(fresh.SumAC-a1.SumAC) > 0 || math.Abs(fresh.SumAR-a1.SumAR) > 0 {
		t.Fatalf("cached analysis diverged from a fresh solve: %+v vs %+v", a1, fresh)
	}
	for i := range fresh.CapMultipliers {
		if math.Abs(fresh.CapMultipliers[i]-a1.CapMultipliers[i]) > 0 {
			t.Fatalf("cap multiplier %d diverged", i)
		}
	}
}

// TestAnalyzeCacheKeyDistinguishesNetlists checks that two structurally
// different topologies sharing a name do not collide in the cache.
func TestAnalyzeCacheKeyDistinguishesNetlists(t *testing.T) {
	build := func(stackSwitch bool) *Topology {
		b := NewBuilder("same-name")
		p := b.NewNode()
		n := b.NewNode()
		b.AddCap(p, n, "C1")
		b.AddSwitch(Vin, p, Phi1, "s1")
		b.AddSwitch(n, Vout, Phi1, "s2")
		b.AddSwitch(p, Vout, Phi2, "s3")
		if stackSwitch {
			b.AddSwitch(n, Gnd, Phi2, "s4")
		} else {
			b.AddSwitch(n, Vout, Phi2, "s4")
		}
		return b.Build()
	}
	a, err := build(true).Analyze() // 2:1 divider
	if err != nil {
		t.Fatal(err)
	}
	bAn, err := build(false).Analyze() // cap paralleled with output in phase 2... different circuit
	if err == nil && math.Abs(bAn.Ratio-a.Ratio) <= 1e-12 {
		t.Fatalf("structurally different netlists returned the same cached ratio %g", a.Ratio)
	}
	// Same netlist rebuilt from scratch must hit the cache.
	c, err := build(true).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("identical rebuilt netlist missed the cache")
	}
}

func BenchmarkAnalyzeCached(b *testing.B) {
	top, err := Ladder(7, 3)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := top.Analyze(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeUncached(b *testing.B) {
	top, err := Ladder(7, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.analyze(); err != nil {
			b.Fatal(err)
		}
	}
}
