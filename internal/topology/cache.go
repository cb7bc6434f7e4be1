package topology

import (
	"strconv"
	"strings"

	"ivory/internal/memo"
)

// Analyze results are memoized package-wide: every Explore call re-derives
// the same Analysis for the same conversion ratio (the generators are
// deterministic), and the KVL/KCL least-squares solves dominate the cost of
// enumerating the SC design space. The cache key is the canonical netlist —
// name, node count, capacitor terminals, switch terminals and phases — so
// two structurally different topologies never collide even if a user reuses
// a name. Element labels are excluded: they do not influence the analysis.
//
// Cached values (including errors, which are just as deterministic) are
// shared across callers and goroutines; Analysis is treated as read-only
// everywhere in the tree, which the determinism tests exercise under the
// race detector. The memo is bounded (analyzeCacheLimit) so adversarial
// streams of one-off custom netlists cannot grow it without bound; once
// full it evicts the least recently used analysis. A lookup happens once
// per ratio per enumeration, so its mutex stays off the hot path.
var analyzeMemo = memo.New[string, cachedAnalysis](analyzeCacheLimit)

const analyzeCacheLimit = 512

// CacheStats returns the cumulative hit/miss counters of the package-wide
// Analyze memo. The counters only grow; callers wanting per-run telemetry
// (core.Explore's Stats does) snapshot before and diff after. Concurrent
// runs share the counters, so a diff taken while another exploration is in
// flight attributes its lookups too — the numbers are telemetry, not an
// accounting invariant.
func CacheStats() (hits, misses int64) {
	return analyzeMemo.Stats()
}

type cachedAnalysis struct {
	an  *Analysis
	err error
}

// cacheKey serializes the structural identity of the netlist.
func (t *Topology) cacheKey() string {
	var b strings.Builder
	b.Grow(len(t.Name) + 8*len(t.Caps) + 12*len(t.Switches) + 16)
	b.WriteString(t.Name)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(t.numNodes))
	for _, c := range t.Caps {
		b.WriteByte('c')
		b.WriteString(strconv.Itoa(int(c.Pos)))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(c.Neg)))
	}
	for _, sw := range t.Switches {
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(int(sw.A)))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(sw.B)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(sw.Phase)))
	}
	return b.String()
}

// analyzeCached returns the memoized analysis for t, computing and storing
// it on first sight.
func (t *Topology) analyzeCached() (*Analysis, error) {
	key := t.cacheKey()
	if c, ok := analyzeMemo.Get(key); ok {
		return c.an, c.err
	}
	an, err := t.analyze()
	analyzeMemo.Put(key, cachedAnalysis{an: an, err: err})
	return an, err
}
