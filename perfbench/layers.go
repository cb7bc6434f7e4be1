package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ivory/internal/core"
	"ivory/internal/grid"
	"ivory/internal/pds"
	"ivory/internal/server"
	"ivory/internal/topology"
)

// Per-layer attribution around the benchmark's calls into the program's
// exported functions.

var kindSpan = map[core.Kind]string{core.KindSC: "sc.eval", core.KindBuck: "buck.eval", core.KindLDO: "ldo.eval"}

// coreProbe runs the reference explorations of the output checks. Traced,
// it hands core.ExploreWith an evaluator that forwards each batch, split
// by converter kind, to core.EvalRefs inside a span, so the exploration's
// self time is enumeration plus merge and its children are evaluation.
type coreProbe struct {
	tr *tracer

	mu        sync.Mutex
	evaluated int
	accepted  int
	pruned    int
	explores  int
	renderUS  []float64
	respBytes []float64
}

// explore computes the reference body for spec.
func (p *coreProbe) explore(spec server.SpecDTO) (*server.ExploreResponse, error) {
	cs, err := spec.ToSpec()
	if err != nil {
		return nil, err
	}
	cs.Workers = 1
	root := p.tr.begin("core.ExploreWith", -1, 0)
	var eval core.Evaluator
	if p.tr != nil {
		eval = p.evaluator(cs, root)
	}
	res, err := core.ExploreWith(cs, eval)
	p.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("reference explore: %w", err)
	}
	t0 := time.Now()
	body := server.ExploreResponseFromResult(res, nil).Trimmed(0)
	enc, err := json.MarshalIndent(body, "", "  ")
	render := time.Since(t0)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.explores++
	p.evaluated += res.Stats.Evaluated()
	p.accepted += res.Stats.Accepted()
	p.pruned += res.Stats.Pruned()
	p.renderUS = append(p.renderUS, float64(render.Nanoseconds())/1e3)
	p.respBytes = append(p.respBytes, float64(len(enc)))
	return body, nil
}

func (p *coreProbe) evaluator(spec core.Spec, root int) core.Evaluator {
	return func(_ context.Context, refs []core.ConfigRef, done func(int, *core.RefOutcome)) ([]core.RefOutcome, error) {
		outs := make([]core.RefOutcome, len(refs))
		for k := core.KindSC; k <= core.KindLDO; k++ {
			var idx []int
			var sub []core.ConfigRef
			for i, r := range refs {
				if r.Kind == k {
					idx = append(idx, i)
					sub = append(sub, r)
				}
			}
			if len(sub) == 0 {
				continue
			}
			id := p.tr.begin(kindSpan[k], root, 0)
			rr, err := core.EvalRefs(spec, sub)
			p.tr.end(id)
			if err != nil {
				return outs, err
			}
			for j, i := range idx {
				outs[i] = rr.Outcomes[j]
				done(i, &outs[i])
			}
		}
		return outs, nil
	}
}

// coreMetrics turns the probe's spans and counts into the core and model
// layer metrics: per-exploration medians of evaluation and of
// enumeration+merge self time, per-kind evaluation time, and per-
// exploration counts.
func (p *coreProbe) coreMetrics(r *result) {
	spans := p.tr.snapshot()
	self := selfTimes(spans)
	var enum, eval []float64
	kindMS := map[string][]float64{}
	var evalTotal float64
	for i, s := range spans {
		if s.Name != "core.ExploreWith" || s.End < 0 {
			continue
		}
		enum = append(enum, float64(self[i])/1e6)
		eval = append(eval, float64(s.dur()-self[i])/1e6)
		evalTotal += float64(s.dur()-self[i]) / 1e9
		per := map[string]float64{}
		for _, c := range spans {
			if c.Parent == i && c.End >= 0 {
				per[c.Name] += float64(c.dur()) / 1e6
			}
		}
		for n, v := range per {
			kindMS[n] = append(kindMS[n], v)
		}
	}
	if len(enum) == 0 {
		return
	}
	r.layer["core.enum_merge_ms"] = median(enum)
	r.layer["core.eval_ms"] = median(eval)
	r.layer["sc.eval_ms"] = median(kindMS["sc.eval"])
	r.layer["buck.eval_ms"] = median(kindMS["buck.eval"])
	r.layer["ldo.eval_ms"] = median(kindMS["ldo.eval"])
	r.layer["core.configs_per_s"] = ratio(float64(p.evaluated), evalTotal)
	r.layer["core.evaluated"] = ratio(float64(p.evaluated), float64(p.explores))
	r.layer["core.pruned"] = ratio(float64(p.pruned), float64(p.explores))
	r.layer["core.accept_ratio"] = ratio(float64(p.accepted), float64(p.evaluated))
	r.layer["server.render_us"] = median(p.renderUS)
	r.layer["server.resp_bytes"] = median(p.respBytes)
}

// counters snapshots the package-wide engine counters and the Go runtime.
type counters struct {
	topoHits, topoMisses   int64
	traceHits, traceMisses int64
	cholesky, cg           int64
	allocBytes             uint64
	gcs                    uint32
}

func readCounters() counters {
	var c counters
	c.topoHits, c.topoMisses = topology.CacheStats()
	c.traceHits, c.traceMisses = pds.TraceCacheStats()
	c.cholesky, c.cg = grid.SolverStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.gcs = ms.TotalAlloc, ms.NumGC
	return c
}

// counterMetrics reports the counter deltas between a and b over units of
// work: cache hit ratios with their bases, solver paths, and allocation
// per unit.
func counterMetrics(r *result, a, b counters, units int) {
	topo := float64(b.topoHits - a.topoHits + b.topoMisses - a.topoMisses)
	r.layer["topology.hit_ratio"] = ratio(float64(b.topoHits-a.topoHits), topo)
	r.layer["topology.lookups"] = topo
	trace := float64(b.traceHits - a.traceHits + b.traceMisses - a.traceMisses)
	r.layer["pds.trace_hit_ratio"] = ratio(float64(b.traceHits-a.traceHits), trace)
	r.layer["pds.trace_lookups"] = trace
	r.layer["grid.cholesky"] = float64(b.cholesky - a.cholesky)
	r.layer["grid.cg"] = float64(b.cg - a.cg)
	r.layer["runtime.alloc_mb"] = ratio(float64(b.allocBytes-a.allocBytes)/(1<<20), float64(units))
	r.layer["runtime.gc_count"] = float64(b.gcs - a.gcs)
	fmt.Printf("pds trace cache: %.0f hits of %.0f lookups (hit ratio %.3f)\n",
		float64(b.traceHits-a.traceHits), trace, r.layer["pds.trace_hit_ratio"])
}
