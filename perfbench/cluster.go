package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivory/internal/core"
	"ivory/internal/server"
)

const (
	// speedupSamples bounds the in-process explorations a traced cluster
	// run times for cluster.speedup.
	speedupSamples = 16
	// bodyArena is the space reserved, before the measured window, for the
	// bodies kept for the output check (~7 KB each; room for ~1100 calls).
	// Copying them into memory that already exists keeps the run's memory
	// peak from growing with the number of calls a faster system completes.
	bodyArena = 8 << 20
)

// clusterSystem is a coordinator fronting two single-slot worker replicas,
// the shape of cluster_bench_test.go: one pool slot and one engine worker
// per replica, caching off.
type clusterSystem struct {
	workers []*replica
	coord   *replica
}

func bootCluster(traced bool) (*clusterSystem, error) {
	cs := &clusterSystem{}
	var urls []string
	for i := 0; i < 2; i++ {
		w := server.New(server.Config{Workers: 1, QueueDepth: 64, EngineWorkers: 1, CacheEntries: -1, Role: "worker"})
		rep, err := boot(func(rp *replica) http.Handler {
			if traced {
				return rp.tracedHandler("cluster.shard", true, w.Handler())
			}
			return w.Handler()
		}, w.Shutdown)
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.workers = append(cs.workers, rep)
		urls = append(urls, rep.URL)
	}
	coord := server.New(server.Config{
		Workers: 1, QueueDepth: 64, EngineWorkers: 1, CacheEntries: -1,
		Cluster: &server.ClusterConfig{Workers: urls},
	})
	rep, err := boot(func(rp *replica) http.Handler {
		if traced {
			return rp.tracedHandler("server.handler", false, coord.Handler())
		}
		return coord.Handler()
	}, coord.Shutdown)
	if err != nil {
		cs.close()
		return nil, err
	}
	cs.coord = rep
	return cs, nil
}

func (cs *clusterSystem) close() {
	if cs.coord != nil {
		cs.coord.close()
	}
	for _, w := range cs.workers {
		w.close()
	}
}

func (cs *clusterSystem) setTracer(tr *tracer) {
	cs.coord.tr.Store(tr)
	for _, w := range cs.workers {
		w.tr.Store(tr)
	}
}

// clusterCall is one closed-loop request of a cluster run.
type clusterCall struct {
	spec   server.SpecDTO
	status int
	body   []byte
	err    error
	latMS  float64
	traced bool
}

func runCluster(o options) (*result, error) {
	r := newResult()
	c := newClient(1)
	var cs *clusterSystem
	var setups []float64
	warm := mustJSON(server.ExploreRequest{Spec: server.SpecDTO{Node: "45nm", VInV: 1.8, VOutV: 0.9, IMaxA: 1, AreaMM2: 2}})
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		next, err := bootCluster(o.trace)
		if err != nil {
			return nil, err
		}
		// The first exploration waits out the coordinator's initial worker
		// health round and warms the engines' package caches.
		if status, body, err := post(c, next.coord.URL+"/v1/explore", warm, -1); err != nil || status != http.StatusOK {
			next.close()
			return nil, fmt.Errorf("cluster warm-up: status %d err %v: %.200s", status, err, body)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if cs != nil {
			cs.close()
		}
		cs = next
	}
	defer cs.close()
	r.e2e["setup_s"] = median(setups)

	var tr *tracer
	if o.trace {
		tr = newTracer()
		cs.setTracer(tr)
	}
	rng := rand.New(rand.NewSource(o.seed))
	m0, err := scrape(c, cs.coord.URL)
	if err != nil {
		return nil, err
	}
	arena := make([]byte, 0, bodyArena)
	calls := make([]clusterCall, 0, bodyArena/(4<<10))
	c0 := readCounters()
	mem := startMem()
	stop := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; time.Now().Before(stop); i++ {
		spec := clusterSpec(rng, i)
		// In a traced run every odd call is traced.
		id := -1
		if i%2 == 1 {
			id = tr.begin("client.explore", -1, uint64(i))
		}
		t0 := time.Now()
		status, body, err := post(c, cs.coord.URL+"/v1/explore", mustJSON(server.ExploreRequest{Spec: spec}), id)
		lat := ms(time.Since(t0))
		tr.end(id)
		if n := len(arena); n+len(body) <= cap(arena) {
			arena = append(arena, body...)
			body = arena[n:len(arena):len(arena)]
		}
		calls = append(calls, clusterCall{spec: spec, status: status, body: body, err: err, latMS: lat, traced: id >= 0})
	}
	peak := mem.peakMB()
	c1 := readCounters()
	m1, err := scrape(c, cs.coord.URL)
	if err != nil {
		return nil, err
	}
	fmt.Printf("cluster: closed loop, one client, %d unique exhaustive explorations in %ds\n", len(calls), o.seconds)
	probe := &coreProbe{tr: tr}
	passed := checkCluster(r, calls, probe)
	var lat, latTraced []float64
	good, sent := 0, 0
	for i, k := range calls {
		if k.traced {
			if passed[i] {
				latTraced = append(latTraced, k.latMS)
			}
			continue
		}
		sent++
		if passed[i] {
			lat = append(lat, k.latMS)
			if k.latMS <= goodputLimitMS {
				good++
			}
		}
	}
	latencyMetrics(r, lat)
	r.e2e["goodput"] = ratio(float64(good), float64(sent))
	r.e2e["rss_mb"] = peak
	if tr == nil {
		return r, nil
	}
	r.layer["trace.overhead_pct"] = (median(latTraced)/median(lat) - 1) * 100
	r.layer["server.explore_ms"] = median(append(lat, latTraced...))
	r.layer["cluster.retries"] = m1["ivoryd_shard_retries_total"] - m0["ivoryd_shard_retries_total"]
	counterMetrics(r, c0, c1, len(calls))
	probe.coreMetrics(r)
	shardMetrics(r, tr.snapshot())
	speedup(r, calls)
	return r, tr.write(spansDir, fmt.Sprintf("cluster-seed%d.json", o.seed))
}

// checkCluster verifies every cluster body against the in-process
// reference, which is also the single-node body: the same engine result
// through the server's DTO conversion. It reports which calls passed.
func checkCluster(r *result, calls []clusterCall, probe *coreProbe) []bool {
	errs := make([]error, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				k := &calls[i]
				if k.err != nil || k.status != http.StatusOK {
					errs[i] = fmt.Errorf("status %d err %v: %.200s", k.status, k.err, k.body)
					continue
				}
				ref, err := probe.explore(k.spec)
				if err == nil {
					err = checkExplore(k.body, ref)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	passed := make([]bool, len(calls))
	for i, err := range errs {
		r.attempted++
		if err != nil {
			r.fail(fmt.Errorf("cluster call %d: %w", i, err))
			continue
		}
		passed[i] = true
	}
	return passed
}

// shardMetrics attributes each coordinator request's time to its shard
// calls. Shard spans are matched to the coordinator span whose interval
// contains them (one request is in flight at a time); the coordinator's
// own time is its span minus the union of its shards.
func shardMetrics(r *result, spans []Span) {
	type iv struct {
		idx        int
		start, end int64
	}
	var coords []iv
	for i, s := range spans {
		if s.Name == "server.handler" && s.End >= 0 {
			coords = append(coords, iv{i, s.Start, s.End})
		}
	}
	sort.Slice(coords, func(a, b int) bool { return coords[a].start < coords[b].start })
	shards := make(map[int]int)
	bytes := make(map[int]float64)
	for i, s := range spans {
		if s.Name != "cluster.shard" || s.End < 0 {
			continue
		}
		j := sort.Search(len(coords), func(j int) bool { return coords[j].start > s.Start }) - 1
		if j >= 0 && s.End <= coords[j].end {
			spans[i].Parent = coords[j].idx
			shards[coords[j].idx]++
			bytes[coords[j].idx] += float64(s.Bytes)
		}
	}
	self := selfTimes(spans)
	var coordMS, nShards, nBytes []float64
	for _, c := range coords {
		coordMS = append(coordMS, float64(self[c.idx])/1e6)
		nShards = append(nShards, float64(shards[c.idx]))
		nBytes = append(nBytes, bytes[c.idx])
	}
	r.layer["cluster.coord_ms"] = median(coordMS)
	r.layer["cluster.shards"] = median(nShards)
	r.layer["cluster.shard_bytes"] = median(nBytes)
	r.layer["cluster.shard_ms"] = median(durationsMS(spans, "cluster.shard"))
	r.layer["server.handler_ms"] = median(durationsMS(spans, "server.handler"))
	var transport []float64
	for i, s := range spans {
		if s.Name == "client.explore" && s.End >= 0 {
			transport = append(transport, float64(self[i])/1e6)
		}
	}
	r.layer["server.transport_ms"] = median(transport)
}

// speedup compares the cluster with in-process core.Explore at two
// workers on the same specs: the ratio of median in-process time to
// median cluster latency.
func speedup(r *result, calls []clusterCall) {
	var local, remote []float64
	for i := 0; i < len(calls) && i < speedupSamples; i++ {
		spec, err := calls[i].spec.ToSpec()
		if err != nil {
			continue
		}
		spec.Workers = 2
		t0 := time.Now()
		if _, err := core.Explore(spec); err != nil {
			continue
		}
		local = append(local, ms(time.Since(t0)))
		remote = append(remote, calls[i].latMS)
	}
	r.layer["cluster.speedup"] = ratio(median(local), median(remote))
	fmt.Printf("cluster speedup vs in-process 2-worker explore: %.3fx (%d specs)\n", r.layer["cluster.speedup"], len(local))
}
