package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ivory/internal/experiments"
	"ivory/internal/server"
	"ivory/internal/soc"
)

const (
	// serveRate is the offered load, about a sixth of the ~370 req/s two
	// closed-loop connections sustained on the mix at the defining commit
	// (2 vCPUs, go1.24). The host shares its CPUs with other machines: with
	// one competing CPU-bound process, p50 grew 2.5x at 120 req/s but 1.3x
	// at 60 req/s, and at 150-180 req/s the spread between identical runs
	// exceeded half the median.
	serveRate = 60.0
	// goodputLimitMS is the latency limit a served request must meet, timed
	// from when it was due.
	goodputLimitMS = 250.0
	// loadConns bounds the load generator's goroutines and connections
	// (the host's CPU count when the benchmark was defined).
	loadConns = 2
	// setupRepeats is how many times a run boots and warms its system; the
	// median is reported and the last one is measured.
	setupRepeats = 3
	// The generator's own bounds: a run whose idle senders woke later than
	// this is invalid, because its latencies no longer reflect the server.
	lateP50BoundMS = 5.0
	lateMaxBoundMS = 500.0
	// replayLimit bounds the in-process replays of hybrid and transient
	// requests a traced run times per layer.
	replayLimit = 8
)

// served is the outcome of one request.
type served struct {
	status int
	body   []byte
	err    error
	latMS  float64 // from when the request was due
	lateMS float64 // how late an idle sender woke; -1 when it was busy
}

func (s served) ok() bool { return s.err == nil && s.status == http.StatusOK }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// openLoop sends reqs on their schedule from loadConns senders. A sender
// that is idle sleeps until the next request is due; one that is busy sends
// the overdue request at once, and the wait shows in its latency. With a
// tracer, every odd request is traced: a client span, and the span header
// that lets the server-side wrapper record the handler span under it.
func openLoop(c *http.Client, url string, reqs []request, tr *tracer) []served {
	outs := make([]served, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				q := &reqs[i]
				due := start.Add(q.Due)
				late := -1.0
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late = ms(time.Since(due))
				}
				span := -1
				if i%2 == 1 {
					span = tr.begin("client."+q.Endpoint, -1, uint64(i))
				}
				status, body, err := post(c, url+"/v1/"+q.Endpoint, q.Body, span)
				tr.end(span)
				outs[i] = served{status: status, body: body, err: err, latMS: ms(time.Since(due)), lateMS: late}
			}
		}()
	}
	wg.Wait()
	return outs
}

func runServe(o options) (*result, error) {
	p, err := loadPins(pinsPath)
	if err != nil {
		return nil, err
	}
	span := time.Duration(o.seconds) * time.Second
	hot, stream := serveStream(o.seed, serveRate, span)
	fmt.Printf("serve: open loop, %d requests at %.0f/s over %v, stream digest %s\n", len(stream), serveRate, span, digest(stream))
	keys, lateKeys := traceKeys(stream, span)
	r := newResult()
	r.layer["pds.trace_keys"], r.layer["pds.late_new_keys"] = float64(keys), float64(lateKeys)
	fmt.Printf("pds trace keys offered: %d distinct (cache cap 64), %d first offered in the last quarter\n", keys, lateKeys)

	c := newClient(loadConns)
	var rep *replica
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		srv := server.New(server.Config{})
		next, err := boot(func(rp *replica) http.Handler {
			if o.trace {
				return rp.tracedHandler("server.handler", false, srv.Handler())
			}
			return srv.Handler()
		}, srv.Shutdown)
		if err != nil {
			return nil, err
		}
		// Warm-up: the hot set lands in the result cache, as it would on a
		// long-lived server.
		for _, spec := range hot {
			if _, _, err := post(c, next.URL+"/v1/explore", mustJSON(server.ExploreRequest{Spec: spec}), -1); err != nil {
				next.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep != nil {
			rep.close()
		}
		rep = next
	}
	defer rep.close()
	r.e2e["setup_s"] = median(setups)

	var tr *tracer
	if o.trace {
		tr = newTracer()
		rep.tr.Store(tr)
	}
	m0, err := scrape(c, rep.URL)
	if err != nil {
		return nil, err
	}
	c0 := readCounters()
	mem := startMem()
	outs := openLoop(c, rep.URL, stream, tr)
	peak := mem.peakMB()
	c1 := readCounters()
	m1, err := scrape(c, rep.URL)
	if err != nil {
		return nil, err
	}
	accountServe(r, stream, outs)
	probe := &coreProbe{tr: tr}
	checkServe(r, p, stream, outs, probe)

	// Untraced requests give the end-to-end metrics; in a traced run every
	// odd request is traced, and the two halves' medians give the overhead.
	var lat, latTraced []float64
	sent, good := 0, 0
	for i, s := range outs {
		if tr != nil && i%2 == 1 {
			if s.ok() {
				latTraced = append(latTraced, s.latMS)
			}
			continue
		}
		sent++
		if s.ok() {
			lat = append(lat, s.latMS)
			if s.latMS <= goodputLimitMS {
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
	hits := m1["ivoryd_result_cache_hits_total"] - m0["ivoryd_result_cache_hits_total"]
	lookups := hits + m1["ivoryd_result_cache_misses_total"] - m0["ivoryd_result_cache_misses_total"]
	r.layer["server.cache_hit_ratio"] = ratio(hits, lookups)
	r.layer["server.cache_lookups"] = lookups
	r.layer["server.coalesced"] = m1["ivoryd_coalesced_requests_total"] - m0["ivoryd_coalesced_requests_total"]
	fmt.Printf("result cache: %.0f hits of %.0f lookups, %.0f coalesced\n", hits, lookups, r.layer["server.coalesced"])
	counterMetrics(r, c0, c1, len(stream))
	probe.coreMetrics(r)
	handlerMetrics(r, tr.snapshot())
	if err := replayEngines(r, stream, tr); err != nil {
		return nil, err
	}
	return r, tr.write(spansDir, fmt.Sprintf("serve-seed%d.json", o.seed))
}

// accountServe prints and records the open-loop accounting of a run.
func accountServe(r *result, reqs []request, outs []served) {
	var late []float64
	var ok, shed, failed, backlogged int
	perEndpoint := map[string][]float64{}
	for i, s := range outs {
		switch {
		case s.ok():
			ok++
			perEndpoint[reqs[i].Endpoint] = append(perEndpoint[reqs[i].Endpoint], s.latMS)
		case s.status == http.StatusTooManyRequests:
			shed++
		default:
			failed++
		}
		if s.lateMS < 0 {
			backlogged++
		} else {
			late = append(late, s.lateMS)
		}
	}
	lateP50, lateMax := median(late), 0.0
	for _, l := range late {
		lateMax = max(lateMax, l)
	}
	fmt.Printf("open loop: due %d sent %d succeeded %d failed %d shed %d; sent while busy %d; generator lateness p50 %.3f ms max %.3f ms\n",
		len(reqs), len(outs), ok, failed, shed, backlogged, lateP50, lateMax)
	if lateP50 > lateP50BoundMS || lateMax > lateMaxBoundMS {
		r.invalid = fmt.Sprintf("generator lateness p50 %.3f ms / max %.3f ms beyond its bound (%.0f / %.0f ms)",
			lateP50, lateMax, lateP50BoundMS, lateMaxBoundMS)
	}
	r.layer["serve.due"] = float64(len(reqs))
	r.layer["serve.sent"] = float64(len(outs))
	r.layer["serve.succeeded"] = float64(ok)
	r.layer["serve.failed"] = float64(failed)
	r.layer["serve.shed"] = float64(shed)
	r.layer["serve.late_p50_ms"] = lateP50
	r.layer["serve.late_max_ms"] = lateMax
	r.layer["serve.offered_rps"] = serveRate
	r.layer["server.shed_share"] = ratio(float64(shed), float64(len(outs)))
	r.layer["server.explore_ms"] = median(perEndpoint["explore"])
	r.layer["server.hybrid_ms"] = median(perEndpoint["hybrid"])
	r.layer["server.transient_ms"] = median(perEndpoint["transient"])
}

// checkServe verifies every body of a run: explorations against an
// in-process reference (computed once per distinct spec), hybrid and
// transient bodies against their pinned digests. Failed and shed requests
// count as failed.
func checkServe(r *result, p *pins, reqs []request, outs []served, probe *coreProbe) {
	refs := map[string]*server.ExploreResponse{}
	refErr := map[string]error{}
	var todo []server.SpecDTO
	for _, q := range reqs {
		if k := string(q.Body); q.Endpoint == "explore" {
			if _, seen := refErr[k]; !seen {
				refErr[k] = nil
				todo = append(todo, q.Spec)
			}
		}
	}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				ref, err := probe.explore(todo[i])
				k := string(mustJSON(server.ExploreRequest{Spec: todo[i]}))
				mu.Lock()
				refs[k], refErr[k] = ref, err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, s := range outs {
		q := &reqs[i]
		r.attempted++
		if !s.ok() {
			r.fail(fmt.Errorf("request %d %s: status %d err %v: %.200s", i, q.Endpoint, s.status, s.err, s.body))
			continue
		}
		var err error
		switch q.Endpoint {
		case "explore":
			k := string(q.Body)
			if err = refErr[k]; err == nil {
				err = checkExplore(s.body, refs[k])
			}
		case "hybrid":
			err = checkPinned(q.Endpoint, s.body, p.Hybrid[q.Variant])
		case "transient":
			err = checkPinned(q.Endpoint, s.body, p.Transient[q.Variant])
		}
		if err != nil {
			r.fail(fmt.Errorf("request %d %s: %w", i, q.Endpoint, err))
		}
	}
}

// handlerMetrics splits each traced round trip into handler time (the
// span around Server.Handler()) and transport (the client span's self
// time: the round trip minus the handler).
func handlerMetrics(r *result, spans []Span) {
	self := selfTimes(spans)
	var handler, transport []float64
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		switch {
		case s.Name == "server.handler":
			handler = append(handler, float64(s.dur())/1e6)
		case len(s.Name) > 7 && s.Name[:7] == "client.":
			transport = append(transport, float64(self[i])/1e6)
		}
	}
	r.layer["server.handler_ms"] = median(handler)
	r.layer["server.transport_ms"] = median(transport)
}

// replayEngines re-runs up to replayLimit of the run's distinct hybrid
// and transient requests in-process, serially, to time the soc sweep and
// the PDS simulation cells those endpoints spend their time in.
func replayEngines(r *result, reqs []request, tr *tracer) error {
	hyb, tra := hybridMenu(), transientMenu()
	seen := map[string]bool{}
	var sweepMS, aps, cellMS []float64
	for _, q := range reqs {
		key := fmt.Sprintf("%s/%d", q.Endpoint, q.Variant)
		if q.Variant < 0 || seen[key] {
			continue
		}
		seen[key] = true
		switch q.Endpoint {
		case "hybrid":
			if len(sweepMS) >= replayLimit {
				continue
			}
			spec, err := hyb[q.Variant].ToSpec()
			if err != nil {
				return err
			}
			spec.Workers = 1
			id := tr.begin("soc.Sweep", -1, 0)
			res, err := soc.Sweep(spec)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("replay hybrid: %w", err)
			}
			sweepMS = append(sweepMS, ms(res.Stats.Wall))
			aps = append(aps, res.Stats.AssignmentsPerSec)
		case "transient":
			if len(cellMS) >= replayLimit {
				continue
			}
			id := tr.begin("experiments.Fig10Run", -1, 0)
			res, err := experiments.Fig10Run(context.Background(), tra[q.Variant].Options(1))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("replay transient: %w", err)
			}
			cellMS = append(cellMS, ratio(ms(res.RunStats.SimWall), float64(res.RunStats.Cells)))
		}
	}
	r.layer["soc.sweep_ms"] = median(sweepMS)
	r.layer["soc.assignments_per_s"] = median(aps)
	r.layer["pds.cell_ms"] = median(cellMS)
	return nil
}

// traceKeys counts the distinct PDS trace keys the stream's hybrid and
// transient requests introduce (a transient key is benchmark x span x
// step; a hybrid sweep adds one per domain of the five-domain SoC per
// span), and how many are first offered in the last quarter of the run.
func traceKeys(stream []request, span time.Duration) (total, late int) {
	hyb, tra := hybridMenu(), transientMenu()
	seen := map[string]bool{}
	add := func(k string, due time.Duration) {
		if !seen[k] {
			seen[k] = true
			if due >= span*3/4 {
				late++
			}
		}
	}
	for _, q := range stream {
		switch q.Endpoint {
		case "hybrid":
			for d := 0; d < 5; d++ {
				add(fmt.Sprintf("soc/%d/%g", d, hyb[q.Variant].TUS), q.Due)
			}
		case "transient":
			t := tra[q.Variant]
			for _, b := range t.Benchmarks {
				add(fmt.Sprintf("%s/%g/%g", b, t.TUS, t.DtNS), q.Due)
			}
		}
	}
	return len(seen), late
}
