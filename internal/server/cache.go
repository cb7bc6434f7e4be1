package server

import (
	"sync"
	"sync/atomic"
)

// flight is one in-progress computation that concurrent identical requests
// share. done is closed exactly once, after val/err are set.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// wait blocks until the flight resolves.
func (f *flight) wait() (any, error) {
	<-f.done
	return f.val, f.err
}

// flightGroup is a minimal singleflight: the first request for a key
// creates the flight (and owns submitting the work), later requests join
// it. Unlike x/sync/singleflight, resolution is explicit — the owner calls
// finish from the worker goroutine when the job completes — so the
// computation survives the leader's HTTP request being abandoned.
type flightGroup struct {
	mu        sync.Mutex
	m         map[string]*flight
	coalesced atomic.Int64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flight{}}
}

// join returns the flight for key, creating it when absent. leader reports
// whether this caller created it (and therefore must submit the work and
// eventually finish it, or abort it on submission failure).
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		g.coalesced.Add(1)
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish resolves the flight and removes it from the group so later
// requests start fresh (typically they will hit the cache instead).
func (g *flightGroup) finish(key string, f *flight, val any, err error) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
}

// abort removes a flight whose work was never submitted (queue full) and
// resolves it with the error so any waiter that slipped in unblocks with
// the same outcome the leader saw.
func (g *flightGroup) abort(key string, f *flight, err error) {
	g.finish(key, f, nil, err)
}

// Coalesced returns how many requests joined an existing flight instead of
// starting their own computation.
func (g *flightGroup) Coalesced() int64 { return g.coalesced.Load() }

// Inflight returns the number of open flights.
func (g *flightGroup) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
