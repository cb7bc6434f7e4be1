package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded around the benchmark's own
// calls into the program's exported functions. Times are nanoseconds since
// the tracer started; Parent is the index of the causing span or -1.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	// Bytes is the response size a handler span wrote, 0 elsewhere.
	Bytes uint64 `json:"bytes,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. A span with a parent and no
// request id of its own shares its parent's, so every span of one request
// carries the same id.
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if req == 0 && parent >= 0 && parent < len(t.spans) {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) setBytes(id int, n uint64) {
	t.mu.Lock()
	t.spans[id].Bytes = n
	t.mu.Unlock()
}

func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write dumps every span as JSON into dir/name.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	return writeJSON(dir, name, t.snapshot())
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval covered by the union of its closed children.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered measures the union of the intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// durationsMS lists the durations (ms) of closed spans named name.
func durationsMS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
