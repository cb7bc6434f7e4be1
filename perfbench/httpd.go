package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span index to the traced handler wrapper,
// so the handler span can name the client span as its parent.
const spanHeader = "X-Bench-Span"

// replica is one ivoryd Server.Handler() mounted on a loopback listener.
type replica struct {
	URL  string
	hs   *http.Server
	done chan struct{}
	stop func(context.Context) error
	// tr is nil outside traced runs; the wrapper records nothing then.
	tr atomic.Pointer[tracer]
}

// tracedHandler wraps h with a span named name around each traced POST,
// parented on the client span named in spanHeader, and records the bytes
// written on the span. A request without the header is traced only when
// all is set: worker replicas never see the header, because the
// coordinator does not forward it. Health checks and metric scrapes are
// never traced.
func (r *replica) tracedHandler(name string, all bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := r.tr.Load()
		v := req.Header.Get(spanHeader)
		if tr == nil || req.Method != http.MethodPost || (v == "" && !all) {
			h.ServeHTTP(w, req)
			return
		}
		parent := -1
		if p, err := strconv.Atoi(v); err == nil {
			parent = p
		}
		id := tr.begin(name, parent, 0)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		tr.end(id)
		tr.setBytes(id, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n uint64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += uint64(n)
	return n, err
}

// boot mounts handler (built from the replica so it can be traced) on a
// fresh loopback listener and returns once /healthz answers.
func boot(mk func(r *replica) http.Handler, stop func(context.Context) error) (*replica, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &replica{URL: "http://" + l.Addr().String(), done: make(chan struct{}), stop: stop}
	r.hs = &http.Server{Handler: mk(r), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(l) // returns http.ErrServerClosed on close
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(r.URL + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return r, nil
			}
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("replica %s never became healthy", r.URL)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close drains the ivoryd server, then stops the listener and waits for
// the serving goroutine to exit.
func (r *replica) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.stop != nil {
		_ = r.stop(ctx)
	}
	_ = r.hs.Shutdown(ctx)
	<-r.done
}

// newClient returns a client holding at most conns loopback connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends body and returns the status and response body.
func post(c *http.Client, url string, body []byte, span int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads a replica's /metrics exposition and sums every sample of
// each metric family across its labels.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("metrics: " + resp.Status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}
