package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ivory/internal/core"
	"ivory/internal/ivr"
)

// maxBodyBytes bounds request bodies; specs are a few hundred bytes.
const maxBodyBytes = 1 << 20

// Handler returns the ivoryd route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/explore", s.instrument("explore", s.handleExplore))
	mux.HandleFunc("POST /v1/explore/stream", s.instrument("explore_stream", s.handleExploreStream))
	mux.HandleFunc("POST /v1/transient", s.instrument("transient", s.handleTransient))
	mux.HandleFunc("POST /v1/hybrid", s.instrument("hybrid", s.handleHybrid))
	mux.HandleFunc("POST /v1/shard/explore", s.instrument("shard", s.handleShardExplore))
	mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE events leave the process
// as they are produced instead of sitting in the buffer until the run ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the request counter and latency
// histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.requests.inc(endpointCode(endpoint, sw.code))
		s.metrics.latency.observe(endpointLabel(endpoint), time.Since(start).Seconds())
	}
}

// writeJSON renders a client-facing body, indented for people reading it.
func writeJSON(w http.ResponseWriter, code int, v any) { encodeJSON(w, code, v, "  ") }

// encodeJSON renders v with the given indent; "" writes compact JSON.
func encodeJSON(w http.ResponseWriter, code int, v any, indent string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	// The response is already committed; an encode failure here means the
	// client went away, which the request counter has no use for.
	_ = enc.Encode(v)
}

// writeError renders the uniform error body. 429/503 responses carry a
// Retry-After hint derived from the observed queue drain rate
// (Server.retryAfterSeconds): average job wall time scaled by the work
// queued ahead, bounded to [1, 60] seconds.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	resp := ErrorResponse{Error: msg}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		resp.RetryAfterS = retry
	}
	writeJSON(w, code, resp)
}

// decodeJSON strictly decodes the body into v: unknown fields are a 400,
// keeping the DTO schema load-bearing instead of advisory.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// submitError maps admission failures to HTTP.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		s.writeError(w, http.StatusTooManyRequests, "job queue full; retry shortly")
	case errors.Is(err, errDraining):
		s.writeError(w, http.StatusServiceUnavailable, "server draining")
	default:
		s.writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// isCancel reports a context-shaped interruption.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// dispatch runs the shared post-validation flow of the request/response
// compute endpoints (explore, transient, hybrid, shard): admission (cache
// -> singleflight -> bounded queue), then either a 202 with an async job
// record or a synchronous wait on the flight. render writes the success
// body (val may carry a ranked partial alongside a cancel-shaped err);
// onError maps terminal failures.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, endpoint, hash string, async bool,
	timeout time.Duration, fn jobFunc, render func(w http.ResponseWriter, val any), onError func(w http.ResponseWriter, err error)) {
	fl, err := s.execute(endpoint, hash, timeout, fn)
	if err != nil {
		s.submitError(w, err)
		return
	}
	if async {
		rec := &jobRecord{id: newJobID(), kind: endpoint, hash: hash, status: JobRunning, created: time.Now()}
		s.jobs.add(rec)
		go func() {
			val, ferr := fl.wait()
			rec.complete(val, ferr)
		}()
		writeJSON(w, http.StatusAccepted, rec.snapshot())
		return
	}
	select {
	case <-fl.done:
	case <-r.Context().Done():
		s.writeError(w, http.StatusGatewayTimeout, "request abandoned while the computation runs")
		return
	}
	val, ferr := fl.wait()
	if ferr != nil && val == nil {
		onError(w, ferr)
		return
	}
	// val != nil with a cancel-shaped ferr is a ranked partial (deadline or
	// drain): it ships as a 200 with cancelled=true and the error inline.
	render(w, val)
}

// exploreJob is the one compute job behind /v1/explore and
// /v1/explore/stream, so both admit through execute and coalesce on the
// spec hash. hook, when non-nil, installs per-run callbacks
// (Progress/OnImproved) on the spec the engine receives; a request that
// joins another request's flight never runs its own job, so its hook
// never fires.
func (s *Server) exploreJob(norm core.Spec, hook func(*core.Spec)) jobFunc {
	engineWorkers := s.cfg.EngineWorkers
	return func(ctx context.Context) (any, error, bool) {
		sp := norm
		sp.Context = ctx
		sp.Workers = engineWorkers
		if hook != nil {
			hook(&sp)
		}
		res, xerr := s.explore(sp)
		if xerr != nil {
			if res != nil && len(res.Candidates) > 0 && (isCancel(xerr) || errors.Is(xerr, ErrIncomplete)) {
				// Ranked partial (deadline/drain/lost shards): deliver,
				// don't cache.
				s.metrics.notePruned(res.Stats.PrunedBound, res.Stats.PrunedHalving)
				return ExploreResponseFromResult(res, xerr), xerr, false
			}
			return nil, xerr, false
		}
		s.metrics.notePruned(res.Stats.PrunedBound, res.Stats.PrunedHalving)
		return ExploreResponseFromResult(res, nil), nil, true
	}
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	spec, err := req.Spec.ToSpec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	norm, err := spec.Normalized()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := SpecHash(norm)
	fn := s.exploreJob(norm, nil)
	s.dispatch(w, r, "explore", hash, req.Async, s.timeoutFor(req.TimeoutMS), fn,
		func(w http.ResponseWriter, val any) {
			writeJSON(w, http.StatusOK, val.(*ExploreResponse).Trimmed(req.Top))
		},
		func(w http.ResponseWriter, err error) {
			var inf *ivr.InfeasibleError
			switch {
			case errors.As(err, &inf):
				// The space was swept and nothing fits the budget: a valid
				// question with an unwelcome answer, not a server fault.
				s.writeError(w, http.StatusUnprocessableEntity, err.Error())
			case errors.Is(err, context.DeadlineExceeded):
				s.writeError(w, http.StatusGatewayTimeout, "exploration exceeded its deadline before any candidate completed")
			case errors.Is(err, context.Canceled):
				s.writeError(w, http.StatusServiceUnavailable, "exploration cancelled (server draining)")
			default:
				s.writeError(w, http.StatusInternalServerError, err.Error())
			}
		})
}

func (s *Server) handleTransient(w http.ResponseWriter, r *http.Request) {
	var req TransientRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.TUS < 0 || req.DtNS < 0 {
		s.writeError(w, http.StatusBadRequest, "t_us and dt_ns must be >= 0")
		return
	}
	hash := req.Hash()
	opts := req.Options(s.cfg.EngineWorkers)
	fn := func(ctx context.Context) (any, error, bool) {
		res, terr := s.transient(ctx, opts)
		if terr != nil {
			return nil, terr, false
		}
		return TransientResponseFromResult(hash, res), nil, true
	}
	s.dispatch(w, r, "transient", hash, req.Async, s.timeoutFor(req.TimeoutMS), fn,
		func(w http.ResponseWriter, val any) {
			writeJSON(w, http.StatusOK, val)
		},
		func(w http.ResponseWriter, err error) {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				s.writeError(w, http.StatusGatewayTimeout, "transient sweep exceeded its deadline")
			case errors.Is(err, context.Canceled):
				s.writeError(w, http.StatusServiceUnavailable, "transient sweep cancelled (server draining)")
			default:
				// The engine validates inputs (benchmark names, IVR counts)
				// before simulating; those surface as client errors.
				s.writeError(w, http.StatusBadRequest, err.Error())
			}
		})
}

func (s *Server) handleHybrid(w http.ResponseWriter, r *http.Request) {
	var req HybridRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	spec, err := req.ToSpec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := req.Hash()
	engineWorkers := s.cfg.EngineWorkers
	fn := func(ctx context.Context) (any, error, bool) {
		sp := spec
		sp.Context = ctx
		sp.Workers = engineWorkers
		// Retain the full rankable view once; every Top trims from it.
		sp.Top = hybridRetain
		res, herr := s.hybrid(sp)
		if herr != nil {
			return nil, herr, false
		}
		s.metrics.noteHybrid(res.Stats)
		return HybridResponseFromResult(hash, res), nil, true
	}
	s.dispatch(w, r, "hybrid", hash, req.Async, s.timeoutFor(req.TimeoutMS), fn,
		func(w http.ResponseWriter, val any) {
			writeJSON(w, http.StatusOK, val.(*HybridResponse).Trimmed(req.Top))
		},
		func(w http.ResponseWriter, err error) {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				s.writeError(w, http.StatusGatewayTimeout, "hybrid sweep exceeded its deadline")
			case errors.Is(err, context.Canceled):
				s.writeError(w, http.StatusServiceUnavailable, "hybrid sweep cancelled (server draining)")
			default:
				// The sweep validates its inputs (floorplan, rails, span)
				// before simulating; those surface as client errors.
				s.writeError(w, http.StatusBadRequest, err.Error())
			}
		})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	// 404 covers three cases with one answer: an id that never existed, a
	// finished record past the retention TTL, and a record evicted
	// finished-first under the JobHistory cap. Clients must treat job ids
	// as expiring handles, not durable names.
	rec, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job (records expire after the retention TTL and are evicted under the history cap)")
		return
	}
	writeJSON(w, http.StatusOK, rec.snapshot())
}

// healthBody is the /healthz response.
type healthBody struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthBody{Status: "ok", QueueDepth: s.pool.Depth(), Running: s.pool.Running()}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleCluster reports the replica's cluster role and, on a coordinator,
// per-worker health, shard latency quantiles, and retry counters.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := ClusterResponse{Role: s.cfg.Role}
	if s.cluster != nil {
		resp.Workers = s.cluster.snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.gauges())
}
