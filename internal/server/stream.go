package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"ivory/internal/core"
)

// Streaming exploration: POST /v1/explore/stream runs one exploration on
// the shared worker pool and emits Server-Sent Events while it computes.
//
// Wire format (text/event-stream, one JSON object per data line):
//
//	event: progress   — StreamProgressEvent, sampled every progressStride
//	                    completed jobs (and at the final job)
//	event: best       — StreamBestEvent, once per strict improvement of
//	                    the best-so-far candidate under the objective
//	event: result     — ExploreResponse, terminal on success (also on a
//	                    ranked partial, with cancelled=true)
//	event: error      — ErrorResponse, terminal on failure
//
// Exactly one terminal event (result | error) ends every stream. The
// telemetry events are best-effort: a slow reader sheds progress/best
// events rather than stalling the engine, so consumers must treat them as
// a sampled view.
//
// The stream admits through the same path as POST /v1/explore (Server.
// execute with the shared exploreJob): result cache, then singleflight on
// the spec hash, then the bounded queue. A cache hit, or a stream that
// joins a flight another request started, therefore gets only the terminal
// event; and the final result is published to the result cache, so a later
// synchronous POST /v1/explore with the same spec hash returns the
// identical body without recomputing.

// progressStride samples the per-job progress callback down to one event
// every N completed jobs; the final job always emits.
const progressStride = 64

// StreamProgressEvent is the data payload of an SSE "progress" event.
type StreamProgressEvent struct {
	Jobs          int `json:"jobs"`
	Done          int `json:"done"`
	Evaluated     int `json:"evaluated"`
	Accepted      int `json:"accepted"`
	PrunedBound   int `json:"pruned_bound"`
	PrunedHalving int `json:"pruned_halving"`
	FrontSize     int `json:"front_size"`
}

// StreamBestEvent is the data payload of an SSE "best" event: a new
// best-so-far candidate and the exploration state when it was found.
type StreamBestEvent struct {
	Candidate CandidateDTO `json:"candidate"`
	Evaluated int          `json:"evaluated"`
	Pruned    int          `json:"pruned"`
	FrontSize int          `json:"front_size"`
}

// sseEvent is one rendered server-sent event.
type sseEvent struct {
	name string
	data []byte
}

func jsonEvent(name string, v any) sseEvent {
	data, err := json.Marshal(v)
	if err != nil {
		// Payloads are our own DTOs; a marshal failure is a programming
		// error, surfaced rather than silently dropped.
		name, data = "error", []byte(fmt.Sprintf(`{"error":"marshal: %v"}`, err))
	}
	return sseEvent{name: name, data: data}
}

func (s *Server) handleExploreStream(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Async {
		s.writeError(w, http.StatusBadRequest, "stream and async are mutually exclusive: the stream is the progress feed")
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
	// Telemetry sends are lossy, so the compute job never blocks on this
	// consumer: an abandoned stream drains and caches like a normal job.
	events := make(chan sseEvent, 64)
	push := func(ev sseEvent) {
		select {
		case events <- ev:
		default: // slow or gone consumer: shed telemetry, never stall
		}
	}
	fl, err := s.execute("explore_stream", SpecHash(norm), s.timeoutFor(req.TimeoutMS), s.exploreJob(norm, func(sp *core.Spec) {
		sp.Progress = func(st core.Stats) {
			if st.Done%progressStride == 0 || st.Done == st.Jobs {
				push(jsonEvent("progress", StreamProgressEvent{
					Jobs: st.Jobs, Done: st.Done,
					Evaluated: st.Evaluated(), Accepted: st.Accepted(),
					PrunedBound: st.PrunedBound, PrunedHalving: st.PrunedHalving,
					FrontSize: st.FrontSize,
				}))
			}
		}
		sp.OnImproved = func(c core.Candidate, st core.Stats) {
			push(jsonEvent("best", StreamBestEvent{
				Candidate: candidateDTO(c),
				Evaluated: st.Evaluated(), Pruned: st.Pruned(),
				FrontSize: st.FrontSize,
			}))
		}
	}))
	if err != nil {
		s.submitError(w, err)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeEvent := func(ev sseEvent) {
		// The stream is committed; a write failure means the client left,
		// which the terminal-event guarantee does not extend to.
		_, _ = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case ev := <-events:
			writeEvent(ev)
		case <-fl.done:
			// Every telemetry send happened before the job resolved the
			// flight, so what is buffered now is all there will be: drain
			// it, then write exactly one terminal event.
			for len(events) > 0 {
				writeEvent(<-events)
			}
			val, ferr := fl.wait()
			if val != nil {
				// Success, or a ranked partial with cancelled=true.
				writeEvent(jsonEvent("result", val))
			} else {
				writeEvent(jsonEvent("error", ErrorResponse{Error: ferr.Error()}))
			}
			return
		case <-r.Context().Done():
			// Client gone: the job keeps computing and caches its result;
			// only this subscription ends.
			return
		}
	}
}
