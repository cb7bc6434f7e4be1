package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ivory/internal/core"
	"ivory/internal/ivr"
)

// The shard wire protocol: a coordinator ships a canonical Spec plus a
// slice [Lo, Hi) of its exhaustive enumeration to a worker replica, and the
// worker evaluates the same slice of its own canonical enumeration and
// returns the per-ref outcomes. Total carries the coordinator's
// enumeration length so version skew (replicas enumerating different
// spaces) is a 409, never a silent mis-merge.
//
// Candidate metrics travel as raw engine values (ivr.Metrics), not the
// unit-converted display DTOs: Go's float64 JSON round-trip is exact, so
// the coordinator's ranking, tie-breaking, and pruning decisions are
// bit-identical to a single-node run. Shards are all-or-nothing — a worker
// that cannot finish a slice returns an error status and the coordinator
// retries the whole slice elsewhere — so a merged result never mixes
// torn shard halves.

// ShardRequest is the body of POST /v1/shard/explore.
type ShardRequest struct {
	Spec     SpecDTO `json:"spec"`
	SpecHash string  `json:"spec_hash"`
	// AreaM2 is the coordinator's area budget at engine precision (m²).
	// SpecDTO's mm² unit does not round-trip exactly for every float64
	// (0.05 mm² drifts 1 ULP through ×1e-6, ×1e6, ×1e-6), and the
	// determinism contract needs coordinator and workers to hash and
	// evaluate identical bits; a nonzero value overrides the converted
	// Spec.AreaMM2.
	AreaM2 float64 `json:"area_m2,omitempty"`
	// Lo/Hi is the half-open slice of the canonical enumeration.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Total is the coordinator's full enumeration length, cross-checked
	// against the worker's own enumeration (0 skips the check).
	Total int `json:"total,omitempty"`
	// TimeoutMS caps the worker-side compute deadline (clamped under the
	// worker's own RequestTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ShardCandidateDTO is one accepted candidate at full engine precision.
type ShardCandidateDTO struct {
	Kind    int         `json:"kind"`
	Label   string      `json:"label"`
	Metrics ivr.Metrics `json:"metrics"`
}

// ShardOutcomeDTO is the outcome of one ref of the slice.
type ShardOutcomeDTO struct {
	Candidates []ShardCandidateDTO `json:"candidates,omitempty"`
	Rejected   int                 `json:"rejected,omitempty"`
}

// ShardResponse is the body of a completed shard evaluation. Outcomes
// aligns positionally with the requested slice.
type ShardResponse struct {
	SpecHash string            `json:"spec_hash"`
	Lo       int               `json:"lo"`
	Hi       int               `json:"hi"`
	Total    int               `json:"total"`
	Outcomes []ShardOutcomeDTO `json:"outcomes"`
}

func shardOutcomeDTO(o core.RefOutcome) ShardOutcomeDTO {
	d := ShardOutcomeDTO{Rejected: o.Rejected}
	for _, c := range o.Candidates {
		d.Candidates = append(d.Candidates, ShardCandidateDTO{Kind: int(c.Kind), Label: c.Label, Metrics: c.Metrics})
	}
	return d
}

// toRefOutcome reconstructs the engine outcome. The design pointers
// (Candidate.SC/Buck/LDO) do not cross the wire; ranking, pruning, and the
// response DTOs consume only Kind/Label/Metrics, so the merged result is
// still byte-identical on the wire.
func (d ShardOutcomeDTO) toRefOutcome() core.RefOutcome {
	out := core.RefOutcome{Rejected: d.Rejected}
	for _, c := range d.Candidates {
		out.Candidates = append(out.Candidates, core.Candidate{Kind: core.Kind(c.Kind), Label: c.Label, Metrics: c.Metrics})
	}
	return out
}

// errShardSkew marks a fatal coordinator/worker disagreement (spec hash or
// enumeration length); retrying on another replica of the same build
// cannot help, so the coordinator fails the shard immediately.
var errShardSkew = errors.New("server: shard version skew")

// handleShardExplore serves one shard evaluation on a worker replica. The
// request passes the same admission path as full explorations — bounded
// queue with 429/Retry-After, singleflight per (hash, slice) — but its
// result is never cached: shard fragments must not shadow the full-result
// cache entry of the same spec hash, and the coordinator retries are
// cheaper than cache coherence across partial keys.
func (s *Server) handleShardExplore(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	spec, err := req.Spec.ToSpec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.AreaM2 > 0 {
		spec.AreaMax = req.AreaM2
	}
	norm, err := spec.Normalized()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := SpecHash(norm)
	if req.SpecHash != "" && req.SpecHash != hash {
		s.writeError(w, http.StatusConflict,
			fmt.Sprintf("spec hash mismatch: coordinator sent %s, worker computed %s (version skew?)", req.SpecHash, hash))
		return
	}
	key := "shard:" + hash + ":" + strconv.Itoa(req.Lo) + "-" + strconv.Itoa(req.Hi)
	engineWorkers := s.cfg.EngineWorkers
	fn := func(ctx context.Context) (any, error, bool) {
		sp := norm
		sp.Context = ctx
		sp.Workers = engineWorkers
		rr, xerr := core.ExploreRange(sp, req.Lo, req.Hi)
		// All-or-nothing: a cancelled or failed slice returns an error
		// status so the coordinator retries the whole slice; partial shard
		// outcomes never ship.
		if xerr != nil {
			return nil, xerr, false
		}
		if req.Total > 0 && rr.Total != req.Total {
			return nil, fmt.Errorf("%w: coordinator enumerated %d configurations, worker %d", errShardSkew, req.Total, rr.Total), false
		}
		resp := &ShardResponse{SpecHash: hash, Lo: req.Lo, Hi: req.Hi, Total: rr.Total}
		for _, o := range rr.Outcomes {
			resp.Outcomes = append(resp.Outcomes, shardOutcomeDTO(o))
		}
		return resp, nil, false
	}
	s.dispatch(w, r, "shard", key, false, s.timeoutFor(req.TimeoutMS), fn,
		func(w http.ResponseWriter, val any) {
			// Compact: the coordinator's decoder is the only reader.
			encodeJSON(w, http.StatusOK, val, "")
		},
		func(w http.ResponseWriter, err error) {
			switch {
			case errors.Is(err, errShardSkew):
				s.writeError(w, http.StatusConflict, err.Error())
			case isCancel(err):
				// Deadline or drain mid-slice: the coordinator should retry
				// the whole slice on another replica.
				s.writeError(w, http.StatusServiceUnavailable, "shard evaluation interrupted: "+err.Error())
			default:
				// Bad ranges surface here (the engine bounds-checks the
				// slice before evaluating).
				s.writeError(w, http.StatusBadRequest, err.Error())
			}
		})
}
