// Cluster endpoints of the query service: the worker side executes
// fragment plans for a remote coordinator (POST /v1/fragment), and the
// coordinator side exposes its topology for discovery and late joins
// (GET /v1/cluster, POST /v1/cluster/join). See internal/cluster for the
// scatter/gather protocol and DESIGN.md §15 for failure semantics.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"proteus/internal/engine"
	"proteus/internal/obs"
)

// fragmentRequest is the POST /v1/fragment body (mirrors the coordinator's
// scatter client in internal/cluster).
type fragmentRequest struct {
	Lang        string `json:"lang"`
	Query       string `json:"query"`
	Start       int64  `json:"start"`
	End         int64  `json:"end"`
	Fingerprint string `json:"fingerprint"`
}

// handleFragment executes one fragment plan as a cluster worker and answers
// with the partial state as one binary frame (exec.Partial.EncodeStream; the
// layout is in exec/fragment.go). A plan-fingerprint divergence
// returns 409 Conflict, which tells the coordinator to fall back to local
// execution; every other failure maps through the same statusOf the query
// endpoint uses.
func (s *Server) handleFragment(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		obs.WriteJSONError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req fragmentRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		obs.WriteJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		obs.WriteJSONError(w, http.StatusBadRequest, "empty query")
		return
	}
	lang := engine.LangSQL
	if req.Lang == engine.LangComp {
		lang = engine.LangComp
	}

	reqID := s.requestID(r)
	w.Header().Set("X-Request-Id", reqID)
	s.fragmentsStarted.Add(1)

	ctx := engine.WithQueryTag(r.Context(), reqID)
	p, err := s.db.Engine().ExecuteFragment(ctx, lang, req.Query, req.Start, req.End, req.Fingerprint)
	if err != nil {
		if errors.Is(err, engine.ErrFragmentMismatch) {
			obs.WriteJSONError(w, http.StatusConflict, err.Error())
			return
		}
		obs.WriteJSONError(w, statusOf(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// The frame's end marker is the integrity signal: if the connection
	// drops mid-write, the coordinator sees a truncated frame and treats
	// the attempt as failed — never as data. A write error here is that
	// same dropped connection, so there is nobody left to report it to.
	_ = p.EncodeStream(w)
}

// clusterJoinRequest is the POST /v1/cluster/join body: the advertised base
// URL of the worker joining the topology.
type clusterJoinRequest struct {
	URL string `json:"url"`
}

// handleClusterJoin admits a worker into the coordinator's topology
// (idempotent). 409 when this node is not a coordinator.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		obs.WriteJSONError(w, http.StatusConflict, "this node is not a cluster coordinator")
		return
	}
	var req clusterJoinRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		obs.WriteJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if strings.TrimSpace(req.URL) == "" {
		obs.WriteJSONError(w, http.StatusBadRequest, "missing worker url")
		return
	}
	added := s.cluster.AddWorker(req.URL)
	if !added && !contains(s.cluster.Workers(), strings.TrimRight(strings.TrimSpace(req.URL), "/")) {
		obs.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("invalid worker url %q", req.URL))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Added   bool     `json:"added"`
		Workers []string `json:"workers"`
	}{added, s.cluster.Workers()})
}

// handleClusterInfo reports the node's cluster role and, for coordinators,
// the current topology.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	role := "worker"
	var workers []string
	if s.cluster != nil {
		role = "coordinator"
		workers = s.cluster.Workers()
	}
	writeJSON(w, http.StatusOK, struct {
		Role    string   `json:"role"`
		Workers []string `json:"workers,omitempty"`
	}{role, workers})
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
