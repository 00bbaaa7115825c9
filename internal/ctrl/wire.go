package ctrl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/graph"
)

// This file is the JSON-over-HTTP wire layer (stdlib net/http only).
// Endpoints:
//
//	POST /admit    {"id":1,"from":"sf","to":"ny","at":12.5}   (at optional)
//	POST /release  {"id":1,"at":13.0}                          (at optional)
//	POST /topology {"from":"sf","to":"ny","down":true,"duplex":true}
//	GET  /status
//
// Handlers only decode, enqueue, and encode; every decision happens on the
// server's single loop, so concurrent clients serialize in arrival order.

// AdmitRequest is the wire form of an admission request. At is the model-
// time decision timestamp; omitted, the server stamps it from the injected
// clock.
type AdmitRequest struct {
	ID   int64    `json:"id"`
	From string   `json:"from"`
	To   string   `json:"to"`
	At   *float64 `json:"at,omitempty"`
}

// AdmitResponse reports one decision.
type AdmitResponse struct {
	ID        int64  `json:"id"`
	Admitted  bool   `json:"admitted"`
	Alternate bool   `json:"alternate"`
	Hops      int    `json:"hops"`
	BlockedAt int    `json:"blocked_at"` // link id, -1 when not blocked/unattributed
	Error     string `json:"error,omitempty"`
}

// ReleaseRequest is the wire form of a release.
type ReleaseRequest struct {
	ID int64    `json:"id"`
	At *float64 `json:"at,omitempty"`
}

// ReleaseResponse acknowledges a release.
type ReleaseResponse struct {
	ID       int64  `json:"id"`
	Released bool   `json:"released"`
	Error    string `json:"error,omitempty"`
}

// TopologyRequest notifies the controller of a link failure or repair.
// Duplex applies the change to both directions of the facility.
type TopologyRequest struct {
	From   string   `json:"from"`
	To     string   `json:"to"`
	Down   bool     `json:"down"`
	Duplex bool     `json:"duplex,omitempty"`
	At     *float64 `json:"at,omitempty"`
}

// TopologyResponse acknowledges a topology change.
type TopologyResponse struct {
	Links []int  `json:"links"` // affected link ids
	Down  bool   `json:"down"`
	Error string `json:"error,omitempty"`
}

// Mux returns the control API handler. Observability endpoints (the
// PromHandler /metrics, expvar, pprof) are mounted by the daemon next to
// this mux, not inside it, so library users compose their own.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /admit", s.handleAdmit)
	mux.HandleFunc("POST /release", s.handleRelease)
	mux.HandleFunc("POST /topology", s.handleTopology)
	mux.HandleFunc("GET /status", s.handleStatus)
	return mux
}

// nodeByName resolves a display name to its NodeID.
func (s *Server) nodeByName(name string) (graph.NodeID, bool) {
	g := s.eng.g
	for i := 0; i < g.NumNodes(); i++ {
		if g.NodeName(graph.NodeID(i)) == name {
			return graph.NodeID(i), true
		}
	}
	return graph.InvalidNode, false
}

// decode parses a JSON body with unknown fields rejected.
func decode(w http.ResponseWriter, req *http.Request, v any) bool {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, "bad request: "+err.Error()), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errStatus maps a decision error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrShutdown), errors.Is(err, ErrNotCompiled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDuplicateCall), errors.Is(err, ErrUnknownCall), errors.Is(err, ErrBadNode):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleAdmit(w http.ResponseWriter, req *http.Request) {
	var ar AdmitRequest
	if !decode(w, req, &ar) {
		return
	}
	origin, ok := s.nodeByName(ar.From)
	if !ok {
		writeJSON(w, http.StatusBadRequest, AdmitResponse{ID: ar.ID, BlockedAt: -1,
			Error: fmt.Sprintf("unknown node %q", ar.From)})
		return
	}
	dest, ok := s.nodeByName(ar.To)
	if !ok {
		writeJSON(w, http.StatusBadRequest, AdmitResponse{ID: ar.ID, BlockedAt: -1,
			Error: fmt.Sprintf("unknown node %q", ar.To)})
		return
	}
	at, hasAt := 0.0, false
	if ar.At != nil {
		at, hasAt = *ar.At, true
	}
	dec, err := s.Admit(ar.ID, origin, dest, at, hasAt)
	resp := AdmitResponse{ID: ar.ID, Admitted: dec.Admitted, Alternate: dec.Alternate,
		Hops: len(dec.Links), BlockedAt: int(dec.BlockedAt)}
	if err != nil {
		resp.Error = err.Error()
		writeJSON(w, errStatus(err), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRelease(w http.ResponseWriter, req *http.Request) {
	var rr ReleaseRequest
	if !decode(w, req, &rr) {
		return
	}
	at, hasAt := 0.0, false
	if rr.At != nil {
		at, hasAt = *rr.At, true
	}
	if err := s.Release(rr.ID, at, hasAt); err != nil {
		writeJSON(w, errStatus(err), ReleaseResponse{ID: rr.ID, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{ID: rr.ID, Released: true})
}

func (s *Server) handleTopology(w http.ResponseWriter, req *http.Request) {
	var tr TopologyRequest
	if !decode(w, req, &tr) {
		return
	}
	from, ok := s.nodeByName(tr.From)
	if !ok {
		writeJSON(w, http.StatusBadRequest, TopologyResponse{Down: tr.Down,
			Error: fmt.Sprintf("unknown node %q", tr.From)})
		return
	}
	to, ok := s.nodeByName(tr.To)
	if !ok {
		writeJSON(w, http.StatusBadRequest, TopologyResponse{Down: tr.Down,
			Error: fmt.Sprintf("unknown node %q", tr.To)})
		return
	}
	// Resolve every direction before applying any, so a rejected request
	// leaves the topology untouched.
	ends := [][2]graph.NodeID{{from, to}}
	if tr.Duplex {
		ends = append(ends, [2]graph.NodeID{to, from})
	}
	g := s.eng.g
	ids := make([]graph.LinkID, len(ends))
	for i, e := range ends {
		if ids[i] = g.LinkBetween(e[0], e[1]); ids[i] == graph.InvalidLink {
			writeJSON(w, http.StatusBadRequest, TopologyResponse{Down: tr.Down,
				Error: fmt.Sprintf("no link %s→%s", g.NodeName(e[0]), g.NodeName(e[1]))})
			return
		}
	}
	at, hasAt := 0.0, false
	if tr.At != nil {
		at, hasAt = *tr.At, true
	}
	resp := TopologyResponse{Down: tr.Down}
	for _, id := range ids {
		if err := s.Topology(id, tr.Down, at, hasAt); err != nil {
			resp.Error = err.Error()
			writeJSON(w, errStatus(err), resp)
			return
		}
		resp.Links = append(resp.Links, int(id))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st, err := s.Status()
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), errStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}
