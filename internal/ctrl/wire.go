package ctrl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

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
// Handlers decode, decide under the server's lock on their own goroutine,
// and encode; concurrent clients serialize in the order they take the
// lock. Every POST body is capped at maxBody bytes. /admit and /release
// parse their bodies with a small scanner and append their success
// replies by hand (FuzzWireMatchesEncodingJSON pins both to
// encoding/json); any body the scanner does not take, and every other
// endpoint and reply, goes through encoding/json.

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

// maxBody caps every POST body; a larger one is answered with 413 before
// anything in it is decoded.
const maxBody = 4 << 10

// bodyPool recycles the buffers the POST handlers read bodies into; /admit
// and /release append their replies to the same buffer.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, maxBody+1)
	return &b
}}

// jsonContentType is every reply's Content-Type, shared so that setting it
// allocates nothing.
var jsonContentType = []string{"application/json"}

// readBody reads a POST body into buf (len maxBody+1). A body over maxBody
// bytes is answered with 413, a failed read with 400; both report false.
func readBody(w http.ResponseWriter, req *http.Request, buf []byte) ([]byte, bool) {
	n, err := io.ReadFull(req.Body, buf)
	switch {
	case err == nil:
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds "+strconv.Itoa(maxBody)+" bytes")
		return nil, false
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return nil, false
	}
	return buf[:n], true
}

// decode parses a JSON body with unknown fields rejected.
func decode(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, fmt.Sprintf(`{"error":%q}`, msg), code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeOK sends a hand-appended 200 reply.
func writeOK(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(body)
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

// wireReq is an /admit or /release body as the handlers use it; from and
// to may alias the body.
type wireReq struct {
	id       int64
	from, to []byte
	at       float64
	hasAt    bool
}

// The keys scanRequest knows, as bits of a key set.
const (
	keyID uint8 = 1 << iota
	keyFrom
	keyTo
	keyAt

	admitKeys   = keyID | keyFrom | keyTo | keyAt
	releaseKeys = keyID | keyAt
)

// scanRequest parses the plain form of an /admit (admitKeys) or /release
// (releaseKeys) body without reflection: one JSON object whose keys are
// the endpoint's lowercase names, each at most once, in any order, with
// an integer id, unescaped printable-ASCII from and to, a number or null
// for at, and only JSON whitespace around the tokens. It reports false for
// every other body, which then goes to encoding/json, so a body it
// accepts decodes to the values encoding/json gives.
func scanRequest(b []byte, keys uint8) (r wireReq, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return r, false
	}
	var seen uint8
	for {
		i = skipSpace(b, i+1)
		key, j, ok := scanString(b, i)
		if !ok {
			return r, false
		}
		var k uint8
		switch string(key) {
		case "id":
			k = keyID
		case "from":
			k = keyFrom
		case "to":
			k = keyTo
		case "at":
			k = keyAt
		}
		if k&keys == 0 || k&seen != 0 {
			return r, false
		}
		seen |= k
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return r, false
		}
		i = skipSpace(b, i+1)
		switch k {
		case keyID:
			r.id, j, ok = scanInt(b, i)
		case keyFrom:
			r.from, j, ok = scanString(b, i)
		case keyTo:
			r.to, j, ok = scanString(b, i)
		case keyAt:
			if bytes.HasPrefix(b[i:], []byte("null")) {
				j, ok = i+len("null"), true
			} else {
				r.at, j, ok = scanFloat(b, i)
				r.hasAt = ok
			}
		}
		if !ok {
			return r, false
		}
		if i = skipSpace(b, j); i == len(b) {
			return r, false
		}
		if b[i] == '}' {
			return r, skipSpace(b, i+1) == len(b)
		}
		if b[i] != ',' {
			return r, false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString takes a string of printable ASCII without quote or backslash
// escapes starting at b[i], returning its contents and the index past it.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, j, false
		}
	}
	return nil, len(b), false
}

// scanNumber returns the end of the JSON number starting at b[i] and
// whether it is an integer (no fraction, no exponent).
func scanNumber(b []byte, i int) (end int, integer, ok bool) {
	digits := func(j int) int {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j == len(b):
		return j, false, false
	case b[j] == '0':
		j++
	case '1' <= b[j] && b[j] <= '9':
		j = digits(j)
	default:
		return j, false, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		if k := digits(j + 1); k > j+1 {
			j, integer = k, false
		} else {
			return k, false, false
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if e := digits(k); e > k {
			j, integer = e, false
		} else {
			return e, false, false
		}
	}
	return j, integer, true
}

// scanInt takes a JSON integer starting at b[i] and parses it as
// encoding/json does for an int64; one out of range is not taken.
func scanInt(b []byte, i int) (int64, int, bool) {
	end, integer, ok := scanNumber(b, i)
	if !ok || !integer {
		return 0, end, false
	}
	v, err := strconv.ParseInt(string(b[i:end]), 10, 64)
	return v, end, err == nil
}

// scanFloat takes a JSON number starting at b[i] and parses it as
// encoding/json does; an out-of-range number is not taken.
func scanFloat(b []byte, i int) (float64, int, bool) {
	end, _, ok := scanNumber(b, i)
	if !ok {
		return 0, end, false
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// appendAdmitResponse appends r as json.Encoder.Encode writes it, trailing
// newline included. It is for success replies, whose Error is empty;
// error replies go through writeJSON.
func appendAdmitResponse(b []byte, r AdmitResponse) []byte {
	b = strconv.AppendInt(append(b, `{"id":`...), r.ID, 10)
	b = strconv.AppendBool(append(b, `,"admitted":`...), r.Admitted)
	b = strconv.AppendBool(append(b, `,"alternate":`...), r.Alternate)
	b = strconv.AppendInt(append(b, `,"hops":`...), int64(r.Hops), 10)
	b = strconv.AppendInt(append(b, `,"blocked_at":`...), int64(r.BlockedAt), 10)
	return append(b, "}\n"...)
}

// appendReleaseResponse is appendAdmitResponse for ReleaseResponse.
func appendReleaseResponse(b []byte, r ReleaseResponse) []byte {
	b = strconv.AppendInt(append(b, `{"id":`...), r.ID, 10)
	b = strconv.AppendBool(append(b, `,"released":`...), r.Released)
	return append(b, "}\n"...)
}

func (s *Server) handleAdmit(w http.ResponseWriter, req *http.Request) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	body, ok := readBody(w, req, *buf)
	if !ok {
		return
	}
	r, ok := scanRequest(body, admitKeys)
	if !ok {
		var ar AdmitRequest
		if !decode(w, body, &ar) {
			return
		}
		r = wireReq{id: ar.ID, from: []byte(ar.From), to: []byte(ar.To)}
		if ar.At != nil {
			r.at, r.hasAt = *ar.At, true
		}
	}
	origin, ok := s.nodes[string(r.from)]
	if !ok {
		writeJSON(w, http.StatusBadRequest, AdmitResponse{ID: r.id, BlockedAt: -1,
			Error: fmt.Sprintf("unknown node %q", r.from)})
		return
	}
	dest, ok := s.nodes[string(r.to)]
	if !ok {
		writeJSON(w, http.StatusBadRequest, AdmitResponse{ID: r.id, BlockedAt: -1,
			Error: fmt.Sprintf("unknown node %q", r.to)})
		return
	}
	dec, err := s.Admit(r.id, origin, dest, r.at, r.hasAt)
	resp := AdmitResponse{ID: r.id, Admitted: dec.Admitted, Alternate: dec.Alternate,
		Hops: len(dec.Links), BlockedAt: int(dec.BlockedAt)}
	if err != nil {
		resp.Error = err.Error()
		writeJSON(w, errStatus(err), resp)
		return
	}
	writeOK(w, appendAdmitResponse((*buf)[:0], resp))
}

func (s *Server) handleRelease(w http.ResponseWriter, req *http.Request) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	body, ok := readBody(w, req, *buf)
	if !ok {
		return
	}
	r, ok := scanRequest(body, releaseKeys)
	if !ok {
		var rr ReleaseRequest
		if !decode(w, body, &rr) {
			return
		}
		r.id = rr.ID
		if rr.At != nil {
			r.at, r.hasAt = *rr.At, true
		}
	}
	if err := s.Release(r.id, r.at, r.hasAt); err != nil {
		writeJSON(w, errStatus(err), ReleaseResponse{ID: r.id, Error: err.Error()})
		return
	}
	writeOK(w, appendReleaseResponse((*buf)[:0], ReleaseResponse{ID: r.id, Released: true}))
}

func (s *Server) handleTopology(w http.ResponseWriter, req *http.Request) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	body, ok := readBody(w, req, *buf)
	if !ok {
		return
	}
	var tr TopologyRequest
	if !decode(w, body, &tr) {
		return
	}
	from, ok := s.nodes[tr.From]
	if !ok {
		writeJSON(w, http.StatusBadRequest, TopologyResponse{Down: tr.Down,
			Error: fmt.Sprintf("unknown node %q", tr.From)})
		return
	}
	to, ok := s.nodes[tr.To]
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
		httpError(w, errStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}
