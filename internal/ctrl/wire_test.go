package ctrl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/netmodel"
)

// wireBodies seeds the codec fuzz: canonical, whitespace-padded,
// reordered, escaped, null, case-variant-key, duplicate-key and
// trailing-garbage bodies.
var wireBodies = []string{
	`{"id":1,"from":"node0","to":"node1"}`,
	`{"id":1,"from":"node0","to":"node1","at":12.5}`,
	`{"id":7,"at":13}`,
	` { "id" : -42 ,	"from":"a" ,"to" :"b"
	, "at":1e-3 }  ` + "\r\n",
	`{"at":-0,"to":"node1","id":0,"from":"node0"}`,
	`{"id":1,"from":"node\u0030","to":"node1"}`,
	`{"id":1,"from":"node0","to":"no\"de1"}`,
	`{"id":1,"from":"a\\b","to":"c"}`,
	`{"id":1,"from":"nöde0","to":"node1"}`,
	`{"id":1,"at":null}`,
	`{"id":null,"from":null,"to":"x"}`,
	`{"ID":1,"From":"node0","tO":"node1"}`,
	`{"id":1,"id":2,"from":"a","to":"b"}`,
	`{"id":1,"at":1,"at":null}`,
	`{"id":1,"from":"a","to":"b"} trailing`,
	`{"id":1,"from":"a","to":"b"}}`,
	`{"id":1,"from":"a","to":"b",}`,
	`{"id":1.0}`, `{"id":1e2}`, `{"id":01}`, `{"id":-}`, `{"id":"1"}`,
	`{"id":9223372036854775807}`, `{"id":-9223372036854775808}`, `{"id":9223372036854775808}`,
	`{"id":999999999999999999,"at":1e400}`, `{"id":1,"at":1.}`, `{"id":1,"at":.5}`,
	`{"id":1,"at":2E+2,"extra":true}`, `{}`, ``, `null`, `[1]`, `{"id":1`,
}

// FuzzWireMatchesEncodingJSON pins the hot-path codec to encoding/json:
// whenever the scanner takes a body, encoding/json (DisallowUnknownFields)
// accepts it into the endpoint's request type with the same values; and
// the hand-appended success replies equal json.Encoder's bytes.
func FuzzWireMatchesEncodingJSON(f *testing.F) {
	for i, body := range wireBodies {
		f.Add([]byte(body), int64(i)-3, i%2 == 0, i%3 == 0, i, i-1)
	}
	f.Add([]byte(`{"id":1}`), int64(math.MinInt64), true, true, math.MaxInt, math.MinInt)
	f.Fuzz(func(t *testing.T, body []byte, id int64, admitted, alternate bool, hops, blockedAt int) {
		if r, ok := scanRequest(body, admitKeys); ok {
			var ar AdmitRequest
			if err := strictDecode(body, &ar); err != nil {
				t.Fatalf("scanner took %q, encoding/json refuses it: %v", body, err)
			}
			checkSameRequest(t, body, r, ar.ID, ar.From, ar.To, ar.At)
		}
		if r, ok := scanRequest(body, releaseKeys); ok {
			var rr ReleaseRequest
			if err := strictDecode(body, &rr); err != nil {
				t.Fatalf("scanner took %q, encoding/json refuses it: %v", body, err)
			}
			checkSameRequest(t, body, r, rr.ID, "", "", rr.At)
		}
		ar := AdmitResponse{ID: id, Admitted: admitted, Alternate: alternate, Hops: hops, BlockedAt: blockedAt}
		if got, want := appendAdmitResponse(nil, ar), encoded(t, ar); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %s\nwant %s", ar, got, want)
		}
		rr := ReleaseResponse{ID: id, Released: admitted}
		if got, want := appendReleaseResponse(nil, rr), encoded(t, rr); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %s\nwant %s", rr, got, want)
		}
	})
}

// strictDecode is the handlers' fallback decoder.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func checkSameRequest(t *testing.T, body []byte, r wireReq, id int64, from, to string, at *float64) {
	t.Helper()
	if r.id != id || string(r.from) != from || string(r.to) != to || r.hasAt != (at != nil) ||
		at != nil && math.Float64bits(r.at) != math.Float64bits(*at) {
		t.Fatalf("%q: scanner %+v, encoding/json id=%d from=%q to=%q at=%v", body, r, id, from, to, at)
	}
}

func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestScannerTakesPlainBodies: the fast path is the one the wire uses —
// the bodies clients send, padded or reordered, never fall back.
func TestScannerTakesPlainBodies(t *testing.T) {
	for _, c := range []struct {
		body string
		keys uint8
		want wireReq
	}{
		{`{"id":1,"from":"node0","to":"node1"}`, admitKeys, wireReq{id: 1, from: []byte("node0"), to: []byte("node1")}},
		{` {"to":"b" , "at": 2.5e1,` + "\n\t" + `"from":"a","id":-3}` + "\r\n", admitKeys,
			wireReq{id: -3, from: []byte("a"), to: []byte("b"), at: 25, hasAt: true}},
		{`{"id":1,"from":"a","to":"b","at":null}`, admitKeys, wireReq{id: 1, from: []byte("a"), to: []byte("b")}},
		{`{"id":123456789012345678}`, releaseKeys, wireReq{id: 123456789012345678}},
		{`{"at":0.5,"id":9}`, releaseKeys, wireReq{id: 9, at: 0.5, hasAt: true}},
	} {
		r, ok := scanRequest([]byte(c.body), c.keys)
		if !ok || fmt.Sprint(r) != fmt.Sprint(c.want) {
			t.Errorf("%q: scanner %+v (took %v), want %+v", c.body, r, ok, c.want)
		}
	}
	// The endpoint's key set is enforced: /release has no from.
	if _, ok := scanRequest([]byte(`{"id":1,"from":"a"}`), releaseKeys); ok {
		t.Error("scanner took a from key for /release")
	}
}

// TestWireAllocsPerRequest pins the codec's saving: serving /admit and
// /release through the mux into recorders allocates at most 6 objects
// per request (17 with the reflection codec and the channel hand-off).
func TestWireAllocsPerRequest(t *testing.T) {
	g := netmodel.Quadrangle()
	srv, err := NewServer(Config{Graph: g, Policy: quadranglePolicy(t, g, 85)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()
	mux := srv.Mux()
	const runs = 200
	type exchange struct {
		req *http.Request
		rec *httptest.ResponseRecorder
	}
	// AllocsPerRun calls the function once more than runs to warm up.
	ex := make([]exchange, 2*(runs+1))
	for i := range ex {
		id := i / 2
		body := fmt.Sprintf(`{"id":%d,"from":"node%d","to":"node%d"}`, id, id%4, (id+1)%4)
		path := "/admit"
		if i%2 == 1 {
			body, path = fmt.Sprintf(`{"id":%d}`, id), "/release"
		}
		ex[i] = exchange{httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)), httptest.NewRecorder()}
	}
	next := 0
	perPair := testing.AllocsPerRun(runs, func() {
		for k := 0; k < 2; k++ {
			e := ex[next]
			next++
			mux.ServeHTTP(e.rec, e.req)
			if e.rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", e.req.URL.Path, e.rec.Code, e.rec.Body)
			}
		}
	})
	perRequest := perPair / 2
	t.Logf("%.1f allocations per request", perRequest)
	if perRequest > 6 {
		t.Errorf("%.1f allocations per request, want ≤ 6", perRequest)
	}
}

// TestBodyCap: a POST body over maxBody is refused with 413 and a JSON
// error before anything is decided — even one that is valid JSON with
// only whitespace padding it out.
func TestBodyCap(t *testing.T) {
	g := netmodel.Quadrangle()
	srv, err := NewServer(Config{Graph: g, Policy: quadranglePolicy(t, g, 85)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	cl := ts.Client()
	if _, code := post[AdmitResponse](t, cl, ts.URL+"/admit", AdmitRequest{ID: 1, From: "node0", To: "node1"}); code != http.StatusOK {
		t.Fatalf("admit: %d", code)
	}
	before, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", 1<<20)
	for _, c := range []struct{ path, body string }{
		{"/admit", `{"id":2,"from":"node0","to":"node1"}` + pad},
		{"/admit", `{"id":2,"from":"` + strings.Repeat("a", 1<<20) + `","to":"node1"}`},
		{"/release", pad + `{"id":1}`},
		{"/topology", `{"from":"node0","to":"node1","down":true,"duplex":true}` + pad},
	} {
		resp, err := cl.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
			t.Errorf("%s with a %d-byte body: status %d, error %q (%v), want 413 with a JSON error",
				c.path, len(c.body), resp.StatusCode, e.Error, err)
		}
	}
	after, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if after.Metrics != before.Metrics || after.Occupancy != before.Occupancy {
		t.Errorf("oversized bodies moved the server: %+v occupancy %d → %+v occupancy %d",
			before.Metrics, before.Occupancy, after.Metrics, after.Occupancy)
	}
}

// TestErrorRepliesAreJSON: every error-only reply is application/json and
// decodes with encoding/json to its message — also a message holding a
// control byte, quotes and markup, whose Go-quoted form (`\x01`) is not
// JSON — and so are the server's real 400 and 413 refusals.
func TestErrorRepliesAreJSON(t *testing.T) {
	check := func(what string, code int, header http.Header, body []byte, wantCode int, wantMsg string) {
		t.Helper()
		if ct := header.Get("Content-Type"); code != wantCode || ct != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q; want %d, application/json", what, code, ct, wantCode)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: body %q does not decode: %v", what, body, err)
		} else if wantMsg != "" && e.Error != wantMsg || e.Error == "" {
			t.Errorf("%s: error %q, want %q", what, e.Error, wantMsg)
		}
	}
	const msg = "bad \x01 \"request\" <b>é\t"
	for _, code := range []int{http.StatusBadRequest, http.StatusRequestEntityTooLarge} {
		rec := httptest.NewRecorder()
		httpError(rec, code, msg)
		check(fmt.Sprintf("httpError %d", code), rec.Code, rec.Header(), rec.Body.Bytes(), code, msg)
	}

	g := netmodel.Quadrangle()
	srv, err := NewServer(Config{Graph: g, Policy: quadranglePolicy(t, g, 85)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"id":1,"<\u0001>":2}`, http.StatusBadRequest},
		{`{"id":1,"from":"node0","to":"node1"}` + strings.Repeat(" ", maxBody), http.StatusRequestEntityTooLarge},
	} {
		resp, err := ts.Client().Post(ts.URL+"/admit", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("/admit %.20q", c.body), resp.StatusCode, resp.Header, body.Bytes(), c.code, "")
	}
}
