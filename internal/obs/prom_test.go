package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// promTestRegistry builds a registry holding one of everything: calls on
// primary and alternate paths, a block, occupancy samples on two links,
// failure events, a span, and a solver trace.
func promTestRegistry() *Registry {
	r := NewRegistry()
	for _, e := range []Event{
		{Kind: KindRunStart, Policy: "controlled", Seed: 1},
		{Kind: KindCallOffered, Measured: true, Drained: 2},
		{Kind: KindCallAdmitted, Measured: true, Hops: 1},
		{Kind: KindCallOffered, Measured: true, Drained: 0},
		{Kind: KindCallAdmitted, Measured: true, Hops: 2, Alternate: true},
		{Kind: KindCallOffered, Measured: true, Drained: 1},
		{Kind: KindCallBlocked, Measured: true, Link: 0},
		{Kind: KindLinkOccupancy, Link: 0, Occupancy: 3},
		{Kind: KindLinkOccupancy, Link: 1, Occupancy: 5},
		{Kind: KindLinkDown, Link: 1, Occupancy: 5},
		{Kind: KindCallLostFailure, Measured: true, Link: 1, Hops: 2},
		{Kind: KindLinkUp, Link: 1},
		{Kind: KindCallDeparted, Hops: 1},
		{Kind: KindRunEnd, Offered: 3, Blocked: 1},
	} {
		r.Event(&e)
	}
	r.AddSpan(10)
	r.Solver("fixed-point").Observe(0, 0.5, 0)
	r.Solver("fixed-point").Observe(1, 0.01, 0)
	return r
}

func TestSnapshotWriteProm(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().Snapshot().WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := buf.String()
	if err := ValidateProm(buf.Bytes()); err != nil {
		t.Fatalf("ValidateProm rejected our own output: %v\n%s", err, text)
	}
	for _, want := range []string{
		"altroute_calls_offered_total 3\n",
		"altroute_calls_blocked_total 1\n",
		"altroute_calls_alternate_total 1\n",
		"altroute_calls_lost_failure_total 1\n",
		"altroute_link_down_total 1\n",
		"# TYPE altroute_carried_hops histogram\n",
		`altroute_carried_hops_bucket{le="+Inf"} 2` + "\n",
		"altroute_carried_hops_sum 3\n",
		"altroute_blocking 0.3333333333333333\n",
		"altroute_throughput 0.2\n",
		`altroute_link_occupancy_samples_total{link="1"} 1` + "\n",
		`altroute_link_occupancy_sum{link="1"} 5` + "\n",
		`altroute_solver_iterations{solver="fixed-point"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// TestWritePromEmptySnapshot checks the degenerate exposition: no runs means
// no blocking or throughput gauges, yet the output must stay valid (empty
// histograms still carry their +Inf bucket).
func TestWritePromEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().Snapshot().WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if err := ValidateProm(buf.Bytes()); err != nil {
		t.Fatalf("ValidateProm rejected empty snapshot: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "altroute_blocking") {
		t.Errorf("empty snapshot must omit the blocking gauge:\n%s", buf.String())
	}
}

func TestPromHandler(t *testing.T) {
	h := PromHandler(promTestRegistry(), extraCollector{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body := rec.Body.Bytes()
	if err := ValidateProm(body); err != nil {
		t.Fatalf("handler output invalid: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "altroute_extra_gauge 0.25\n") {
		t.Errorf("extra collector's family missing:\n%s", body)
	}
}

type extraCollector struct{}

func (extraCollector) CollectProm(p *PromWriter) {
	p.Gauge("altroute_extra_gauge", "A live gauge from an extra collector.", 0.25)
}

func TestPromHandlerNilRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	PromHandler(nil, extraCollector{}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if err := ValidateProm(rec.Body.Bytes()); err != nil {
		t.Fatalf("nil-registry handler output invalid: %v", err)
	}
}

func TestValidatePromRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"undeclared sample", "foo 1\n"},
		{"bad name", "# TYPE 9bad counter\n9bad 1\n"},
		{"bad type", "# TYPE foo widget\nfoo 1\n"},
		{"bad value", "# TYPE foo gauge\nfoo one\n"},
		{"negative counter", "# TYPE foo counter\nfoo -1\n"},
		{"float counter", "# TYPE foo counter\nfoo 1.5\n"},
		{"duplicate type", "# TYPE foo gauge\n# TYPE foo counter\nfoo 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="0"} 3` + "\n" + `h_bucket{le="+Inf"} 1` + "\n" + "h_sum 0\nh_count 1\n"},
		{"missing inf bucket", "# TYPE h histogram\n" +
			`h_bucket{le="0"} 1` + "\n" + "h_sum 0\nh_count 1\n"},
		{"inf != count", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\n" + "h_sum 0\nh_count 1\n"},
		{"bucket without le", "# TYPE h histogram\n" +
			`h_bucket{foo="0"} 1` + "\n" + `h_bucket{le="+Inf"} 1` + "\n" + "h_sum 0\nh_count 1\n"},
		{"bare histogram sample", "# TYPE h histogram\nh 1\n"},
	}
	for _, tc := range cases {
		if err := ValidateProm([]byte(tc.text)); err == nil {
			t.Errorf("%s: ValidateProm accepted invalid input:\n%s", tc.name, tc.text)
		}
	}
	if err := ValidateProm([]byte("# HELP foo Help text.\n# TYPE foo gauge\nfoo{a=\"b\"} 1.5\n\n")); err != nil {
		t.Errorf("ValidateProm rejected valid input: %v", err)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	got := PromLabel("path", "a\\b\"c\nd")
	want := `path="a\\b\"c\nd"`
	if got != want {
		t.Errorf("PromLabel = %s, want %s", got, want)
	}
}
