package sim

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// encodeV1 writes the legacy v1 layout (magic + payload, no version field),
// byte-identical to what the previous Encode produced.
func encodeV1(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(traceFileMagicV1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(tr); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTraceV1BackCompat(t *testing.T) {
	m := traffic.Uniform(3, 4)
	orig := GenerateTrace(m, 30, 5)
	back, err := ReadTrace(bytes.NewReader(encodeV1(t, orig)))
	if err != nil {
		t.Fatalf("reading v1 trace: %v", err)
	}
	if len(back.Calls) != len(orig.Calls) || back.Horizon != orig.Horizon || back.Seed != orig.Seed {
		t.Fatalf("v1 round trip changed header: %+v", back)
	}
	for i := range orig.Calls {
		if back.Calls[i] != orig.Calls[i] {
			t.Fatalf("v1 call %d changed", i)
		}
	}
}

func TestReadTraceRejectsNewerVersion(t *testing.T) {
	m := traffic.Uniform(3, 4)
	orig := GenerateTrace(m, 30, 5)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(traceFileMagic); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(traceFileVersion + 1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(orig); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := ReadTrace(&buf)
	if err == nil {
		t.Fatal("future version: want error")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %q does not mention the version", err)
	}
}

func TestEncodeWritesV2(t *testing.T) {
	m := traffic.Uniform(3, 4)
	orig := GenerateTrace(m, 30, 5)
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(buf.Bytes()))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		t.Fatal(err)
	}
	if magic != traceFileMagic {
		t.Fatalf("magic %q, want %q", magic, traceFileMagic)
	}
	var version int
	if err := dec.Decode(&version); err != nil {
		t.Fatal(err)
	}
	if version != traceFileVersion {
		t.Fatalf("version %d, want %d", version, traceFileVersion)
	}
}

// TestReadTraceRejectsUntrustedCalls: a trace file is untrusted input, so
// every field Run indexes or orders by is checked — negative node ids and
// non-finite times (which slip past ordered comparisons) are refused.
func TestReadTraceRejectsUntrustedCalls(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := Call{Origin: 0, Dest: 1, Arrival: 1, Holding: 1}
	cases := []struct {
		name    string
		horizon float64
		call    func(c *Call)
	}{
		{"negative origin", 10, func(c *Call) { c.Origin = -1 }},
		{"negative dest", 10, func(c *Call) { c.Dest = -2 }},
		{"NaN arrival", 10, func(c *Call) { c.Arrival = nan }},
		{"NaN holding", 10, func(c *Call) { c.Holding = nan }},
		{"infinite holding", 10, func(c *Call) { c.Holding = inf }},
		{"off-graph origin with NaN times", 10, func(c *Call) { c.Origin, c.Arrival, c.Holding = -1, nan, nan }},
		{"NaN horizon", nan, func(*Call) {}},
		{"infinite horizon", inf, func(*Call) {}},
	}
	for _, tc := range cases {
		c := good
		tc.call(&c)
		var buf bytes.Buffer
		if err := (&Trace{Horizon: tc.horizon, Calls: []Call{c}}).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if tr, err := ReadTrace(&buf); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tr.Calls[0])
		}
	}
	var buf bytes.Buffer
	if err := (&Trace{Horizon: 10, Calls: []Call{good}}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Errorf("well-formed call refused: %v", err)
	}
}

// TestReadTraceRejectsWideNodeIDs writes a trace whose calls carry int
// node ids, as a writer with wider ids than graph.NodeID would: an origin of
// 2^32+1 must be refused, not narrowed to node 1. The in-range control shows
// the test-local layout decodes as a Trace.
func TestReadTraceRejectsWideNodeIDs(t *testing.T) {
	type wideCall struct {
		ID               int
		Origin, Dest     int
		Arrival, Holding float64
	}
	type wideTrace struct {
		Calls   []wideCall
		Horizon float64
		Seed    int64
	}
	encode := func(origin int) *bytes.Buffer {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		tr := wideTrace{Horizon: 10, Calls: []wideCall{{Origin: origin, Dest: 0, Arrival: 1, Holding: 1}}}
		for _, v := range []any{traceFileMagic, traceFileVersion, tr} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return &buf
	}
	if tr, err := ReadTrace(encode(1<<32 + 1)); err == nil {
		t.Fatalf("origin 2^32+1 accepted as %+v", tr.Calls[0])
	}
	tr, err := ReadTrace(encode(1))
	if err != nil {
		t.Fatalf("in-range wide trace refused: %v", err)
	}
	if c := tr.Calls[0]; c.Origin != 1 || c.Dest != 0 {
		t.Fatalf("in-range wide trace decoded as %+v", c)
	}
}
