package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// referenceLine is what encoding/json's Encoder — the JSONL sink's
// encoder before it was written by hand — produces for e.
func referenceLine(e *Event) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(e)
	return buf.Bytes(), err
}

// jsonlLine runs e through a fresh JSONL sink and returns what it wrote
// and the error it latched.
func jsonlLine(e *Event) ([]byte, error) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Event(e)
	err := s.Flush()
	return buf.Bytes(), err
}

// jsonlEdgeTimes are epochs on both sides of every float-format rule:
// the exponent cut-overs below 1e-6 and at 1e21, one- and two-digit
// exponents, negative zero, subnormals and the largest finite value.
var jsonlEdgeTimes = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 10.25, 123456.789, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 9.5e-10, 1e-10, 1.5e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1e22, 1.5e300,
	5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
}

// jsonlEdgeStrings exercise HTML-safe escaping: the HTML metacharacters,
// quote and backslash, every short escape, other control bytes, DEL,
// multi-byte runes, the JavaScript line terminators and invalid UTF-8.
var jsonlEdgeStrings = []string{
	"", "controlled-alternate", "<script>&amp;</script>", `"quoted" \back\`,
	"\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "né\u00e9 中文 🙂",
	"a\u2028b\u2029c", "\xff", "ok\xc3(bad", "\xed\xa0\x80", "trunc\xe2\x82",
}

// TestJSONLMatchesEncodingJSON pins the hand-written encoder byte for byte
// to encoding/json over every kind and the edge values of every field type,
// and checks that one sink's reused buffer never leaks bytes from a longer
// earlier line into a shorter later one.
func TestJSONLMatchesEncodingJSON(t *testing.T) {
	var events []Event
	for k := KindRunStart; k < KindCount; k++ {
		events = append(events, Event{Kind: k})
		for i, tm := range jsonlEdgeTimes {
			events = append(events, Event{
				Kind: k, Time: tm, Call: i, Origin: -i, Dest: math.MaxInt, Link: math.MinInt,
				Occupancy: i * 1000, Hops: -1, Window: i, Offered: math.MaxInt64, Blocked: math.MinInt64,
				Alternate: i%2 == 0, Measured: i%3 == 0, Drained: i,
			})
		}
		for i, s := range jsonlEdgeStrings {
			events = append(events, Event{
				Kind: k, Time: float64(i), Policy: s, Seed: int64(i) - 3, From: s, To: jsonlEdgeStrings[len(jsonlEdgeStrings)-1-i],
			})
		}
	}
	var want, got bytes.Buffer
	ref := json.NewEncoder(&want)
	sink := NewJSONL(&got)
	for i := range events {
		e := &events[i]
		line, err := jsonlLine(e)
		refLine, refErr := referenceLine(e)
		if err != nil || refErr != nil {
			t.Fatalf("event %+v: errors %v, reference %v", *e, err, refErr)
		}
		if !bytes.Equal(line, refLine) {
			t.Fatalf("event %+v:\n got %s\nwant %s", *e, line, refLine)
		}
		if err := ref.Encode(e); err != nil {
			t.Fatal(err)
		}
		sink.Event(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("one sink's stream differs from encoding/json's")
	}
}

// TestJSONLLatchesEncodingJSONError checks that an event encoding/json
// refuses latches encoding/json's own error, writes nothing, and drops
// every later event.
func TestJSONLLatchesEncodingJSONError(t *testing.T) {
	for _, bad := range []Event{
		{Kind: KindCallOffered, Time: math.NaN()},
		{Kind: KindCallOffered, Time: math.Inf(1)},
		{Kind: KindRunEnd, Time: math.Inf(-1)},
		{Kind: 0, Time: 1},
		{Kind: KindCount, Time: math.NaN()},
		{Kind: 255},
	} {
		_, refErr := referenceLine(&bad)
		if refErr == nil {
			t.Fatalf("%+v: encoding/json accepted it", bad)
		}
		var buf bytes.Buffer
		s := NewJSONL(&buf)
		s.Event(&bad)
		s.Event(&Event{Kind: KindRunStart})
		for _, err := range []error{s.Err(), s.Flush(), s.Err()} {
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("%+v: latched %v, want %v", bad, err, refErr)
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("%+v: wrote %q after a refused event", bad, buf.Bytes())
		}
	}
}

// FuzzJSONLMatchesEncodingJSON checks the hand-written JSONL encoder
// against encoding/json on arbitrary events: equal bytes when
// encoding/json accepts the event, the same error when it refuses it.
func FuzzJSONLMatchesEncodingJSON(f *testing.F) {
	for _, e := range sampleEvents() {
		f.Add(uint8(e.Kind), e.Time, e.Call, e.Origin, e.Dest, e.Link, e.Occupancy, e.Hops, e.Window,
			e.Offered, e.Blocked, e.Alternate, e.Measured, e.Drained, e.Policy, e.Seed, e.From, e.To)
	}
	f.Add(uint8(KindRegimeShift), 9.5e-7, 1, 2, 3, 4, 5, 6, 7, int64(8), int64(9), true, false, 10,
		"<p&q>", int64(-1), "\u2028", "\xff")
	f.Add(uint8(0), math.NaN(), 0, 0, 0, 0, 0, 0, 0, int64(0), int64(0), false, false, 0, "", int64(0), "", "")
	f.Fuzz(func(t *testing.T, kind uint8, tm float64, call, origin, dest, link, occ, hops, win int,
		offered, blocked int64, alt, measured bool, drained int, policy string, seed int64, from, to string) {
		e := Event{
			Kind: Kind(kind), Time: tm, Call: call, Origin: origin, Dest: dest, Link: link,
			Occupancy: occ, Hops: hops, Window: win, Offered: offered, Blocked: blocked,
			Alternate: alt, Measured: measured, Drained: drained,
			Policy: policy, Seed: seed, From: from, To: to,
		}
		line, err := jsonlLine(&e)
		refLine, refErr := referenceLine(&e)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("%+v: error %v, encoding/json %v", e, err, refErr)
		}
		if !bytes.Equal(line, refLine) {
			t.Fatalf("%+v:\n got %s\nwant %s", e, line, refLine)
		}
	})
}
