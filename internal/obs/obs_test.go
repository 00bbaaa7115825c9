package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindRunStart, Policy: "controlled-alternate", Seed: 7},
		{Kind: KindCallOffered, Time: 10.25, Call: 3, Origin: 0, Dest: 2, Measured: true, Drained: 2},
		{Kind: KindCallAdmitted, Time: 10.25, Call: 3, Origin: 0, Dest: 2, Hops: 2, Alternate: true, Measured: true},
		{Kind: KindLinkOccupancy, Time: 10.25, Link: 5, Occupancy: 97},
		{Kind: KindCallOffered, Time: 10.5, Call: 4, Origin: 1, Dest: 3, Measured: true},
		{Kind: KindCallBlocked, Time: 10.5, Call: 4, Origin: 1, Dest: 3, Link: -1, Measured: true},
		{Kind: KindCallDeparted, Time: 11.125, Call: 3, Hops: 2, Measured: true},
		{Kind: KindWindowClosed, Time: 20, Window: 0, Offered: 2, Blocked: 1},
		{Kind: KindRunEnd, Time: 110, Offered: 2, Blocked: 1},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := sampleEvents()
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, e := range in {
		sink.Event(&e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("%d lines, want %d", got, len(in))
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"call-offered\"}\nnot json\n")); err == nil {
		t.Fatal("want error for malformed line")
	}
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"no-such-kind\"}\n")); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindRunStart; k <= KindCallRerouted; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("marshal %d: %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if back != k {
			t.Fatalf("%q decoded to %d, want %d", text, back, k)
		}
	}
	if _, err := Kind(0).MarshalText(); err == nil {
		t.Fatal("kind 0 should not marshal")
	}
}

func TestRingTruncation(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Event(&Event{Kind: KindCallOffered, Call: i})
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, e := range got {
		if e.Call != 6+i {
			t.Fatalf("event %d has call %d, want %d (oldest-first order)", i, e.Call, 6+i)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Event(&Event{Call: i})
	}
	if got := r.Events(); len(got) != 3 || got[0].Call != 0 || got[2].Call != 2 {
		t.Fatalf("partial ring events = %+v", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestMulti(t *testing.T) {
	a, b := NewRing(8), NewRing(8)
	m := Multi(nil, a, nil, b)
	m.Event(&Event{Kind: KindCallOffered})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("multi did not fan out")
	}
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty multi must collapse to nil")
	}
	if got := Multi(nil, a); got != Sink(a) {
		t.Fatal("single-sink multi must collapse to the sink itself")
	}
}

func TestAggregate(t *testing.T) {
	events := sampleEvents()
	// A second run with different accounting.
	events = append(events,
		Event{Kind: KindRunStart, Policy: "single-path", Seed: 8},
		Event{Kind: KindCallOffered, Time: 10, Call: 0, Measured: true},
		Event{Kind: KindCallAdmitted, Time: 10, Call: 0, Hops: 1, Measured: true},
		Event{Kind: KindCallOffered, Time: 5, Call: 1}, // warm-up: not measured
		Event{Kind: KindCallDeparted, Time: 12, Call: 0},
		Event{Kind: KindRunEnd, Time: 110},
	)
	runs := Aggregate(events)
	if len(runs) != 2 {
		t.Fatalf("%d runs, want 2", len(runs))
	}
	first, second := runs[0], runs[1]
	if first.Policy != "controlled-alternate" || first.Seed != 7 {
		t.Fatalf("first run identity = %q/%d", first.Policy, first.Seed)
	}
	if first.Offered != 2 || first.Accepted != 1 || first.Blocked != 1 ||
		first.AlternateAccepted != 1 || first.PrimaryAccepted != 0 ||
		first.CarriedHopCount != 2 || first.Departed != 1 || first.Windows != 1 {
		t.Fatalf("first totals = %+v", first)
	}
	if got := first.Blocking(); got != 0.5 {
		t.Fatalf("first blocking = %v, want 0.5", got)
	}
	if second.Offered != 1 || second.Blocked != 0 || second.PrimaryAccepted != 1 {
		t.Fatalf("second totals = %+v", second)
	}
}

func TestAggregateUnmarkedStream(t *testing.T) {
	runs := Aggregate([]Event{
		{Kind: KindCallOffered, Measured: true},
		{Kind: KindCallBlocked, Measured: true},
	})
	if len(runs) != 1 || runs[0].Blocking() != 1 {
		t.Fatalf("unmarked stream runs = %+v", runs)
	}
	var empty RunTotals
	if !math.IsNaN(empty.Blocking()) {
		t.Fatal("zero-offered blocking must be NaN")
	}
	if Aggregate(nil) != nil {
		t.Fatal("empty stream must aggregate to no runs")
	}
}

// TestEventResetZeroesEveryField sets every field of an event, including
// any field added after Reset was written, and checks that Reset leaves
// only the kind and epoch it was given.
func TestEventResetZeroesEveryField(t *testing.T) {
	var e Event
	v := reflect.ValueOf(&e).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint8:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		default:
			t.Fatalf("field %s: kind %s not covered", v.Type().Field(i).Name, f.Kind())
		}
	}
	if got, want := *e.Reset(KindCallDeparted, 7.5), (Event{Kind: KindCallDeparted, Time: 7.5}); got != want {
		t.Fatalf("Reset left %+v, want %+v", got, want)
	}
}
