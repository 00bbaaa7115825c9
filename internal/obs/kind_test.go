package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestKindExhaustiveRoundTrip walks every declared kind — [1, KindCount) —
// and proves it has a non-empty wire name, text-marshals and unmarshals back
// to itself, and survives the JSONL event codec (an Event of that kind
// written by a JSONL sink is read back identical by ReadJSONL). Adding a
// kind to the const block without wiring kindNames fails here instead of
// silently serializing as "kind(n)".
func TestKindExhaustiveRoundTrip(t *testing.T) {
	if KindCount <= KindRunStart {
		t.Fatalf("KindCount = %d: kindNames lost its entries", KindCount)
	}
	for k := Kind(1); k < KindCount; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has an empty name", k)
		}
		if len(name) > 5 && name[:5] == "kind(" {
			t.Fatalf("kind %d missing from kindNames: String() = %q", k, name)
		}
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("kind %d (%s): MarshalText: %v", k, name, err)
		}
		if string(text) != name {
			t.Fatalf("kind %d: MarshalText = %q, String = %q", k, text, name)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("kind %d (%s): UnmarshalText: %v", k, name, err)
		}
		if back != k {
			t.Fatalf("kind %d (%s): round-tripped to %d", k, name, back)
		}

		// JSON round trip of a bare event of this kind.
		e := Event{Kind: k, Time: float64(k), Link: -1}
		blob, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("kind %s: marshal event: %v", name, err)
		}
		var decoded Event
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatalf("kind %s: unmarshal event: %v", name, err)
		}
		if decoded != e {
			t.Fatalf("kind %s: event round trip mismatch:\n got %+v\nwant %+v", name, decoded, e)
		}

		// The trace reader must accept a stream holding this kind.
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		Emit(sink, &e)
		if err := sink.Flush(); err != nil {
			t.Fatalf("kind %s: flush: %v", name, err)
		}
		events, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("kind %s: ReadJSONL: %v", name, err)
		}
		if len(events) != 1 || events[0] != e {
			t.Fatalf("kind %s: ReadJSONL returned %+v, want [%+v]", name, events, e)
		}
	}
}

// TestKindRejectsUnknown pins the failure mode for out-of-range kinds: the
// codec refuses them rather than inventing names.
func TestKindRejectsUnknown(t *testing.T) {
	if _, err := KindCount.MarshalText(); err == nil {
		t.Error("MarshalText accepted out-of-range kind KindCount")
	}
	if _, err := Kind(0).MarshalText(); err == nil {
		t.Error("MarshalText accepted the zero kind")
	}
	var k Kind
	if err := k.UnmarshalText([]byte("no-such-kind")); err == nil {
		t.Error("UnmarshalText accepted an unknown wire name")
	}
}
