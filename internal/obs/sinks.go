package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// JSONL writes one JSON object per event, newline-delimited. It is safe for
// concurrent use; writes are buffered, so call Flush before reading the
// underlying file. The first write error is latched and reported by
// Flush/Err; subsequent events are dropped.
//
// Each line is byte-identical to what encoding/json's Encoder writes for
// the Event (field order and names, omitempty fields, number format,
// HTML-safe string escaping), but it is appended by hand into one reused
// buffer instead of through reflection. An event encoding/json refuses — a
// kind without a wire name, a NaN or infinite time — latches the error
// encoding/json returns for it.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Event implements Sink.
func (s *JSONL) Event(e *Event) {
	s.mu.Lock()
	if s.err == nil {
		var ok bool
		if s.buf, ok = appendEvent(s.buf[:0], e); ok {
			_, s.err = s.bw.Write(s.buf)
		} else {
			_, s.err = json.Marshal(e)
		}
	}
	s.mu.Unlock()
}

// appendEvent appends e's JSON line to b. It reports false, appending
// nothing, for the events encoding/json refuses: a kind without a wire
// name (Kind.MarshalText fails) or a non-finite time.
func appendEvent(b []byte, e *Event) ([]byte, bool) {
	if int(e.Kind) >= len(kindNames) || kindNames[e.Kind] == "" || math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		return b, false
	}
	b = append(b, `{"kind":"`...)
	b = append(b, kindNames[e.Kind]...)
	b = append(b, `","t":`...)
	b = appendFloat(b, e.Time)
	b = append(b, `,"call":`...)
	b = strconv.AppendInt(b, int64(e.Call), 10)
	b = append(b, `,"origin":`...)
	b = strconv.AppendInt(b, int64(e.Origin), 10)
	b = append(b, `,"dest":`...)
	b = strconv.AppendInt(b, int64(e.Dest), 10)
	b = append(b, `,"link":`...)
	b = strconv.AppendInt(b, int64(e.Link), 10)
	b = append(b, `,"occ":`...)
	b = strconv.AppendInt(b, int64(e.Occupancy), 10)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(e.Hops), 10)
	b = append(b, `,"win":`...)
	b = strconv.AppendInt(b, int64(e.Window), 10)
	b = append(b, `,"offered":`...)
	b = strconv.AppendInt(b, e.Offered, 10)
	b = append(b, `,"blocked":`...)
	b = strconv.AppendInt(b, e.Blocked, 10)
	b = append(b, `,"alt":`...)
	b = strconv.AppendBool(b, e.Alternate)
	b = append(b, `,"measured":`...)
	b = strconv.AppendBool(b, e.Measured)
	b = append(b, `,"drained":`...)
	b = strconv.AppendInt(b, int64(e.Drained), 10)
	if e.Policy != "" {
		b = append(b, `,"policy":`...)
		b = appendString(b, e.Policy)
	}
	if e.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, e.Seed, 10)
	}
	if e.From != "" {
		b = append(b, `,"from":`...)
		b = appendString(b, e.From)
	}
	if e.To != "" {
		b = append(b, `,"to":`...)
		b = appendString(b, e.To)
	}
	return append(b, '}', '\n'), true
}

// appendFloat formats a finite float64 as encoding/json does: the shortest
// round-tripping decimal, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent written without its leading zero
// ("1e-7", not "1e-07"). Negative zero stays "-0".
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// quote and backslash are backslash-escaped; \b, \f, \n, \r and \t get
// their short escapes and every other control byte a \u00XX escape; <, >
// and & become \u003c, \u003e and \u0026; U+2028 and U+2029 are escaped;
// each byte of invalid UTF-8 becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch {
		case r == utf8.RuneError && size == 1:
			esc = `\ufffd`
		case r == '\u2028':
			esc = `\u2028`
		case r == '\u2029':
			esc = `\u2029`
		}
		if esc != "" {
			b = append(b, s[start:i]...)
			b = append(b, esc...)
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Flush drains the buffer and returns the first error seen.
func (s *JSONL) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Err returns the first error seen, without flushing.
func (s *JSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadJSONL decodes an event stream written by the JSONL sink. Blank lines
// are skipped; any malformed line is an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading jsonl: %w", err)
	}
	return events, nil
}

// Ring buffers the most recent events in memory — the test and debugging
// sink. When full it overwrites the oldest event and counts the drop.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dropped int64
}

// NewRing returns a ring sink holding at most n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Event implements Sink: it stores a copy of *e.
func (s *Ring) Event(e *Event) {
	s.mu.Lock()
	if s.full {
		s.dropped++
	}
	s.buf[s.next] = *e
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (s *Ring) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]Event(nil), s.buf[:s.next]...)
	}
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Dropped returns how many events were overwritten.
func (s *Ring) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// multi fans one stream out to several sinks in order.
type multi []Sink

func (m multi) Event(e *Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Multi returns a sink that forwards every event to each non-nil sink, in
// argument order. It returns nil when no sink remains (preserving the
// nil-disables-instrumentation convention) and the sink itself when exactly
// one remains.
func Multi(sinks ...Sink) Sink {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
