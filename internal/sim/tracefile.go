package sim

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// Trace file magics guard against feeding arbitrary gob streams to
// ReadTrace. v1 files are magic + payload; v2 files carry an explicit
// integer version between magic and payload, so future payload changes bump
// traceFileVersion without inventing yet another magic, and old readers
// reject newer files with a clear error instead of a gob mismatch.
const (
	traceFileMagicV1 = "altroute-trace-v1"
	traceFileMagic   = "altroute-trace-v2"
	traceFileVersion = 2
)

// Encode serializes the trace with encoding/gob (magic header + version +
// payload), so expensive traces can be generated once and replayed by
// external tools or across processes.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(traceFileMagic); err != nil {
		return fmt.Errorf("sim: writing trace header: %w", err)
	}
	if err := enc.Encode(traceFileVersion); err != nil {
		return fmt.Errorf("sim: writing trace version: %w", err)
	}
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("sim: writing trace: %w", err)
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace written by Encode — either the legacy v1
// layout or the versioned v2 layout — and validates its structural
// invariants (sorted arrivals, contiguous IDs, finite times, positive
// holdings, non-negative node ids). Whether the ids name nodes of a
// particular graph is left to Run, which rejects calls that do not.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		return nil, fmt.Errorf("sim: reading trace header: %w", err)
	}
	switch magic {
	case traceFileMagicV1:
		// Legacy layout: payload follows the magic directly.
	case traceFileMagic:
		var version int
		if err := dec.Decode(&version); err != nil {
			return nil, fmt.Errorf("sim: reading trace version: %w", err)
		}
		if version != traceFileVersion {
			return nil, fmt.Errorf("sim: trace version %d not supported (this reader handles up to %d)",
				version, traceFileVersion)
		}
	default:
		return nil, fmt.Errorf("sim: not a trace file (header %q)", magic)
	}
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("sim: reading trace: %w", err)
	}
	if !(t.Horizon > 0) || math.IsInf(t.Horizon, 0) {
		return nil, fmt.Errorf("sim: trace horizon %v", t.Horizon)
	}
	prev := -1.0
	for i, c := range t.Calls {
		if c.ID != i {
			return nil, fmt.Errorf("sim: trace call %d has ID %d", i, c.ID)
		}
		if c.Arrival < prev {
			return nil, fmt.Errorf("sim: trace not sorted at call %d", i)
		}
		// Negated comparisons reject NaN, which every ordered comparison
		// lets through.
		if !(c.Holding > 0) || math.IsInf(c.Holding, 0) || !(c.Arrival >= 0 && c.Arrival < t.Horizon) ||
			c.Origin < 0 || c.Dest < 0 || c.Origin == c.Dest {
			return nil, fmt.Errorf("sim: malformed call %d: %+v", i, c)
		}
		prev = c.Arrival
	}
	return &t, nil
}
