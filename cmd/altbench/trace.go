package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function. Start and End
// are nanoseconds since the tracer's epoch; Parent is the enclosing span's
// ID (-1 for a root); Req ties the spans of one request, call or run
// together (-1 when the span belongs to none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// keepPerLayer caps the spans written out per layer. Per-call layers
// record millions of spans; every duration still enters the layer's
// statistics, only the JSONL keeps the first few thousand.
const keepPerLayer = 2000

// layer accumulates the durations of every span recorded under one name.
type layer struct {
	name string
	durs []float64 // ns
	kept int
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer records nothing, so the untraced run
// shares the traced run's code without paying for it.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32

	mu     sync.Mutex
	spans  []span
	layers map[string]*layer
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: make(map[string]*layer)}
}

// spanRef is an open span.
type spanRef struct {
	l      *layer
	id     int32
	parent int32
	req    int64
	start  time.Time
}

// layer returns the accumulator for name, creating it on first use.
func (t *tracer) layer(name string) *layer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.layers[name]
	if !ok {
		l = &layer{name: name}
		t.layers[name] = l
	}
	return l
}

// begin opens a span; its ID is valid as a parent at once.
func (t *tracer) begin(l *layer, parent int32, req int64) spanRef {
	if t == nil {
		return spanRef{id: -1}
	}
	return spanRef{l: l, id: t.nextID.Add(1) - 1, parent: parent, req: req, start: time.Now()}
}

// end closes a span and returns its duration in ns.
func (t *tracer) end(s spanRef) float64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	d := float64(now.Sub(s.start))
	t.mu.Lock()
	s.l.durs = append(s.l.durs, d)
	if s.l.kept < keepPerLayer {
		s.l.kept++
		t.spans = append(t.spans, span{
			Name: s.l.name, ID: s.id, Parent: s.parent, Req: s.req,
			Start: int64(s.start.Sub(t.epoch)), End: int64(now.Sub(t.epoch)),
		})
	}
	t.mu.Unlock()
	return d
}

// durations returns every duration recorded under name, in ns.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.layers[name]; ok {
		return append([]float64(nil), l.durs...)
	}
	return nil
}

// meanNs and medianNs summarize a layer's spans in ns, less the clock
// cost of recording an empty span (which every recorded duration carries).
func (t *tracer) meanNs(name string, clock float64) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d {
		sum += x
	}
	return max(0, sum/float64(len(d))-clock)
}

func (t *tracer) medianNs(name string, clock float64) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	return max(0, median(d)-clock)
}

// totalNs sums a layer's span durations in ns.
func (t *tracer) totalNs(name string) float64 {
	sum := 0.0
	for _, x := range t.durations(name) {
		sum += x
	}
	return sum
}

// clockCost measures what an empty span adds to a recorded duration: the
// median over many empty begin/end pairs.
func (t *tracer) clockCost() float64 {
	l := t.layer("trace.empty")
	for i := 0; i < 20000; i++ {
		t.end(t.begin(l, -1, -1))
	}
	return median(t.durations("trace.empty"))
}

// writeJSONL writes the kept spans, ordered by start, one JSON object per
// line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
