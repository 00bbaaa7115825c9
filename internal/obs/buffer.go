package obs

import "sync"

// Buffer is an in-memory ordered sink: it records events exactly as
// received and replays them later with FlushTo. It is the building block of
// the parallel experiment engine (internal/experiments): each concurrently
// executing run writes its events to a private Buffer, and the engine
// flushes the buffers in seed order once the runs finish, so the combined
// stream delivered to the real sink is byte-identical to the one sequential
// execution would have produced. Like every sink in this package a Buffer
// is safe for concurrent use, though the engine gives each run its own
// precisely so events from different runs never interleave.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Event implements Sink: it appends a copy of *e.
func (b *Buffer) Event(e *Event) {
	b.mu.Lock()
	b.events = append(b.events, *e)
	b.mu.Unlock()
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Events returns a copy of the buffered events in arrival order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// FlushTo forwards the buffered events to s in arrival order and empties
// the buffer. A nil s discards the events (the buffer still empties), which
// preserves the nil-disables-instrumentation convention for callers that
// buffer unconditionally.
func (b *Buffer) FlushTo(s Sink) {
	b.mu.Lock()
	events := b.events
	b.events = nil
	b.mu.Unlock()
	for i := range events {
		Emit(s, &events[i])
	}
}
