package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestBufferOrderAndFlush(t *testing.T) {
	in := sampleEvents()
	b := NewBuffer()
	for _, e := range in {
		b.Event(&e)
	}
	if b.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(in))
	}
	if got := b.Events(); !reflect.DeepEqual(got, in) {
		t.Fatalf("Events() = %+v, want %+v", got, in)
	}

	var rec recorder
	b.FlushTo(&rec)
	if !reflect.DeepEqual(rec.events, in) {
		t.Fatalf("flushed %+v, want %+v", rec.events, in)
	}
	if b.Len() != 0 {
		t.Fatalf("buffer not empty after flush: %d events", b.Len())
	}

	// Flushing into another buffer concatenates in order.
	dst := NewBuffer()
	dst.Event(&in[0])
	b2 := NewBuffer()
	b2.Event(&in[1])
	b2.FlushTo(dst)
	if got := dst.Events(); !reflect.DeepEqual(got, []Event{in[0], in[1]}) {
		t.Fatalf("concatenated %+v", got)
	}
}

func TestBufferFlushToNil(t *testing.T) {
	b := NewBuffer()
	for _, e := range sampleEvents() {
		b.Event(&e)
	}
	b.FlushTo(nil) // must not panic; still empties
	if b.Len() != 0 {
		t.Fatalf("buffer not empty after nil flush: %d events", b.Len())
	}
}

func TestBufferConcurrentWriters(t *testing.T) {
	b := NewBuffer()
	const writers = 8
	const perWriter = 100
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b.Event(&Event{Kind: KindCallOffered, Call: w*perWriter + i})
			}
		}(w)
	}
	wg.Wait()
	if b.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", b.Len(), writers*perWriter)
	}
}

// recorder is a minimal Sink capturing events in order.
type recorder struct{ events []Event }

func (r *recorder) Event(e *Event) { r.events = append(r.events, *e) }
