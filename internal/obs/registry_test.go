package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestRegistryCounts(t *testing.T) {
	r := NewRegistry()
	for _, e := range sampleEvents() {
		r.Event(&e)
	}
	s := r.Snapshot()
	if s.Runs != 1 || s.Offered != 2 || s.Accepted != 1 || s.Blocked != 1 ||
		s.AlternateAccepted != 1 || s.PrimaryAccepted != 0 || s.Departed != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Blocking == nil || *s.Blocking != 0.5 {
		t.Fatalf("blocking = %v, want 0.5", s.Blocking)
	}
	if len(s.CarriedHops) != 3 || s.CarriedHops[2] != 1 {
		t.Fatalf("carried hops = %v", s.CarriedHops)
	}
	if len(s.DrainedPerArrival) != 3 || s.DrainedPerArrival[0] != 1 || s.DrainedPerArrival[2] != 1 {
		t.Fatalf("drained = %v", s.DrainedPerArrival)
	}
	if len(s.LinkOccupancy) != 6 || s.LinkOccupancy[5][97] != 1 {
		t.Fatalf("link occupancy = %v", s.LinkOccupancy)
	}
}

func TestRegistryEmptyBlockingOmitted(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte("\"blocking\"")) {
		t.Fatalf("zero-offered snapshot must omit blocking: %s", buf.String())
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run
// under -race it proves the counters, histogram growth, and solver traces
// tolerate concurrent sinks (experiments run seeds in parallel).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := r.Solver("fixedpoint")
			for i := 0; i < perWorker; i++ {
				r.Event(&Event{Kind: KindCallOffered, Measured: true, Drained: i % 5})
				r.Event(&Event{Kind: KindCallAdmitted, Measured: true, Hops: i % 4, Alternate: i%2 == 0})
				r.Event(&Event{Kind: KindLinkOccupancy, Link: (w*perWorker + i) % 64, Occupancy: i % 100})
				if i%3 == 0 {
					r.Event(&Event{Kind: KindCallBlocked, Measured: true})
				}
				tr.Observe(i, 1/float64(i+1), int64(i))
				if i%500 == 0 {
					_ = r.Snapshot() // concurrent reads must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Offered != workers*perWorker || s.Accepted != workers*perWorker {
		t.Fatalf("offered/accepted = %d/%d, want %d", s.Offered, s.Accepted, workers*perWorker)
	}
	wantBlocked := int64(workers * ((perWorker + 2) / 3))
	if s.Blocked != wantBlocked {
		t.Fatalf("blocked = %d, want %d", s.Blocked, wantBlocked)
	}
	var hops int64
	for _, c := range s.CarriedHops {
		hops += c
	}
	if hops != workers*perWorker {
		t.Fatalf("hop histogram total = %d, want %d", hops, workers*perWorker)
	}
	if len(s.LinkOccupancy) != 64 {
		t.Fatalf("link table grew to %d, want 64", len(s.LinkOccupancy))
	}
	if got := len(s.Solvers["fixedpoint"]); got != workers*perWorker {
		t.Fatalf("solver trace has %d records, want %d", got, workers*perWorker)
	}
}

func TestIntHistClamp(t *testing.T) {
	h := NewIntHist(4)
	h.Observe(-3)
	h.Observe(0)
	h.Observe(3)
	h.Observe(99) // clamps into last bucket
	if got := h.Counts(); len(got) != 4 || got[0] != 2 || got[3] != 2 {
		t.Fatalf("counts = %v", got)
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestConvergenceTrace(t *testing.T) {
	tr := &ConvergenceTrace{Name: "test"}
	tr.Observe(0, 1.0, 10)
	tr.Observe(1, 0.5, 20)
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	it := tr.Iterations()
	it[0].Residual = 99 // must be a copy
	if tr.Iterations()[0].Residual != 1.0 {
		t.Fatal("Iterations must return a copy")
	}
}
