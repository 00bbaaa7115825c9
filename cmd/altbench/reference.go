package main

import "math/rand"

// The host-speed reference.
//
// Other tenants of a shared host slow every program on it, by up to half
// and for minutes at a time. The slowdown happens inside the core (shared
// caches, sibling threads), so a slowed run's CPU time grows with its wall
// time and CPU time does not hide it. The program below belongs to the
// benchmark, never changes with the code under test and does the same work
// on every call, so its CPU time measures the host's speed at that moment.
// Each end-to-end timing is divided by the host factor measured next to it:
// the reference's CPU time over refNominalMs.
//
// It is a small loss network on the standard library alone, so it slows
// the way the simulator does: refPairs Poisson streams, one math/rand
// generator each, merged on an indexed min-heap; each call holds a circuit
// on two adjacent links of a ring of refLinks until a departure heap
// releases them, or is blocked when either is full.
const (
	refPairs, refLinks, refCapacity = 182, 40, 30
	refCalls                        = 250_000
	// Mean holding time: offered load per link equals its capacity.
	refHold = refLinks * refCapacity / 2
	// refNominalMs is the reference's CPU time on the host in baseline.json
	// when no other tenant slowed it, so a factor of 1 reads as that host.
	refNominalMs = 60.0
)

type departure struct {
	at   float64
	link int32 // the first of the call's two links
}

type reference struct {
	src   []*rand.Rand
	next  []float64   // each pair's next arrival
	merge []int32     // pairs, min-ordered by next
	deps  []departure // min-ordered by at
	occ   []int32     // circuits busy per link
}

func newReference() *reference {
	r := &reference{
		next:  make([]float64, refPairs),
		merge: make([]int32, refPairs),
		// At most refCapacity calls per link and two links per call are in
		// progress, so run never grows this.
		deps: make([]departure, 0, refLinks*refCapacity/2),
		occ:  make([]int32, refLinks),
	}
	for p := 0; p < refPairs; p++ {
		r.src = append(r.src, rand.New(rand.NewSource(int64(p))))
	}
	return r
}

// factor runs the reference once and returns its CPU time over
// refNominalMs: above 1 when the host runs slower than that.
func (r *reference) factor() float64 {
	w := startWatch()
	r.run()
	return w.stop().cpu.Seconds() * 1e3 / refNominalMs
}

// run simulates refCalls calls from the same seeds every time and returns
// how many were blocked.
func (r *reference) run() int {
	for p, src := range r.src {
		src.Seed(int64(p))
		r.next[p] = src.ExpFloat64() * refPairs
		r.merge[p] = int32(p)
	}
	for i := refPairs/2 - 1; i >= 0; i-- {
		r.siftMerge(i)
	}
	r.deps = r.deps[:0]
	clear(r.occ)
	blocked := 0
	for k := 0; k < refCalls; k++ {
		p := r.merge[0]
		t := r.next[p]
		for len(r.deps) > 0 && r.deps[0].at <= t {
			a := r.popDeparture()
			r.occ[a]--
			r.occ[(a+1)%refLinks]--
		}
		src := r.src[p]
		a := (p*7 + int32(src.Intn(3))) % refLinks
		b := (a + 1) % refLinks
		if r.occ[a] < refCapacity && r.occ[b] < refCapacity {
			r.occ[a]++
			r.occ[b]++
			r.pushDeparture(departure{t + src.ExpFloat64()*refHold, a})
		} else {
			blocked++
		}
		r.next[p] = t + src.ExpFloat64()*refPairs
		r.siftMerge(0)
	}
	return blocked
}

func (r *reference) siftMerge(i int) {
	n := len(r.merge)
	for {
		small := 2*i + 1
		if small >= n {
			return
		}
		if right := small + 1; right < n && r.next[r.merge[right]] < r.next[r.merge[small]] {
			small = right
		}
		if r.next[r.merge[small]] >= r.next[r.merge[i]] {
			return
		}
		r.merge[i], r.merge[small] = r.merge[small], r.merge[i]
		i = small
	}
}

func (r *reference) pushDeparture(d departure) {
	r.deps = append(r.deps, d)
	for i := len(r.deps) - 1; i > 0; {
		parent := (i - 1) / 2
		if r.deps[parent].at <= r.deps[i].at {
			return
		}
		r.deps[parent], r.deps[i] = r.deps[i], r.deps[parent]
		i = parent
	}
}

// popDeparture removes the earliest departure and returns its first link.
func (r *reference) popDeparture() int32 {
	link := r.deps[0].link
	last := len(r.deps) - 1
	r.deps[0] = r.deps[last]
	r.deps = r.deps[:last]
	for i := 0; ; {
		small := 2*i + 1
		if small >= last {
			break
		}
		if right := small + 1; right < last && r.deps[right].at < r.deps[small].at {
			small = right
		}
		if r.deps[small].at >= r.deps[i].at {
			break
		}
		r.deps[i], r.deps[small] = r.deps[small], r.deps[i]
		i = small
	}
	return link
}
