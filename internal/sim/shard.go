package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routetable"
)

// This file implements the sharded single-run engine: conservative
// parallel discrete-event simulation over a balanced minimum-crossing
// partition of the network (graph.Partition), bit-identical to the
// sequential engines for every shard count. See DESIGN.md §15.
//
// The decomposition rests on one ownership rule. Every link belongs to
// the shard of its From node; every O-D pair whose entire route suite
// (all primaries and alternates of the compiled table) lies on one shard
// is LOCAL to that shard, and everything else — pairs whose rows touch
// two shards, plus all failure-plan epochs — is CROSS and handled by a
// coordinator. A local call's admission decision reads and writes only
// its own shard's occupancy entries, so between two consecutive cross
// events the shards are independent processes: each worker replays its
// local arrivals and departures with no synchronization at all. Cross
// events are the barriers. The coordinator announces the next cross
// event's position in the global event order; each worker processes its
// local events strictly before that position and parks; the coordinator
// — now the only running goroutine — applies the cross event against the
// genuinely global shared state, and the cycle repeats.
//
// Bit-identity holds because (a) the global event order is pinned:
// arrivals are totally ordered by (epoch, origin, dest) exactly as the
// trace sort and the stream heap order them, departures precede plan
// events precede arrivals at equal epochs exactly as drainTo and
// drainPlanTo tie-break, and every admission runs the same compiled scan
// (admitOne) against the same occupancy state it would see sequentially;
// and (b) every floating-point accumulation is per-link (the lazy
// occupancy integral of flushLink) or per-counter-owner, so no sum's
// operand order depends on the shard count. The one residue is the
// relative order of equal-epoch departures from different heaps, which
// the sequential engine resolves by heap layout and the merge resolves
// by (shard, sequence): for continuous holding-time distributions the
// two differ on a measure-zero set, and even there only the interleaving
// of CallDeparted events — never a counter — is affected.

// Event classes in the pinned global order at one epoch: departures,
// then failure-plan groups, then arrivals (drainTo pops at <= epoch;
// drainPlanTo holds plans behind earlier-or-equal departures).
const (
	classDep   = 0
	classPlan  = 1
	classArr   = 2
	classFinal = 3 // horizon sentinel: after every in-horizon event
)

// evKey is one event's position in the pinned global order. For arrivals
// o and d are the call's pair — the exact (epoch, origin, dest) total
// order of the trace sort — and for departure and plan blocks the merge
// reuses the fields as (shard, sequence) to pin equal-epoch ties.
type evKey struct {
	t     float64
	class int8
	o, d  int32
}

func infKey() evKey { return evKey{t: math.Inf(1), class: classFinal} }

// keyLess is the canonical event-order comparator: epoch, then class,
// then the class-specific tie fields.
func keyLess(a, b evKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.o != b.o {
		return a.o < b.o
	}
	return a.d < b.d
}

// shardCount resolves Config.Shards against the topology: clamped to the
// node count (a shard must own at least one node).
func shardCount(cfg Config) int {
	k := cfg.Shards
	if n := cfg.Graph.NumNodes(); k > n {
		k = n
	}
	return k
}

// shardWorker is one shard's event loop: a private loop (departure heap,
// scalar counters, window tallies, event buffer) over the shared State,
// driven between barriers by the arrivals of its local pairs.
type shardWorker struct {
	l  *loop
	th *routetable.Thresholds
	// Local arrivals: a materialized slice (exact-ID mode) or a private
	// Stream substream (ID-free mode); exactly one is set.
	calls []Call
	idx   int
	src   *Stream
	cmd   chan evKey
	done  chan struct{}
}

// peekArrival returns the worker's next unprocessed local arrival as an
// event key, stopping — like the sequential engines — at the first
// arrival at or past the horizon.
func (w *shardWorker) peekArrival() (evKey, bool) {
	if w.src != nil {
		at, o, d, ok := w.src.Peek()
		if !ok || at >= w.l.horizon {
			return evKey{}, false
		}
		return evKey{t: at, class: classArr, o: int32(o), d: int32(d)}, true
	}
	if w.idx >= len(w.calls) {
		return evKey{}, false
	}
	c := w.calls[w.idx]
	if c.Arrival >= w.l.horizon {
		return evKey{}, false
	}
	return evKey{t: c.Arrival, class: classArr, o: int32(c.Origin), d: int32(c.Dest)}, true
}

func (w *shardWorker) nextArrival() Call {
	if w.src != nil {
		c, _ := w.src.Next()
		return c
	}
	c := w.calls[w.idx]
	w.idx++
	return c
}

// pendingKey is the worker's earliest unprocessed event — next local
// arrival or next scheduled in-horizon departure. The coordinator reads
// it only while the worker is parked at a barrier (the done receive
// orders the read after the worker's last write).
func (w *shardWorker) pendingKey() evKey {
	k := infKey()
	if ak, ok := w.peekArrival(); ok {
		k = ak
	}
	if len(w.l.deps.ents) > 0 {
		if at := w.l.deps.ents[0].at; at <= w.l.horizon {
			dk := evKey{t: at, class: classDep, o: -1, d: -1}
			if keyLess(dk, k) {
				k = dk
			}
		}
	}
	return k
}

// run is the worker goroutine body: for each announced barrier K,
// process every local arrival strictly before K in the global order —
// draining own departures up to each arrival exactly as the sequential
// loop does — then drain departures up to the barrier epoch and park.
//
//altlint:hotpath
func (w *shardWorker) run() {
	l := w.l
	for K := range w.cmd {
		for {
			ak, ok := w.peekArrival()
			if !ok || !keyLess(ak, K) {
				break
			}
			c := w.nextArrival()
			if len(l.deps.ents) > 0 && l.deps.ents[0].at <= c.Arrival {
				l.drainTo(c.Arrival)
			}
			pairIdx := int(c.Origin)*l.numNodes + int(c.Dest)
			measured, win := l.offered(c, pairIdx)
			l.admitOne(w.th, c, pairIdx, measured, win)
		}
		l.drainTo(K.t)
		w.done <- struct{}{}
	}
}

// sharded is the coordinator's view of one sharded run.
type sharded struct {
	cfg     Config
	st      *State
	co      *loop
	workers []*shardWorker
	th      *routetable.Thresholds
	horizon float64
	// Cross arrivals: materialized slice or Stream substream.
	crossCalls []Call
	crossIdx   int
	crossSrc   *Stream
}

func (sh *sharded) peekCross() (evKey, bool) {
	if sh.crossSrc != nil {
		at, o, d, ok := sh.crossSrc.Peek()
		if !ok || at >= sh.horizon {
			return evKey{}, false
		}
		return evKey{t: at, class: classArr, o: int32(o), d: int32(d)}, true
	}
	if sh.crossIdx >= len(sh.crossCalls) {
		return evKey{}, false
	}
	c := sh.crossCalls[sh.crossIdx]
	if c.Arrival >= sh.horizon {
		return evKey{}, false
	}
	return evKey{t: c.Arrival, class: classArr, o: int32(c.Origin), d: int32(c.Dest)}, true
}

func (sh *sharded) nextCross() Call {
	if sh.crossSrc != nil {
		c, _ := sh.crossSrc.Next()
		return c
	}
	c := sh.crossCalls[sh.crossIdx]
	sh.crossIdx++
	return c
}

// nextCrossKey is the earliest pending cross event: the coordinator's
// own departure heap top, the next failure-plan epoch, or the next
// cross-pair arrival, all within the horizon.
func (sh *sharded) nextCrossKey() (evKey, bool) {
	k := infKey()
	if len(sh.co.deps.ents) > 0 {
		if at := sh.co.deps.ents[0].at; at <= sh.horizon {
			k = evKey{t: at, class: classDep, o: -1, d: -1}
		}
	}
	if sh.co.pi < len(sh.co.plan) {
		if e := sh.co.plan[sh.co.pi].Epoch; e <= sh.horizon {
			pk := evKey{t: e, class: classPlan, o: -1, d: -1}
			if keyLess(pk, k) {
				k = pk
			}
		}
	}
	if ak, ok := sh.peekCross(); ok && keyLess(ak, k) {
		k = ak
	}
	return k, !math.IsInf(k.t, 1)
}

// minWorkerKey is the earliest pending event across all parked workers.
func (sh *sharded) minWorkerKey() evKey {
	k := infKey()
	for _, w := range sh.workers {
		if wk := w.pendingKey(); keyLess(wk, k) {
			k = wk
		}
	}
	return k
}

// applyCross processes one cross event against the shared state. All
// workers are parked, so the coordinator may touch any shard's links,
// pairs, and heaps.
func (sh *sharded) applyCross(k evKey) {
	co := sh.co
	switch k.class {
	case classDep:
		at, p := co.deps.pop()
		co.departed(at, p)
	case classPlan:
		// applyPlanGroup extracts torn calls from every heap (the
		// coordinator's extraHeaps cover the workers), sorts them by call
		// id, and reroutes via Policy.Route — exactly the sequential
		// semantics. Rescued calls land on the coordinator's heap, so
		// their departures become barriers. Afterwards the thresholds are
		// rebuilt against the changed topology, as runCompiled does after
		// every plan group.
		co.applyPlanGroup()
		if !compileFor(sh.cfg.Policy, sh.st, sh.th) {
			// Unreachable: sharded dispatch requires a compilable policy
			// and no TopologyHook, and nothing else can change the
			// table's shape mid-run.
			panic(fmt.Errorf("sim: sharded mid-run recompile failed"))
		}
		links := sh.th.Table().Links
		co.deps.base = links
		for _, w := range sh.workers {
			w.l.deps.base = links
		}
	case classArr:
		c := sh.nextCross()
		pairIdx := int(c.Origin)*co.numNodes + int(c.Dest)
		measured, win := co.offered(c, pairIdx)
		co.admitOne(sh.th, c, pairIdx, measured, win)
	}
}

// drive runs the barrier protocol to completion. Each round announces
// the next cross event's key; parked workers are guaranteed past every
// earlier local event, so the coordinator applies cross events until one
// is no longer earliest, then announces again. A final barrier at the
// horizon lets workers finish their in-horizon tails.
func (sh *sharded) drive() {
	sentFinal := false
	for {
		K, any := sh.nextCrossKey()
		if !any {
			if sentFinal {
				return
			}
			K = evKey{t: sh.horizon, class: classFinal, o: -1, d: -1}
			sentFinal = true
		}
		for _, w := range sh.workers {
			w.cmd <- K
		}
		for _, w := range sh.workers {
			<-w.done
		}
		for {
			ck, ok := sh.nextCrossKey()
			if !ok || !keyLess(ck, sh.minWorkerKey()) {
				break
			}
			sh.applyCross(ck)
		}
	}
}

// materializeCalls resolves the arrival sequence to a slice, consuming the
// source exactly as far as the sequential engines would: up to and
// including the first arrival at or past the horizon, which is dropped.
func materializeCalls(cfg Config, horizon float64) []Call {
	if cfg.Trace != nil {
		calls := cfg.Trace.Calls
		for i, c := range calls {
			if c.Arrival >= horizon {
				return calls[:i]
			}
		}
		return calls
	}
	var calls []Call
	for {
		c, ok := cfg.Source.Next()
		if !ok || c.Arrival >= horizon {
			return calls
		}
		calls = append(calls, c)
	}
}

// runSharded executes one run on k conservative parallel event loops plus
// a coordinator. The caller has validated the config, normalized the
// plan, resolved the horizon, and verified no TopologyHook is set; k is at
// least 2 and at most the node count. It reports false, having run
// nothing, when the policy does not take the compiled fast path.
//
//altlint:spawn-ok bounded pool of k barrier-synchronized workers; joined by WaitGroup before merge
func runSharded(cfg Config, plan []FailureEvent, horizon float64, seed int64, k int) (*Result, bool) {
	g := cfg.Graph
	st := NewState(g)
	th := &routetable.Thresholds{}
	if !compileFor(cfg.Policy, st, th) {
		return nil, false
	}
	comp := th.Table()
	numNodes, numLinks := g.NumNodes(), g.NumLinks()
	nodeOwner := graph.Partition(g, k)
	linkOwner := make([]int32, numLinks)
	for _, ln := range g.LinkView() {
		linkOwner[ln.ID] = nodeOwner[ln.From]
	}
	owner, cross := comp.ShardSignature(nodeOwner, linkOwner)

	res := &Result{
		Policy:       cfg.Policy.Name(),
		LostAtLink:   make([]int64, numLinks),
		LinkTimeUtil: make([]float64, numLinks),
	}
	pairOffered := make([]int64, numNodes*numNodes)
	pairBlocked := make([]int64, numNodes*numNodes)
	lastFlush := make([]float64, numLinks)
	instrumented := cfg.Sink != nil

	// Every loop shares the run's State, per-link occupancy integral, loss
	// attribution, and dense per-pair counters: the ownership protocol
	// makes all writes element-disjoint between barriers (a worker touches
	// only its own links and pairs; the coordinator touches anything, but
	// only while every worker is parked, with the barrier channels
	// providing the happens-before edges). Scalar counters, window tallies,
	// departure heaps, and event buffers stay private per loop and merge at
	// the end.
	var bufs []*obs.Buffer
	if instrumented {
		bufs = make([]*obs.Buffer, k+1)
		for i := range bufs {
			bufs[i] = obs.NewBuffer()
		}
	}
	newLoop := func(i int) *loop {
		var sink obs.Sink
		if instrumented {
			sink = bufs[i]
		}
		l := &loop{
			cfg: cfg, st: st,
			res: &Result{
				Policy:       res.Policy,
				LostAtLink:   res.LostAtLink,
				LinkTimeUtil: res.LinkTimeUtil,
			},
			horizon:     horizon,
			numNodes:    numNodes,
			pairOffered: pairOffered,
			pairBlocked: pairBlocked,
			sink:        sink,
			util:        res.LinkTimeUtil,
			last:        lastFlush,
			occ:         st.occ,
		}
		l.instrumented = sink != nil
		l.occupancyEvents = l.instrumented && cfg.OccupancyEvents
		l.deps.needMeta = len(plan) > 0
		l.deps.base = comp.Links
		return l
	}

	workers := make([]*shardWorker, k)
	for i := range workers {
		workers[i] = &shardWorker{
			l:    newLoop(i),
			th:   th,
			cmd:  make(chan evKey),
			done: make(chan struct{}),
		}
	}
	co := newLoop(k)
	co.plan = plan
	for _, w := range workers {
		co.extraHeaps = append(co.extraHeaps, &w.l.deps)
	}
	sh := &sharded{cfg: cfg, st: st, co: co, workers: workers, th: th, horizon: horizon}

	// Arrival distribution. Global call IDs are observable through the
	// event stream, the bifurcated primary draw (PrimCum hashes the ID),
	// and failure teardown ordering; such runs materialize the arrival
	// sequence once and split it by pair with IDs intact. Otherwise the IDs
	// are unobservable and each shard draws its own pairs' arrivals from a
	// private Stream substream — O(pairs) memory, no coordination, same
	// epochs and holding times by construction (see Stream.Split).
	idExact := instrumented || len(plan) > 0 || comp.PrimCum != nil || cfg.Trace != nil
	split := false
	if !idExact {
		if src, ok := cfg.Source.(*Stream); ok {
			subs, err := src.Split(k+1, func(o, d graph.NodeID) int {
				p := int(o)*numNodes + int(d)
				if cross[p] {
					return k
				}
				return int(owner[p])
			})
			if err == nil {
				for i, w := range workers {
					w.src = subs[i]
				}
				sh.crossSrc = subs[k]
				split = true
			}
		}
	}
	if !split {
		perShard := make([][]Call, k+1)
		for _, c := range materializeCalls(cfg, horizon) {
			p := int(c.Origin)*numNodes + int(c.Dest)
			b := k
			if !cross[p] {
				b = int(owner[p])
			}
			perShard[b] = append(perShard[b], c)
		}
		for i, w := range workers {
			w.calls = perShard[i]
		}
		sh.crossCalls = perShard[k]
	}

	obs.Emit(cfg.Sink, obs.Event{Kind: obs.KindRunStart, Policy: res.Policy, Seed: seed})

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	sh.drive()
	for _, w := range workers {
		close(w.cmd)
	}
	wg.Wait()

	sh.finish(res, bufs)
	return res, true
}
