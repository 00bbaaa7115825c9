package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
)

// refEntry is one scheduled departure in the reference model: its epoch
// and its id, which is also its push sequence number.
type refEntry struct {
	at float64
	id int32
}

// fuzzEpochScales spans the epochs the queue must order: 1e-300 to 1e300.
var fuzzEpochScales = [...]float64{1e-300, 1e-3, 0.1, 1, 10, 1e3, 1e10, 1e300}

// fuzzHorizons puts the horizon below, inside and above the epoch scales,
// so some entries always land past it.
var fuzzHorizons = [...]float64{1e-300, 1, 110, 1e10, 1e300}

// FuzzDepartureQueueMatchesReference drives the departure queue through
// arbitrary sequences of push, pushRow, peek, drain-to-epoch, extract and
// bursts, against a reference that pops every entry at or before the
// drain epoch (and not past the horizon) in stable (epoch, push sequence)
// order. Epoch bytes draw from a coarse grid over 1e-300…1e300, so equal
// epochs are common; bursts of up to 512 pushes and drains to the horizon
// cross the resize thresholds in both directions.
//
// Ops, one byte each plus arguments: 0–2 push a pooled path, 3–4 pushRow
// (pooled too when needMeta), 5 drain to an epoch, 6 peek, 7 extract
// (needMeta only: extraction exists only on runs with failure events), 8
// burst of pushes, 9 drain to the horizon. The checked-in corpus
// (testdata/fuzz) names one case per property.
func FuzzDepartureQueueMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, horizonSel uint8, needMeta bool, ops []byte) {
		horizon := fuzzHorizons[int(horizonSel)%len(fuzzHorizons)]
		const maxIDs = 1 << 13
		base := make([]graph.LinkID, maxIDs)
		for i := range base {
			base[i] = graph.LinkID(i)
		}
		var q departureQueue
		q.init(horizon, needMeta)
		q.base = base

		var ref []refEntry // in push order
		var pushed int32
		pos := 0
		arg := func() byte {
			if pos >= len(ops) {
				return 0
			}
			pos++
			return ops[pos-1]
		}
		epoch := func() float64 {
			s := fuzzEpochScales[int(arg())%len(fuzzEpochScales)]
			return s * float64(arg()) / 32
		}
		push := func(at float64, row bool) {
			id := pushed
			if id >= maxIDs {
				return
			}
			pushed++
			ref = append(ref, refEntry{at, id})
			m := depMeta{id: int64(id)}
			if row {
				q.pushRow(at, id, 1, m)
			} else {
				q.push(at, paths.Path{Links: base[id : id+1]}, m)
			}
		}
		// due returns, in pop order, the reference entries the queue must
		// pop by epoch.
		due := func(epoch float64) []refEntry {
			var out []refEntry
			for _, e := range ref {
				if e.at <= epoch && e.at <= horizon {
					out = append(out, e)
				}
			}
			sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
			return out
		}
		remove := func(gone []refEntry) {
			drop := make(map[int32]bool, len(gone))
			for _, e := range gone {
				drop[e.id] = true
			}
			kept := ref[:0]
			for _, e := range ref {
				if !drop[e.id] {
					kept = append(kept, e)
				}
			}
			ref = kept
		}
		check := func(op string) {
			t.Helper()
			inside := due(horizon)
			if q.n != len(inside) {
				t.Fatalf("after %s: queue holds %d entries inside the horizon, reference %d", op, q.n, len(inside))
			}
			want := math.Inf(1)
			if len(inside) > 0 {
				want = inside[0].at
			}
			if got := q.next(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %s: next() = %v, want %v", op, got, want)
			}
		}
		drain := func(epoch float64) {
			t.Helper()
			want := due(epoch)
			var got []refEntry
			for {
				e, ok := q.popTo(epoch)
				if !ok {
					break
				}
				got = append(got, refEntry{e.at, int32(q.release(e).Links[0])})
			}
			if len(got) != len(want) {
				t.Fatalf("drain to %v popped %d entries, want %d", epoch, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i].at) != math.Float64bits(want[i].at) || got[i].id != want[i].id {
					t.Fatalf("drain to %v: pop %d = %+v, want %+v", epoch, i, got[i], want[i])
				}
			}
			remove(want)
			check("drain")
		}

		for pos < len(ops) {
			switch op := arg() % 10; op {
			case 0, 1, 2:
				push(epoch(), false)
			case 3, 4:
				push(epoch(), true)
			case 5:
				drain(min(epoch(), horizon))
			case 6:
				check("peek")
			case 7:
				if !needMeta {
					continue
				}
				mod := int32(1 + arg()%7)
				rem := int32(arg()) % mod
				hit := func(p paths.Path) bool { return int32(p.Links[0])%mod == rem }
				var want []refEntry
				for _, e := range ref {
					if e.id%mod == rem {
						want = append(want, e)
					}
				}
				got := q.extract(hit)
				sort.Slice(got, func(i, j int) bool { return got[i].meta.id < got[j].meta.id })
				if len(got) != len(want) {
					t.Fatalf("extract %d mod %d: %d entries, want %d", rem, mod, len(got), len(want))
				}
				for i, e := range want {
					g := got[i]
					if g.meta.id != int64(e.id) || int32(g.path.Links[0]) != e.id || math.Float64bits(g.at) != math.Float64bits(e.at) {
						t.Fatalf("extract %d mod %d: entry %d = (%v, id %d), want %+v", rem, mod, i, g.at, g.meta.id, e)
					}
				}
				remove(want)
				check("extract")
			case 8:
				count := 16 * (1 + int(arg())%32)
				scale := fuzzEpochScales[int(arg())%len(fuzzEpochScales)]
				x := uint64(arg()) + 1
				for i := 0; i < count; i++ {
					// splitmix64: continuous epochs on [0, 8·scale).
					x += 0x9e3779b97f4a7c15
					z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
					z = (z ^ z>>27) * 0x94d049bb133111eb
					z ^= z >> 31
					push(scale*8*float64(z>>11)/(1<<53), i%2 == 0)
				}
				check("burst")
			case 9:
				drain(horizon)
			}
		}
		drain(horizon)
		// Only entries past the horizon remain: on the side list, in push
		// order, when extraction can need them.
		if needMeta {
			if len(q.side) != len(ref) {
				t.Fatalf("side list holds %d entries, want %d", len(q.side), len(ref))
			}
			for i, e := range ref {
				if s := q.side[i]; s.at != e.at || int32(q.pool[s.n].Links[0]) != e.id {
					t.Fatalf("side[%d] = %v (id %d), want %+v", i, s.at, q.pool[s.n].Links[0], e)
				}
			}
		}
	})
}
