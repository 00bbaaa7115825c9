package calendar

import (
	"math"
	"sort"
	"testing"
)

// refEntry is one queued event in the reference model: its epoch and its
// id, which is also its push sequence number.
type refEntry struct {
	at float64
	id int32
}

// fuzzEpochScales spans the epochs the queue must order: 1e-300 to 1e300.
var fuzzEpochScales = [...]float64{1e-300, 1e-3, 0.1, 1, 10, 1e3, 1e10, 1e300}

// fuzzHorizons puts the horizon below, inside and above the epoch scales,
// so some entries always land past it.
var fuzzHorizons = [...]float64{1e-300, 1, 110, 1e10, 1e300}

// FuzzQueueMatchesReference drives the queue through arbitrary sequences
// of insert, peek, drain-to-epoch, removal and bursts, against a
// reference that pops every entry at or before the drain epoch (and not
// past the horizon) in stable (epoch, push sequence) order. Epoch bytes
// draw from a coarse grid over 1e-300…1e300, so equal epochs are common;
// bursts of up to 512 inserts and drains to the horizon cross the resize
// thresholds in both directions. Every insert past the horizon must be
// refused, and only those.
//
// Ops, one byte each plus arguments: 0–4 insert, 5 drain to an epoch, 6
// peek, 7 RemoveIf (only when removals is set), 8 burst of inserts, 9
// drain to the horizon. The checked-in corpus (testdata/fuzz) names one
// case per property.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, horizonSel uint8, removals bool, ops []byte) {
		horizon := fuzzHorizons[int(horizonSel)%len(fuzzHorizons)]
		const maxIDs = 1 << 13
		var q Queue
		q.Init(horizon)

		var ref []refEntry // queued entries, in push order
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
		push := func(at float64) {
			id := pushed
			if id >= maxIDs {
				return
			}
			pushed++
			if !q.Insert(Entry{At: at, Ref: id, N: -id}) {
				if at <= horizon {
					t.Fatalf("Insert refused %v inside horizon %v", at, horizon)
				}
				return
			}
			if at > horizon {
				t.Fatalf("Insert queued %v past horizon %v", at, horizon)
			}
			ref = append(ref, refEntry{at, id})
		}
		// due returns, in pop order, the reference entries the queue must
		// pop by epoch.
		due := func(epoch float64) []refEntry {
			var out []refEntry
			for _, e := range ref {
				if e.at <= epoch {
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
			if q.n != len(ref) {
				t.Fatalf("after %s: queue holds %d entries, reference %d", op, q.n, len(ref))
			}
			want := math.Inf(1)
			if inside := due(horizon); len(inside) > 0 {
				want = inside[0].at
			}
			if got := q.Next(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %s: Next() = %v, want %v", op, got, want)
			}
		}
		drain := func(epoch float64) {
			t.Helper()
			want := due(epoch)
			var got []refEntry
			for {
				e, ok := q.PopTo(epoch)
				if !ok {
					break
				}
				if e.N != -e.Ref {
					t.Fatalf("drain to %v: payload (%d, %d) corrupted", epoch, e.Ref, e.N)
				}
				got = append(got, refEntry{e.At, e.Ref})
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
			case 0, 1, 2, 3, 4:
				push(epoch())
			case 5:
				drain(min(epoch(), horizon))
			case 6:
				check("peek")
			case 7:
				if !removals {
					continue
				}
				mod := int32(1 + arg()%7)
				rem := int32(arg()) % mod
				var want []refEntry
				for _, e := range ref {
					if e.id%mod == rem {
						want = append(want, e)
					}
				}
				var got []refEntry
				q.RemoveIf(func(e Entry) bool {
					if e.Ref%mod != rem {
						return false
					}
					got = append(got, refEntry{e.At, e.Ref})
					return true
				})
				sort.Slice(got, func(i, j int) bool { return got[i].id < got[j].id })
				if len(got) != len(want) {
					t.Fatalf("remove %d mod %d: %d entries, want %d", rem, mod, len(got), len(want))
				}
				for i, e := range want {
					if got[i].id != e.id || math.Float64bits(got[i].at) != math.Float64bits(e.at) {
						t.Fatalf("remove %d mod %d: entry %d = %+v, want %+v", rem, mod, i, got[i], e)
					}
				}
				remove(want)
				check("remove")
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
					push(scale * 8 * float64(z>>11) / (1 << 53))
				}
				check("burst")
			case 9:
				drain(horizon)
			}
		}
		drain(horizon)
		if q.n != 0 || len(ref) != 0 {
			t.Fatalf("drain to the horizon left %d entries (reference %d)", q.n, len(ref))
		}
	})
}
