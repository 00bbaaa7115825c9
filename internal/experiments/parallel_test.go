package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestReplicateSlotsAndFirstError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		slots, err := replicate(5, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil || fmt.Sprint(slots) != "[0 1 4 9 16]" {
			t.Fatalf("workers=%d: slots %v, err %v", workers, slots, err)
		}
		errAt := func(i int) error { return fmt.Errorf("job %d", i) }
		slots, err = replicate(5, workers, func(i int) (int, error) {
			if i == 1 || i == 3 {
				return -i, errAt(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 1" || fmt.Sprint(slots) != "[0 -1]" {
			t.Fatalf("workers=%d: slots %v, err %v; want the prefix up to job 1 and its error", workers, slots, err)
		}
	}
}

// TestReplayErrorCommitsPrefix checks that a failing seed stops the
// commit where a sequential loop would have stopped: the earlier seeds'
// events reach the sink, the later seeds' do not, at every worker count.
func TestReplayErrorCommitsPrefix(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 80)
	scheme, err := core.New(g, m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	trace := func(seed int) (*sim.Trace, error) {
		if seed == 1 {
			return nil, boom
		}
		return sim.GenerateTrace(m, 3, int64(seed)), nil
	}
	var want int
	for _, workers := range []int{1, 2, 4} {
		buf := obs.NewBuffer()
		p := SimParams{Seeds: 4, Warmup: 1, Horizon: 3, Parallelism: workers, Sink: buf}
		_, err := replay(g, p, trace, each(scheme.SinglePath()), blocking).commit(p)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err %v, want %v", workers, err, boom)
		}
		if workers == 1 {
			want = buf.Len()
			if want == 0 {
				t.Fatal("seed 0's events were not committed")
			}
		} else if buf.Len() != want {
			t.Fatalf("workers=%d: %d events committed, sequential commits %d", workers, buf.Len(), want)
		}
	}
}

// observed is everything a study hands back or feeds: its returned value
// printed with %+v (shortest round-trip floats, sorted maps, so equal
// strings mean equal bits), the JSONL bytes an attached sink received,
// and the metrics registry's counters and span total.
type observed struct {
	result, jsonl, metrics string
	runs                   int64
}

func observe(t *testing.T, run func(SimParams) (any, error), par int) observed {
	t.Helper()
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	reg := obs.NewRegistry()
	p := SimParams{
		Seeds: 3, Warmup: 1, Horizon: 6, Parallelism: par,
		Sink: obs.Multi(jsonl, reg), Metrics: reg, WindowLength: 2,
	}
	res, err := run(p)
	if err != nil {
		t.Fatalf("parallel=%d: %v", par, err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Solver traces carry wall-clock iteration times; the counters and
	// the span total are what the runs feed.
	snap.Solvers = nil
	metrics, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return observed{fmt.Sprintf("%+v", res), buf.String(), string(metrics), snap.Runs}
}

// TestStudiesParallelEquivalence holds every study on the replicate engine
// to the determinism contract: at Parallelism 1, 2 and 4, under GOMAXPROCS
// 1 and 2, each returns the same value and feeds an attached sink and
// metrics registry the same bytes and counters — and a study that emits
// nothing leaves both empty. (BlockingSweep's Quadrangle and NSFNetSweep
// are held to it by internal/sim's TestGoldenParallelSweepEquivalence.)
func TestStudiesParallelEquivalence(t *testing.T) {
	quad := netmodel.Quadrangle()
	quadM := traffic.Uniform(4, 80)
	studies := []struct {
		name  string
		emits bool
		run   func(SimParams) (any, error)
	}{
		{"overflow", true, func(p SimParams) (any, error) { return OverflowRuleStudy([]float64{10}, 11, p) }},
		{"availability", true, func(p SimParams) (any, error) {
			a, err := NSFNetAvailability(10, []float64{0.02, 0.05}, 11, 0.5, sim.FailoverReroute, p)
			if err != nil {
				return nil, err
			}
			return []Sweep{*a.Blocking, *a.Lost, *a.Unserved}, nil
		}},
		{"cellular", false, func(p SimParams) (any, error) { return Cellular([]float64{48}, p) }},
		{"multirate", false, func(p SimParams) (any, error) { return MultiRate([]float64{90}, p) }},
		{"robust", false, func(p SimParams) (any, error) { return Robustness([]float64{10}, 11, p) }},
		{"signaling", false, func(p SimParams) (any, error) { return Signaling([]float64{0.01}, 11, p) }},
		{"fixedpoint", false, func(p SimParams) (any, error) { return FixedPointStudy([]float64{10}, p) }},
		{"ramp", false, func(p SimParams) (any, error) { return RampRobustness(p) }},
		{"focused", false, func(p SimParams) (any, error) { return FocusedOverload([]float64{50}, 11, p) }},
		{"generalize", false, func(p SimParams) (any, error) { return GeneralMesh(2, p) }},
		{"hvariants", false, func(p SimParams) (any, error) { return HVariants([]float64{10}, p) }},
		{"minloss", false, func(p SimParams) (any, error) { return MinLossStudy([]float64{10}, 11, p) }},
		{"skew", false, func(p SimParams) (any, error) {
			s, err := Skewness(10, 6, p)
			if err != nil {
				return nil, err
			}
			return *s, nil
		}},
		{"peakedness", false, func(p SimParams) (any, error) {
			r, err := Peakedness(10, 11, p)
			if err != nil {
				return nil, err
			}
			return *r, nil
		}},
		{"capacity", false, func(p SimParams) (any, error) { return CapacityHeadroom(quad, quadM, 0, 0.01, p) }},
		{"mitragibbens", false, func(p SimParams) (any, error) {
			return MitraGibbens(MitraGibbensOptions{Nodes: 4, Capacity: 30, Loads: []float64{25}, MaxR: 3, Sim: p})
		}},
		{"retrials", false, func(p SimParams) (any, error) { return Retrials([]float64{0.6}, 11, p) }},
		{"insensitivity", false, func(p SimParams) (any, error) { return Insensitivity(11, p) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, st := range studies {
		t.Run(st.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			want := observe(t, st.run, 1)
			if emitted := want.jsonl != "" || want.runs != 0; emitted != st.emits {
				t.Fatalf("sequential run emitted=%v (%d JSONL bytes, %d runs), want %v",
					emitted, len(want.jsonl), want.runs, st.emits)
			}
			for _, gmp := range []int{1, 2} {
				runtime.GOMAXPROCS(gmp)
				for _, par := range []int{1, 2, 4} {
					if gmp == 1 && par == 1 {
						continue // the sequential baseline itself
					}
					got := observe(t, st.run, par)
					label := fmt.Sprintf("gomaxprocs=%d/parallel=%d", gmp, par)
					if got.result != want.result {
						t.Fatalf("%s: result\n%s\nsequential\n%s", label, got.result, want.result)
					}
					if got.jsonl != want.jsonl {
						t.Fatalf("%s: JSONL bytes diverge from the sequential stream (%d vs %d bytes)",
							label, len(got.jsonl), len(want.jsonl))
					}
					if got.metrics != want.metrics {
						t.Fatalf("%s: metrics\n%s\nsequential\n%s", label, got.metrics, want.metrics)
					}
				}
			}
		})
	}
}
