package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunCalls/stream-8         	       2	 510000000 ns/op	   2000000 calls/sec	   0.950 carried/unit	  903219 B/op	     351 allocs/op
BenchmarkRunCalls/stream-8         	       2	 500000000 ns/op	   2100000 calls/sec	   0.950 carried/unit	  903219 B/op	     351 allocs/op
BenchmarkRunCalls/replay-8         	       4	 260000000 ns/op	   3300000 calls/sec	   0.950 carried/unit	  168936 B/op	      71 allocs/op
BenchmarkRunCalls/replay         	       4	 250000000 ns/op	   3400000 calls/sec	   0.950 carried/unit	  168936 B/op	      71 allocs/op
BenchmarkEq15Search/quadrangle@90E/cold-8  	     100	  11000000 ns/op	     312 allocs/op
PASS
`

const sampleBaseline = `{
  "optimized": {
    "run_calls_stream_calls_per_sec": [2096423, 2105578, 1957352],
    "run_calls_replay_calls_per_sec": [3394775, 3340919, 3382691]
  }
}`

// classicPair mirrors resolve()'s default selection at a 30% budget.
func classicPair() []selection {
	var m metricFlags
	return m.resolve(0.30)
}

func TestMetricFlagParsing(t *testing.T) {
	var m metricFlags
	for _, v := range []string{"stream", "replay=0.10"} {
		if err := m.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	sels := m.resolve(0.30)
	want := map[string]float64{"replay": 0.10, "stream": 0.30}
	if len(sels) != len(want) {
		t.Fatalf("resolve: %v", sels)
	}
	for i, s := range sels {
		if want[s.name] != s.regress {
			t.Errorf("sel[%d] = %+v, want regress %v", i, s, want[s.name])
		}
	}
	// Unknown names and repeats are refused...
	for _, bad := range []string{"nosuch", "stream", "replay=0.20"} {
		if err := m.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	// ...and so are budgets outside [0, 1) or unparsable, on a fresh set
	// where the name alone would be accepted.
	for _, bad := range []string{"stream=1.5", "stream=-0.1", "replay=x"} {
		var fresh metricFlags
		if err := fresh.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	// Defaults: the classic pair under the global budget.
	def := classicPair()
	if len(def) != 2 || def[0].name != "replay" || def[1].name != "stream" ||
		def[0].regress != 0.30 || def[1].regress != 0.30 {
		t.Fatalf("default selection = %+v", def)
	}
}

func TestParseBenchBestPerMetric(t *testing.T) {
	var echo strings.Builder
	var m metricFlags
	for _, v := range []string{"stream", "replay"} {
		if err := m.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := parseBench(strings.NewReader(sampleBench), &echo, m.resolve(0.30))
	if err != nil {
		t.Fatal(err)
	}
	// Best of count, from suffixed ("stream-8") and bare ("replay") names.
	want := map[string]float64{"stream": 2100000, "replay": 3400000}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("best[%s] = %v, want %v", k, got[k], v)
		}
	}
	if echo.String() != sampleBench {
		t.Error("input was not echoed verbatim")
	}
}

func TestBaselineBest(t *testing.T) {
	var m metricFlags
	for _, v := range []string{"stream", "replay"} {
		if err := m.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	sels := m.resolve(0.30)
	got, err := baselineBest([]byte(sampleBaseline), sels)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"stream": 2105578, "replay": 3394775}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("baseline best[%s] = %v, want %v", k, got[k], v)
		}
	}
	// Scalar form is accepted too.
	got, err = baselineBest([]byte(`{"optimized": {
		"run_calls_stream_calls_per_sec": 100,
		"run_calls_replay_calls_per_sec": 200}}`), classicPair())
	if err != nil {
		t.Fatal(err)
	}
	if got["stream"] != 100 || got["replay"] != 200 {
		t.Fatalf("scalar baseline best = %v", got)
	}
	if _, err := baselineBest([]byte(`{"optimized": {}}`), classicPair()); err == nil {
		t.Error("missing keys should be an error")
	}
	if _, err := baselineBest([]byte(`{"optimized": {
		"run_calls_stream_calls_per_sec": 0,
		"run_calls_replay_calls_per_sec": 200}}`), classicPair()); err == nil {
		t.Error("non-positive baseline should be an error")
	}
	// Only the selected metrics must be in the file: a lone stream key
	// serves a stream-only selection, and fails one that selects replay.
	streamOnly := []byte(`{"optimized": {
		"run_calls_stream_calls_per_sec": 100}}`)
	if _, err := baselineBest(streamOnly, []selection{{name: "stream"}}); err != nil {
		t.Errorf("selected metric present in file: %v", err)
	}
	if _, err := baselineBest(streamOnly, []selection{{name: "replay"}}); err == nil {
		t.Error("missing selected metric should be an error")
	}
}

func TestCheckThreshold(t *testing.T) {
	baseline := map[string]float64{"stream": 2000000, "replay": 3000000}
	cases := []struct {
		name     string
		observed map[string]float64
		ok       bool
	}{
		{"all good", map[string]float64{"stream": 1900000, "replay": 3100000}, true},
		{"at the floor", map[string]float64{"stream": 1400000, "replay": 2100000}, true},
		{"one regressed", map[string]float64{"stream": 1399999, "replay": 3000000}, false},
		{"missing variant", map[string]float64{"replay": 3000000}, false},
		{"empty input", map[string]float64{}, false},
	}
	for _, tc := range cases {
		lines, ok := check(tc.observed, baseline, classicPair())
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v (%v)", tc.name, ok, tc.ok, lines)
		}
		if len(lines) != 2 {
			t.Errorf("%s: want one verdict line per guarded metric, got %v", tc.name, lines)
		}
	}
}

// TestCheckPerMetricFloors: the same observation passes or fails
// depending on each metric's own budget.
func TestCheckPerMetricFloors(t *testing.T) {
	baseline := map[string]float64{"replay": 1000000, "stream": 1000000}
	observed := map[string]float64{"replay": 900000, "stream": 900000}
	lines, ok := check(observed, baseline, []selection{
		{name: "replay", regress: 0.30},
		{name: "stream", regress: 0.30},
	})
	if !ok {
		t.Fatalf("10%% drop under a 30%% budget should pass: %v", lines)
	}
	lines, ok = check(observed, baseline, []selection{
		{name: "replay", regress: 0.30},
		{name: "stream", regress: 0.05},
	})
	if ok {
		t.Fatalf("10%% drop under a 5%% budget should fail: %v", lines)
	}
	if len(lines) != 2 || !strings.Contains(lines[1], "FAIL") || strings.Contains(lines[0], "FAIL") {
		t.Fatalf("expected only stream to fail: %v", lines)
	}
}
