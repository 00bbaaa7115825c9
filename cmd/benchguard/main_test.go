package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunCalls/stream-8         	       2	 510000000 ns/op	   2000000 calls/sec	   0.950 carried/unit	  903219 B/op	     351 allocs/op
BenchmarkRunCalls/stream-8         	       2	 500000000 ns/op	   2100000 calls/sec	   0.950 carried/unit	  903219 B/op	     349 allocs/op
BenchmarkRunCalls/replay-8         	       4	 260000000 ns/op	   3300000 calls/sec	   0.950 carried/unit	  168936 B/op	      71 allocs/op
BenchmarkRunCalls/replay         	       4	 250000000 ns/op	   3400000 calls/sec	   0.950 carried/unit	  168936 B/op	      71 allocs/op
BenchmarkNewStream/nsfnet-drain    	      60	  18992340 ns/op	  677352 B/op	     915 allocs/op
BenchmarkErlangBound/nsfnet-12loads-2    	     100	  10202642 ns/op
--- FAIL: BenchmarkBroken
BenchmarkBroken
PASS
`

func TestBenchNameSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkRunCalls/replay-2":          "BenchmarkRunCalls/replay",
		"BenchmarkRunCalls/replay":            "BenchmarkRunCalls/replay",
		"BenchmarkDecide-16":                  "BenchmarkDecide",
		"BenchmarkNewStream/nsfnet-drain":     "BenchmarkNewStream/nsfnet-drain",
		"BenchmarkNewStream/nsfnet-drain-2":   "BenchmarkNewStream/nsfnet-drain",
		"BenchmarkErlangBound/nsfnet-12loads": "BenchmarkErlangBound/nsfnet-12loads",
		"BenchmarkBuildMinHop/metro200-H2-8":  "BenchmarkBuildMinHop/metro200-H2",
		"BenchmarkTrailingDash-":              "BenchmarkTrailingDash-",
	} {
		if got := benchName(in); got != want {
			t.Errorf("benchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchBestPerMetric(t *testing.T) {
	var echo strings.Builder
	obs, err := parseBench(strings.NewReader(sampleBench), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != sampleBench {
		t.Error("input was not echoed verbatim")
	}
	higher := record{Better: "higher"}
	lower := record{Better: "lower"}
	for _, tc := range []struct {
		k    key
		r    record
		want float64
	}{
		// Suffixed ("stream-8") and bare ("replay") names both count.
		{key{"BenchmarkRunCalls/stream", "calls/sec"}, higher, 2100000},
		{key{"BenchmarkRunCalls/replay", "calls/sec"}, higher, 3400000},
		{key{"BenchmarkRunCalls/stream", "allocs/op"}, lower, 349},
		{key{"BenchmarkRunCalls/replay", "ns/op"}, lower, 250000000},
		{key{"BenchmarkNewStream/nsfnet-drain", "B/op"}, lower, 677352},
		{key{"BenchmarkErlangBound/nsfnet-12loads", "ns/op"}, lower, 10202642},
	} {
		vals, ok := obs[tc.k]
		if !ok {
			t.Errorf("%v: not observed", tc.k)
			continue
		}
		if got := tc.r.best(vals); got != tc.want {
			t.Errorf("%v: best %v, want %v", tc.k, got, tc.want)
		}
	}
	for k := range obs {
		if strings.HasPrefix(k.bench, "BenchmarkBroken") {
			t.Errorf("non-result line parsed: %v", k)
		}
	}
}

func TestBaselineBest(t *testing.T) {
	l, err := readLedger([]byte(`{"records": [
		{"benchmark": "BenchmarkRunCalls/replay", "metric": "calls/sec", "better": "higher",
		 "samples": [3394775, 3340919, 3382691], "max_regress": 0.3},
		{"benchmark": "BenchmarkRunCalls/replay", "metric": "allocs/op", "better": "lower",
		 "samples": [33, 31, 32]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Records[0].best(l.Records[0].Samples); got != 3394775 {
		t.Errorf("higher-is-better best = %v", got)
	}
	if got := l.Records[1].best(l.Records[1].Samples); got != 31 {
		t.Errorf("lower-is-better best = %v", got)
	}
	if l.Records[1].MaxRegress != nil {
		t.Error("unbudgeted record carries a budget")
	}
	for name, bad := range map[string]string{
		"not JSON":         `{"records": [`,
		"no records":       `{"records": []}`,
		"unknown field":    `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1], "max_regres": 0.3}]}`,
		"no metric":        `{"records": [{"benchmark": "B", "better": "lower", "samples": [1]}]}`,
		"bad direction":    `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "faster", "samples": [1]}]}`,
		"no samples":       `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": []}]}`,
		"negative sample":  `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [-1]}]}`,
		"budget of 1":      `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1], "max_regress": 1}]}`,
		"negative budget":  `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1], "max_regress": -0.1}]}`,
		"recorded twice":   `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1]}, {"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [2]}]}`,
		"no benchmark":     `{"records": [{"metric": "ns/op", "better": "lower", "samples": [1]}]}`,
		"host not a block": `{"host": "x", "records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1]}]}`,
	} {
		if _, err := readLedger([]byte(bad)); err == nil {
			t.Errorf("%s: ledger accepted", name)
		}
	}
}

func budget(f float64) *float64 { return &f }

func TestCheckThreshold(t *testing.T) {
	l := &ledger{Records: []record{
		{Benchmark: "BenchmarkRunCalls/stream", Metric: "calls/sec", Better: "higher", Samples: []float64{2000000}, MaxRegress: budget(0.30)},
		{Benchmark: "BenchmarkRunCalls/replay", Metric: "calls/sec", Better: "higher", Samples: []float64{3000000}, MaxRegress: budget(0.30)},
		{Benchmark: "BenchmarkRunCalls/replay", Metric: "allocs/op", Better: "lower", Samples: []float64{40, 50}, MaxRegress: budget(0.25)},
		// No budget: history, never checked and never missing.
		{Benchmark: "BenchmarkRunBare", Metric: "ns/op", Better: "lower", Samples: []float64{1}},
	}}
	obs := func(stream, replay, allocs float64) map[key][]float64 {
		m := map[key][]float64{}
		if stream > 0 {
			m[key{"BenchmarkRunCalls/stream", "calls/sec"}] = []float64{stream / 2, stream}
		}
		if replay > 0 {
			m[key{"BenchmarkRunCalls/replay", "calls/sec"}] = []float64{replay}
		}
		if allocs > 0 {
			m[key{"BenchmarkRunCalls/replay", "allocs/op"}] = []float64{allocs * 2, allocs}
		}
		return m
	}
	for _, tc := range []struct {
		name string
		obs  map[key][]float64
		ok   bool
	}{
		{"all good", obs(1900000, 3100000, 40), true},
		{"at the floors and ceiling", obs(1400000, 2100000, 50), true},
		{"throughput regressed", obs(1399999, 3000000, 40), false},
		{"lower-is-better unit regressed", obs(2000000, 3000000, 51), false},
		{"missing budgeted record", obs(2000000, 3000000, 0), false},
		{"empty input", map[key][]float64{}, false},
	} {
		lines, ok := check(l, tc.obs)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v (%v)", tc.name, ok, tc.ok, lines)
		}
		if len(lines) != 3 {
			t.Errorf("%s: want one verdict line per budgeted record, got %v", tc.name, lines)
		}
	}
}

// TestCheckPerMetricFloors: the same observation passes or fails
// depending on each record's own budget.
func TestCheckPerMetricFloors(t *testing.T) {
	ledgerWith := func(replay, stream float64) *ledger {
		return &ledger{Records: []record{
			{Benchmark: "BenchmarkRunCalls/replay", Metric: "calls/sec", Better: "higher", Samples: []float64{1000000}, MaxRegress: budget(replay)},
			{Benchmark: "BenchmarkRunCalls/stream", Metric: "calls/sec", Better: "higher", Samples: []float64{1000000}, MaxRegress: budget(stream)},
		}}
	}
	observed := map[key][]float64{
		{"BenchmarkRunCalls/replay", "calls/sec"}: {900000},
		{"BenchmarkRunCalls/stream", "calls/sec"}: {900000},
	}
	if lines, ok := check(ledgerWith(0.30, 0.30), observed); !ok {
		t.Fatalf("10%% drop under a 30%% budget should pass: %v", lines)
	}
	lines, ok := check(ledgerWith(0.30, 0.05), observed)
	if ok {
		t.Fatalf("10%% drop under a 5%% budget should fail: %v", lines)
	}
	if len(lines) != 2 || !strings.Contains(lines[1], "FAIL") || strings.Contains(lines[0], "FAIL") {
		t.Fatalf("expected only stream to fail: %v", lines)
	}
}

// TestCheckPerDenominator: a record with a denominator is guarded as the
// ratio of its median observation to the denominator's, against the same
// ratio of their recorded medians — a uniformly slower host passes, a
// regressed ratio fails, and a missing denominator fails.
func TestCheckPerDenominator(t *testing.T) {
	l := &ledger{Records: []record{
		{Benchmark: "BenchmarkRunBare", Metric: "ns/op", Better: "lower", Samples: []float64{3.2e6, 3e6, 2.8e6}},
		{Benchmark: "BenchmarkRunInstrumented", Metric: "ns/op", Better: "lower", Samples: []float64{3.3e6, 1e6, 9e6}, MaxRegress: budget(0.10), Per: "BenchmarkRunBare"},
	}}
	// One fast and one slow outlier around each median: only the medians
	// count.
	observed := func(bare, instrumented float64) map[key][]float64 {
		m := map[key][]float64{{"BenchmarkRunInstrumented", "ns/op"}: {instrumented / 2, 3 * instrumented, instrumented}}
		if bare > 0 {
			m[key{"BenchmarkRunBare", "ns/op"}] = []float64{bare, 4 * bare, bare / 3}
		}
		return m
	}
	for _, tc := range []struct {
		name               string
		bare, instrumented float64
		ok                 bool
		wantInVerdict      string
	}{
		// Recorded median ratio 1.1; the ceiling is 1.21.
		{"same host", 3e6, 3.3e6, true, "ok"},
		{"twice as slow a host", 6e6, 6.6e6, true, "ok"},
		{"at the ceiling", 2e6, 2.42e6, true, "ok"},
		// 1.5: absolutely faster than recorded, but a regressed ratio.
		{"ratio regressed", 2e6, 3e6, false, "FAIL"},
		{"missing denominator", 0, 3.3e6, false, "no BenchmarkRunBare result"},
	} {
		lines, ok := check(l, observed(tc.bare, tc.instrumented))
		if ok != tc.ok || len(lines) != 1 || !strings.Contains(lines[0], tc.wantInVerdict) {
			t.Errorf("%s: ok=%v %v, want ok=%v and %q", tc.name, ok, lines, tc.ok, tc.wantInVerdict)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	for name, bad := range map[string]string{
		"unknown denominator": `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1], "per": "A"}]}`,
		"other metric only":   `{"records": [{"benchmark": "A", "metric": "B/op", "better": "lower", "samples": [1]}, {"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1], "per": "A"}]}`,
		"itself":              `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1], "per": "B"}]}`,
		"zero denominator":    `{"records": [{"benchmark": "A", "metric": "ns/op", "better": "lower", "samples": [0, 5, 0]}, {"benchmark": "B", "metric": "ns/op", "better": "lower", "samples": [1], "per": "A"}]}`,
	} {
		if _, err := readLedger([]byte(bad)); err == nil {
			t.Errorf("%s: ledger accepted", name)
		}
	}
}

// guard runs the command on the given ledger bytes and bench output and
// returns its exit status.
func guard(t *testing.T, ledgerJSON []byte, bench string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, ledgerJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-ledger", path}, strings.NewReader(bench), &stdout, &stderr)
	return code, stderr.String()
}

func TestMalformedLedgerExits2(t *testing.T) {
	for _, bad := range []string{`not json`, `{"records": [{"benchmark": "B", "metric": "ns/op", "better": "up", "samples": [1]}]}`} {
		if code, msg := guard(t, []byte(bad), sampleBench); code != 2 {
			t.Errorf("ledger %q: exit %d, want 2 (%s)", bad, code, msg)
		}
	}
	var stderr strings.Builder
	if code := run([]string{"-ledger", filepath.Join(t.TempDir(), "absent.json")}, strings.NewReader(""), &strings.Builder{}, &stderr); code != 2 {
		t.Errorf("absent ledger: exit %d, want 2", code)
	}
	if code := run([]string{"-max-regress", "0.3"}, strings.NewReader(""), &strings.Builder{}, &stderr); code != 2 {
		t.Errorf("removed flag accepted: exit %d", code)
	}
}

// TestCheckedInLedger holds BENCH.json itself to the guard: bench output
// that repeats each budgeted record's best sample (its median and its
// denominator's for a ratio) passes, the replay throughput budget is no looser than 30%, and
// doubling the recorded replay samples — its best and, for a ratio
// record, its median — fails the guard.
func TestCheckedInLedger(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := readLedger(data)
	if err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	var bench strings.Builder
	replay := -1
	for i, r := range l.Records {
		if r.MaxRegress == nil {
			continue
		}
		if r.Per == "" {
			fmt.Fprintf(&bench, "%s-2 \t 10 \t %g %s\n", r.Benchmark, r.best(r.Samples), r.Metric)
		} else {
			den, _ := l.find(r.perKey())
			fmt.Fprintf(&bench, "%s-2 \t 10 \t %g %s\n", r.Benchmark, median(r.Samples), r.Metric)
			fmt.Fprintf(&bench, "%s-2 \t 10 \t %g %s\n", den.Benchmark, median(den.Samples), den.Metric)
		}
		if r.Benchmark == "BenchmarkRunCalls/replay" && r.Metric == "calls/sec" {
			replay = i
		}
	}
	if replay < 0 {
		t.Fatal("BENCH.json does not budget BenchmarkRunCalls/replay calls/sec")
	}
	if *l.Records[replay].MaxRegress > 0.30 {
		t.Errorf("replay budget %v is looser than 0.30", *l.Records[replay].MaxRegress)
	}
	if code, msg := guard(t, data, bench.String()); code != 0 {
		t.Fatalf("best recorded samples fail their own ledger: exit %d\n%s", code, msg)
	}
	r := &l.Records[replay]
	for i := range r.Samples {
		r.Samples[i] *= 2
	}
	inflated, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := guard(t, inflated, bench.String()); code != 1 {
		t.Fatalf("inflated replay sample: exit %d, want 1\n%s", code, msg)
	}
}
