package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for altbench when a workload
// re-executes itself as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) summaryLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	return s
}

// buildAltd builds the daemon the altd-wire workload drives.
func buildAltd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "altd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/altd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building altd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloads runs every workload briefly, untraced and traced, with
// every output check on, and checks the summary carries exactly the
// metrics BENCHMARK.json declares for the mode.
func TestWorkloads(t *testing.T) {
	altd := buildAltd(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if testing.Short() && (w.name == "metro-stream" || w.name == "nsfnet-figure") {
				continue
			}
			mode, specs := "0", endToEnd
			if traced {
				mode, specs = "1", perLayer
			}
			t.Run(w.name+"/trace"+mode, func(t *testing.T) {
				var stdout, stderr strings.Builder
				args := []string{"-workload", w.name, "-seconds", "0.5", "-trace", mode,
					"-altd", altd, "-spans", filepath.Join(t.TempDir(), "spans.jsonl")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				s := lastLine(t, stdout.String())
				if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Fatalf("summary %+v\n%s", s, stdout.String())
				}
				if len(s.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(s.Metrics), len(specs))
				}
				for _, spec := range specs {
					m, ok := s.Metrics[spec.name]
					if !ok || m.Unit != spec.unit {
						t.Errorf("metric %s: got %+v, want unit %s", spec.name, m, spec.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", spec.name, m.Value)
					}
				}
			})
		}
	}
}

// TestSpansJSONL checks a traced run writes its spans as JSONL, each span
// closed after it opened and its parent recorded before it.
func TestSpansJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	var stdout strings.Builder
	args := []string{"-workload", "nsfnet-replay", "-seconds", "0.2", "-trace", "1", "-spans", path}
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit %d\n%s", code, stdout.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int32]bool{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	for _, s := range spans {
		if s.Parent >= 0 && !ids[s.Parent] {
			t.Errorf("span %+v names a parent that was not written", s)
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and this
// program's workload and metric tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for _, tc := range []struct {
		kind  string
		decl  []declared
		specs []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.decl) != len(tc.specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", tc.kind, len(tc.decl), len(tc.specs))
			continue
		}
		for i, d := range tc.decl {
			if s := tc.specs[i]; d.Name != s.name || d.Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", tc.kind, i, d.Name, d.Unit, s.name, s.unit)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), whose spreads the bounds are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestReferenceRepeats checks the host-speed reference does the same work
// on every call, at a load where some calls are blocked, and allocates
// nothing: a collection it triggered would depend on the heap the code
// under test left behind.
func TestReferenceRepeats(t *testing.T) {
	r := newReference()
	first := r.run()
	if first <= 0 || first >= refCalls {
		t.Fatalf("%d of %d calls blocked", first, refCalls)
	}
	if again := r.run(); again != first {
		t.Errorf("second run blocked %d, first %d", again, first)
	}
	if allocs := testing.AllocsPerRun(1, func() { r.run() }); allocs != 0 {
		t.Errorf("run allocates %v times", allocs)
	}
}

// TestFlags covers the argument forms the benchmark contract uses and the
// ones it must refuse.
func TestFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "altd-wire", "--seed", "7", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "altd-wire" || o.seed != 7 || o.seconds != 3 || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}
