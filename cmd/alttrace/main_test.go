package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// goldenCase mirrors the golden suite's topology grid (internal/sim).
type goldenCase struct {
	name     string
	policies map[string]sim.Policy
	m        *traffic.Matrix
	cfg      sim.Config
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	nm, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	quad, ring, nsf := netmodel.Quadrangle(), netmodel.Ring(6, 30), netmodel.NSFNet()
	quadM, ringM := traffic.Uniform(4, 90), traffic.Uniform(6, 12)
	return []goldenCase{
		{"quadrangle-90E", goldenPoliciesFor(t, quad, quadM, 0), quadM,
			sim.Config{Graph: quad, Warmup: 1, Horizon: 6}},
		{"ring6", goldenPoliciesFor(t, ring, ringM, 0), ringM,
			sim.Config{Graph: ring, Warmup: 2, Horizon: 10}},
		{"nsfnet-nominal", goldenPoliciesFor(t, nsf, nm, 11), nm,
			sim.Config{Graph: nsf, Warmup: 2, Horizon: 10}},
	}
}

func goldenPoliciesFor(t *testing.T, g *graph.Graph, m *traffic.Matrix, h int) map[string]sim.Policy {
	t.Helper()
	scheme, err := core.New(g, m, core.Options{H: h})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := scheme.OttKrishnan()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sim.Policy{
		"single-path":  scheme.SinglePath(),
		"uncontrolled": scheme.Uncontrolled(),
		"controlled":   scheme.Controlled(),
		"ottkrishnan":  ok,
	}
}

var goldenSeeds = []int64{1, 2, 3, 4, 5}

// TestFoldReproducesResultGolden is the acceptance contract: for every
// golden-suite topology/policy/seed combination, folding the run's JSONL
// trace reproduces the exact sim.Result counters.
func TestFoldReproducesResultGolden(t *testing.T) {
	for _, gc := range goldenCases(t) {
		for pname, pol := range gc.policies {
			for _, seed := range goldenSeeds {
				label := fmt.Sprintf("%s/%s/seed=%d", gc.name, pname, seed)
				trace := sim.GenerateTrace(gc.m, gc.cfg.Horizon, seed)
				var buf bytes.Buffer
				sink := obs.NewJSONL(&buf)
				cfg := gc.cfg
				cfg.Policy = pol
				cfg.Trace = trace
				cfg.Sink = sink
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				folded, err := foldTrace(bytes.NewReader(buf.Bytes()), label, 1)
				if err != nil {
					t.Fatalf("%s: fold: %v", label, err)
				}
				if len(folded.totals) != 1 {
					t.Fatalf("%s: %d folded runs, want 1", label, len(folded.totals))
				}
				a := folded.totals[0]
				if a.Policy != res.Policy || a.Seed != seed {
					t.Fatalf("%s: identity (%q,%d), want (%q,%d)", label, a.Policy, a.Seed, res.Policy, seed)
				}
				if a.Offered != res.Offered || a.Accepted != res.Accepted || a.Blocked != res.Blocked ||
					a.PrimaryAccepted != res.PrimaryAccepted ||
					a.AlternateAccepted != res.AlternateAccepted ||
					a.CarriedHopCount != res.CarriedHopCount {
					t.Fatalf("%s: folded %+v disagrees with Result counters (offered=%d accepted=%d blocked=%d)",
						label, a, res.Offered, res.Accepted, res.Blocked)
				}
			}
		}
	}
}

// writeQuadTrace runs one instrumented quadrangle run and returns the trace
// path, a snapshot path, and the run's Result.
func writeQuadTrace(t *testing.T, dir string) (string, string, *sim.Result) {
	t.Helper()
	g, m := netmodel.Quadrangle(), traffic.Uniform(4, 90)
	policies := goldenPoliciesFor(t, g, m, 0)
	trace := sim.GenerateTrace(m, 6, 1)

	reg := obs.NewRegistry()
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	res, err := sim.Run(sim.Config{
		Graph: g, Policy: policies["controlled"], Trace: trace,
		Warmup: 1, Sink: obs.Multi(jsonl, reg), OccupancyEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	reg.AddSpan(res.Span)

	tracePath := filepath.Join(dir, "quad.jsonl")
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "metrics.json")
	if err := os.WriteFile(snapPath, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return tracePath, snapPath, res
}

// TestRunFoldEndToEnd drives the fold subcommand with -csv and -metrics on
// a real instrumented run: the summary must agree with the Result, the
// metrics cross-check must pass, and the CSV must carry the full schema.
func TestRunFoldEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath, snapPath, res := writeQuadTrace(t, dir)
	csvPath := filepath.Join(dir, "series.csv")

	var stdout, stderr bytes.Buffer
	code := runFold(&stdout, &stderr, []string{
		"-window", "1", "-csv", csvPath, "-metrics", snapPath, tracePath,
	})
	if code != 0 {
		t.Fatalf("fold exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	want := fmt.Sprintf("offered=%d accepted=%d blocked=%d", res.Offered, res.Accepted, res.Blocked)
	if !strings.Contains(out, want) {
		t.Fatalf("summary missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "metrics cross-check") {
		t.Fatalf("metrics cross-check line missing:\n%s", out)
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Fatalf("csv has no data rows")
	}

	// A doctored snapshot must fail the cross-check with exit 1.
	var snap obs.Snapshot
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Blocked++
	doctored, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bad-metrics.json")
	if err := os.WriteFile(badPath, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := runFold(&stdout, &stderr, []string{"-metrics", badPath, tracePath}); code != 1 {
		t.Fatalf("doctored metrics: exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "metrics mismatch: blocked") {
		t.Fatalf("doctored metrics stderr: %s", stderr.String())
	}
}

// TestRunDiff covers the three diff outcomes: identical traces, diverging
// traces with first-line and window reporting, and bad arguments.
func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	tracePath, _, _ := writeQuadTrace(t, dir)

	var stdout, stderr bytes.Buffer
	if code := runDiff(&stdout, &stderr, []string{tracePath, tracePath}); code != 0 {
		t.Fatalf("identical diff exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "traces identical") {
		t.Fatalf("identical diff output: %s", stdout.String())
	}

	// Perturb one admitted event into a blocked one mid-stream.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	changed := -1
	for i, line := range lines {
		if i > len(lines)/2 && strings.Contains(line, `"call-admitted"`) {
			lines[i] = strings.Replace(line, `"call-admitted"`, `"call-blocked"`, 1)
			changed = i
			break
		}
	}
	if changed < 0 {
		t.Fatal("no admitted event found to perturb")
	}
	otherPath := filepath.Join(dir, "perturbed.jsonl")
	if err := os.WriteFile(otherPath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := runDiff(&stdout, &stderr, []string{"-window", "1", tracePath, otherPath}); code != 1 {
		t.Fatalf("diverging diff exit %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, fmt.Sprintf("first divergence at line %d", changed+1)) {
		t.Fatalf("diff output missing divergence line %d:\n%s", changed+1, out)
	}
	if !strings.Contains(out, "windows differ; first is window") {
		t.Fatalf("diff output missing window report:\n%s", out)
	}

	if code := runDiff(&stdout, &stderr, []string{tracePath}); code != 2 {
		t.Fatalf("one-file diff exit %d, want 2", code)
	}
}

// TestRunRegimes folds a synthetic bistable trace through the CLI and
// checks the shift report.
func TestRunRegimes(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	obs.Emit(sink, &obs.Event{Kind: obs.KindRunStart, Policy: "p", Seed: 9})
	// Three quiet windows, then six congested ones.
	for i := 0; i < 3; i++ {
		at := float64(i) + 0.5
		obs.Emit(sink, &obs.Event{Kind: obs.KindCallOffered, Time: at})
		obs.Emit(sink, &obs.Event{Kind: obs.KindCallAdmitted, Time: at, Hops: 1})
	}
	for i := 3; i < 9; i++ {
		at := float64(i) + 0.5
		obs.Emit(sink, &obs.Event{Kind: obs.KindCallOffered, Time: at})
		obs.Emit(sink, &obs.Event{Kind: obs.KindCallBlocked, Time: at})
	}
	obs.Emit(sink, &obs.Event{Kind: obs.KindRunEnd, Time: 9})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bistable.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := runRegimes(&stdout, &stderr, []string{"-window", "1", "-dwell", "2", path})
	if code != 0 {
		t.Fatalf("regimes exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "shifts=2") {
		t.Fatalf("regimes output missing shifts=2:\n%s", out)
	}
	if !strings.Contains(out, "unknown -> low") || !strings.Contains(out, "low -> high") {
		t.Fatalf("regimes output missing shift lines:\n%s", out)
	}
}
