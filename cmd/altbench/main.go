// Command altbench is the repository's benchmark: one program that runs
// the simulator, the paper's NSFNet sweep and the altd daemon on fixed,
// seeded workloads, checks their outputs, and prints every metric by name
// with its unit — end to end from an untraced run, layer by layer from a
// traced one (-trace 1). See README.md for the workloads and the metric
// map.
//
// Usage (from the repository root, see run.sh):
//
//	bash cmd/altbench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	                         [-spans file.jsonl] [-json report.json]
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// It exits nonzero when an output check fails or a workload cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them (see README.md for what each means per workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// perLayer is the traced run's table. Every workload reports every row;
// a layer its workload never exercises reads 0.
var perLayer = []metricSpec{
	{"sim.stream_new_ms", "ms"},
	{"sim.arrivals.ns_per_call", "ns"},
	{"sim.run.ns_per_call", "ns"},
	{"sim.run.allocs_per_run", "count"},
	{"sim.run.bytes_per_run", "B"},
	{"sim.alt_scan_share", "ratio"},
	{"sim.alt_success_ratio", "ratio"},
	{"ctrl.decide.ns", "ns"},
	{"ctrl.release.ns", "ns"},
	{"obs.emit.ns_per_event", "ns"},
	{"obs.events_per_call", "count"},
	{"timeseries.fold.ns_per_event", "ns"},
	{"policy.routes_s", "s"},
	{"core.eq15_ms", "ms"},
	{"core.scheme_ms", "ms"},
	{"estimate.rederive_ms", "ms"},
	{"ctrl.loop.us", "us"},
	{"ctrl.handoff.us", "us"},
	{"ctrl.handler.us", "us"},
	{"ctrl.codec.us", "us"},
	{"ctrl.http.allocs_per_request", "count"},
	{"sweep.runs_s", "s"},
	{"bound.erlang_ms", "ms"},
	{"experiments.sweep_seq_s", "s"},
	{"experiments.parallel_efficiency", "ratio"},
	{"sweep.layer_sum_ratio", "ratio"},
	{"metro.layer_sum_ratio", "ratio"},
	{"net.loopback.us", "us"},
	{"altd.refreshes", "count"},
	{"altd.recompiles", "count"},
	{"gen.late_p99_ms", "ms"},
	{"trace.clock_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spans    string
	jsonOut  string
	altd     string
	child    bool
}

// env is what a workload run receives.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer // nil for the untraced run
	ref     *reference
	altd    string // path of the built altd binary
	stderr  io.Writer
}

// check is one verified property of a workload's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload's report.
type result struct {
	Workload  string   `json:"workload"`
	E2E       []metric `json:"end_to_end,omitempty"`
	Detail    []metric `json:"detail,omitempty"`
	Layers    []metric `json:"per_layer,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []check  `json:"checks"`
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// setLayers turns a traced run's per-layer values into the result's full
// table, zero for layers the workload never exercised.
func (r *result) setLayers(vals map[string]float64) {
	for _, s := range perLayer {
		r.Layers = append(r.Layers, newMetric(s.name, s.unit, vals[s.name]))
	}
}

// workload is one named input set.
type workload struct {
	name string
	run  func(e *env) (*result, error)
	// child runs one set-up and one operation in a fresh process (see
	// children); nil for altd-wire, whose set-up and memory are the
	// daemon's.
	child func(seed int64) (childReport, error)
}

var workloads = []workload{
	{name: "nsfnet-replay", run: runReplay, child: childReplay},
	{name: "metro-stream", run: runMetro, child: childMetro},
	{name: "nsfnet-figure", run: runFigure, child: childFigure},
	{name: "altd-wire", run: runWire},
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("altbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "altbench-spans.jsonl"), "traced run: write the spans here as JSONL")
	fs.StringVar(&o.jsonOut, "json", "", "write every sample, quartile, check and the host to this file")
	fs.StringVar(&o.altd, "altd", filepath.Join(".bench_build", "altd"), "altd binary for the altd-wire workload")
	fs.BoolVar(&o.child, "child", false, "internal: run one set-up and one operation of -workload, print what it measured")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	return o, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "altbench:", err)
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	selected := workloads
	if o.workload != "" {
		w, _ := findWorkload(o.workload)
		selected = []workload{w}
	}
	e := &env{seed: o.seed, seconds: o.seconds, ref: newReference(), altd: o.altd, stderr: stderr}
	if o.trace == 1 {
		e.tr = newTracer()
	}
	var results []*result
	for _, w := range selected {
		fmt.Fprintf(stderr, "altbench: %s (seed %d, %gs, trace %d)\n", w.name, o.seed, o.seconds, o.trace)
		r, err := w.run(e)
		if err != nil {
			fmt.Fprintf(stderr, "altbench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, r)
		printTable(stdout, r)
	}
	if e.tr != nil {
		if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
			fmt.Fprintln(stderr, "altbench:", err)
			return 1
		}
		if err := e.tr.writeJSONL(o.spans); err != nil {
			fmt.Fprintln(stderr, "altbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", o.spans)
	}
	if o.jsonOut != "" {
		if err := writeReport(o, results); err != nil {
			fmt.Fprintln(stderr, "altbench: writing report:", err)
			return 1
		}
	}
	ok := summary(stdout, results, o.trace == 1, len(selected) > 1)
	if !ok {
		return 1
	}
	return 0
}

func printTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s\n", r.Workload)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "    %-34s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	section("end to end", r.E2E)
	section("detail", r.Detail)
	section("per layer", r.Layers)
	passed := 0
	for _, c := range r.Checks {
		if c.OK {
			passed++
		} else {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  checks %d/%d passed; %d of %d operations failed\n", passed, len(r.Checks), r.Failed, r.Attempted)
}

// summary prints the final machine-readable line. With several workloads
// the metric names are prefixed "workload:".
func summary(w io.Writer, results []*result, traced, prefix bool) bool {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		ms := r.E2E
		if traced {
			ms = r.Layers
		}
		for _, m := range ms {
			name := m.Name
			if prefix {
				name = r.Workload + ":" + name
			}
			out.Metrics[name] = val{m.Value, m.Unit}
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf value can fail here; that is a harness bug.
		fmt.Fprintln(w, `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
		return false
	}
	fmt.Fprintln(w, string(raw))
	return out.Correct && out.Failed == 0
}

func writeReport(o *options, results []*result) error {
	rep := struct {
		Host      host      `json:"host"`
		Seed      int64     `json:"seed"`
		Seconds   float64   `json:"seconds"`
		Trace     int       `json:"trace"`
		Date      string    `json:"date"`
		Workloads []*result `json:"workloads"`
	}{currentHost(), o.seed, o.seconds, o.trace, time.Now().UTC().Format(time.RFC3339), results}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.jsonOut, append(raw, '\n'), 0o644)
}

// children runs k child processes of the workload one after another and
// returns their reports, each with the host factor measured as it exited.
// Each is a fresh process, so its set-up is cold and its peak RSS is one
// set-up and one operation's. Each runs on one processor: a collector
// marking on a second core keeps pace with the allocations only as far as
// other tenants leave that core free, so the replay's peak moved between
// 69 and 132 MB, and at GOMAXPROCS=1 it stays within 0.5 MB.
func children(e *env, name string, k int) ([]childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []childReport
	for i := 0; i < k; i++ {
		cmd := exec.Command(self, "-child", "-workload", name, "-seed", strconv.FormatInt(e.seed, 10))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child process: %v: %s", err, stderr.String())
		}
		var rep childReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("child process report: %w", err)
		}
		rep.factor = e.ref.factor()
		reps = append(reps, rep)
	}
	return reps, nil
}

func runChild(o *options, stdout, stderr io.Writer) int {
	w, ok := findWorkload(o.workload)
	if !ok || w.child == nil {
		fmt.Fprintln(stderr, "altbench: -child needs a simulator workload")
		return 2
	}
	rep, err := w.child(o.seed)
	if err == nil {
		rep.RSSMB, err = vmHWM("self")
	}
	if err != nil {
		fmt.Fprintln(stderr, "altbench:", err)
		return 1
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "altbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

// repeat calls op until at least seconds have passed and it has run
// minReps times. An op error counts as a failed operation; the first one
// is returned alongside the counts.
func repeat(seconds float64, minReps int, op func(i int) error) (attempted, failed int, first error) {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < seconds; i++ {
		attempted++
		if err := op(i); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return attempted, failed, first
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
