// benchguard is the CI throughput tripwire: it reads `go test -bench`
// output on stdin and checks it against the performance ledger, BENCH.json.
//
//	go test -run '^$' -bench BenchmarkRunCalls -benchmem . | benchguard -ledger BENCH.json
//
// Every `Benchmark…` line is parsed into (name, unit, value) observations.
// Every ledger record that carries a max_regress budget is then guarded:
// the best observation of its benchmark and metric — the highest when the
// record's better is "higher", the lowest when "lower" — must stay within
// max_regress of the best recorded sample. A budgeted record with no
// observation in the input fails the guard, so it cannot pass vacuously;
// records without a budget are history and are not checked.
//
// A record may name a denominator benchmark in "per" (for example
// "per": "BenchmarkRunBare"). It is then guarded as a ratio, not as an
// absolute value: the median observation of the record divided by the
// median observation of the denominator's same metric, both from the same
// input, must stay within max_regress of the same ratio of their recorded
// medians. Host speed cancels out of such a ratio, so it can carry a
// budget tight enough to catch a cost that a host-dependent absolute floor
// would hide in noise. Medians, not bests, because the two bests of a
// noisy input can come from different spells of the host, while the
// medians of benchmarks run in alternating rounds track the same ones. The
// denominator needs its own record of that metric in the ledger, and a
// missing denominator observation fails like a missing record.
//
// The input is echoed to stdout unchanged so CI logs keep the full
// benchmark output, and one verdict per budgeted record goes to stderr.
// Exit status: 0 pass, 1 a guarded record regressed or is missing, 2 the
// ledger or the input is unusable. Best-of-count comparison plus generous
// budgets make the guard robust to the noise of short -benchtime runs; it
// is a tripwire for large regressions, not a precision benchmark —
// re-record the ledger from a full `make bench` when the engine changes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ledger is BENCH.json: the command and host that recorded it and one
// record per (benchmark, metric).
type ledger struct {
	Command string   `json:"command"`
	Host    host     `json:"host"`
	Records []record `json:"records"`
}

// host describes where and from what source every record was taken.
type host struct {
	CPU        string `json:"cpu"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

// record is one recorded metric of one benchmark. Benchmark is the full
// go-bench name with its sub-benchmarks and without the -<GOMAXPROCS>
// suffix; Metric is the go-bench unit.
type record struct {
	Benchmark  string    `json:"benchmark"`
	Package    string    `json:"package"`
	Layer      string    `json:"layer"`
	Metric     string    `json:"metric"`
	Better     string    `json:"better"`
	Samples    []float64 `json:"samples"`
	MaxRegress *float64  `json:"max_regress,omitempty"`
	// Per, when set, names the benchmark whose same-metric record is the
	// denominator this record is guarded against (see the package doc).
	Per string `json:"per,omitempty"`
}

// key names a (benchmark, unit) pair in both the ledger and the input.
type key struct{ bench, unit string }

func (r record) key() key { return key{r.Benchmark, r.Metric} }

// perKey names the record's denominator.
func (r record) perKey() key { return key{r.Per, r.Metric} }

// higher reports whether larger values of the record's metric are better.
func (r record) higher() bool { return r.Better == "higher" }

// best returns the best of vals in the record's direction.
func (r record) best(vals []float64) float64 {
	b := vals[0]
	for _, v := range vals[1:] {
		if (r.higher() && v > b) || (!r.higher() && v < b) {
			b = v
		}
	}
	return b
}

// median returns the middle of vals, or the mean of the two middles of an
// even count.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// readLedger decodes and validates a ledger: every record names its
// benchmark and metric once, says which direction is better, and has
// finite non-negative samples; a budget is a fraction in [0, 1); a
// denominator is another record of the same metric whose median sample is
// positive. Unknown fields are refused, so a misspelt max_regress cannot
// drop a guard.
func readLedger(data []byte) (*ledger, error) {
	var l ledger
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return nil, err
	}
	if len(l.Records) == 0 {
		return nil, fmt.Errorf("no records")
	}
	seen := make(map[key]bool, len(l.Records))
	for i, r := range l.Records {
		if r.Benchmark == "" || r.Metric == "" {
			return nil, fmt.Errorf("record %d: benchmark and metric are required", i)
		}
		if seen[r.key()] {
			return nil, fmt.Errorf("record %d: %s %s recorded twice", i, r.Benchmark, r.Metric)
		}
		seen[r.key()] = true
		if r.Better != "higher" && r.Better != "lower" {
			return nil, fmt.Errorf("%s %s: better is %q, want higher or lower", r.Benchmark, r.Metric, r.Better)
		}
		if len(r.Samples) == 0 {
			return nil, fmt.Errorf("%s %s: no samples", r.Benchmark, r.Metric)
		}
		for _, v := range r.Samples {
			if !(v >= 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s %s: sample %v is not a finite non-negative number", r.Benchmark, r.Metric, v)
			}
		}
		if f := r.MaxRegress; f != nil && !(*f >= 0 && *f < 1) {
			return nil, fmt.Errorf("%s %s: max_regress %v must be a fraction in [0, 1)", r.Benchmark, r.Metric, *f)
		}
	}
	for _, r := range l.Records {
		if r.Per == "" {
			continue
		}
		den, ok := l.find(r.perKey())
		if !ok || r.Per == r.Benchmark {
			return nil, fmt.Errorf("%s %s: per %q names no other record of %s", r.Benchmark, r.Metric, r.Per, r.Metric)
		}
		if median(den.Samples) == 0 {
			return nil, fmt.Errorf("%s %s: denominator %s has a zero median sample", r.Benchmark, r.Metric, r.Per)
		}
	}
	return &l, nil
}

// find returns the record of k.
func (l *ledger) find(k key) (record, bool) {
	for _, r := range l.Records {
		if r.key() == k {
			return r, true
		}
	}
	return record{}, false
}

// benchName strips the -<GOMAXPROCS> suffix go test appends to a
// benchmark name when GOMAXPROCS > 1. Only a trailing dash followed by
// digits is a suffix: "BenchmarkNewStream/nsfnet-drain" is a whole name.
func benchName(field string) string {
	i := strings.LastIndexByte(field, '-')
	if i < 0 || i == len(field)-1 {
		return field
	}
	for _, c := range field[i+1:] {
		if c < '0' || c > '9' {
			return field
		}
	}
	return field[:i]
}

// parseBench scans benchmark output, echoing every line to echo, and
// returns every (value) observed per (benchmark, unit). A result line is
// "<name> <iterations> <value> <unit> [<value> <unit>]…"; other lines,
// including ones that merely start with "Benchmark", are skipped.
func parseBench(r io.Reader, echo io.Writer) (map[key][]float64, error) {
	obs := make(map[key][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := benchName(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			k := key{name, fields[i+1]}
			obs[k] = append(obs[k], v)
		}
	}
	return obs, sc.Err()
}

// check holds every budgeted record's best observation to its budget and
// returns one verdict line per budgeted record plus the overall pass/fail.
func check(l *ledger, obs map[key][]float64) ([]string, bool) {
	var lines []string
	ok := true
	for _, r := range l.Records {
		if r.MaxRegress == nil {
			continue
		}
		name := r.Benchmark + " " + r.Metric
		vals, seen := obs[r.key()]
		if !seen {
			lines = append(lines, fmt.Sprintf("benchguard: %s: FAIL (no result in input)", name))
			ok = false
			continue
		}
		base, got, what := r.best(r.Samples), r.best(vals), "recorded best"
		if r.Per != "" {
			name += " per " + r.Per
			den, _ := l.find(r.perKey())
			denVals, seen := obs[r.perKey()]
			if !seen {
				lines = append(lines, fmt.Sprintf("benchguard: %s: FAIL (no %s result in input)", name, r.Per))
				ok = false
				continue
			}
			base = median(r.Samples) / median(den.Samples)
			got = median(vals) / median(denVals)
			what = "recorded median ratio"
		}
		verdict := "ok"
		if r.higher() {
			if floor := base * (1 - *r.MaxRegress); got < floor {
				verdict = fmt.Sprintf("FAIL (below the %.0f%% floor %.4g)", 100*(1-*r.MaxRegress), floor)
				ok = false
			}
		} else if ceiling := base * (1 + *r.MaxRegress); got > ceiling {
			verdict = fmt.Sprintf("FAIL (above the %.0f%% ceiling %.4g)", 100*(1+*r.MaxRegress), ceiling)
			ok = false
		}
		delta := "n/a"
		if base != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(got/base-1))
		}
		lines = append(lines, fmt.Sprintf("benchguard: %s: %.4g vs %s %.4g (%s): %s", name, got, what, base, delta, verdict))
	}
	return lines, ok
}

// run is main with its process surroundings passed in; it returns the
// exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("ledger", "BENCH.json", "performance ledger to check against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(*ledgerPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchguard:", err)
		return 2
	}
	l, err := readLedger(data)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %s: %v\n", *ledgerPath, err)
		return 2
	}
	obs, err := parseBench(stdin, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchguard:", err)
		return 2
	}
	lines, ok := check(l, obs)
	for _, line := range lines {
		fmt.Fprintln(stderr, line)
	}
	if !ok {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
