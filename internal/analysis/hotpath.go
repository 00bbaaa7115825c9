package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Hotpath machine-checks the zero-allocation contract of the simulator's
// hot path: functions annotated `//altlint:hotpath` (sim.Run, loop.run,
// the departure queue, obs.Emit, the timeseries fold) are compiled with the
// gc escape analysis enabled (`go build -gcflags=-m=2`) and every heap
// escape or closure allocation attributed inside an annotated function is
// diffed against the checked-in lint_baseline.json. A new escape is a
// finding at its source position; a sanctioned one is a one-line baseline
// diff (`BASELINE_UPDATE=1 make lint`), not prose in a review thread.
//
// The rule checks allocation *sites*, not allocation *rates*: an escape
// the compiler proves reachable once per run (setup in sim.Run) and one
// per call are both recorded, and the baseline freezes the exact set so
// any regression — a variable newly moved to heap, a closure that starts
// escaping, an interface boxing introduced by a refactor — shows up as a
// diff against the recorded state. The diff runs both ways: a key for a
// function that is gone or unannotated, or a sanctioned escape that no
// longer occurs, is a stale sanction and a finding too (keys are judged
// only for the packages under analysis).
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "escape-analysis diff for //altlint:hotpath functions against lint_baseline.json",
	Run:  runHotpath,
}

// Baseline is the checked-in sanctioned-findings file (lint_baseline.json).
type Baseline struct {
	// Hotpath maps an annotated function's key (see FuncInfo.Key) to the
	// sorted multiset of its sanctioned escape-analysis messages.
	Hotpath map[string][]string `json:"hotpath"`
}

// LoadBaseline reads a baseline file written by `altlint -update-baseline`.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("analysis: parsing baseline %s: %v", path, err)
	}
	return &b, nil
}

// HotpathBaseline compiles the annotated packages and returns the current
// escape multiset per annotated function — the content `altlint
// -update-baseline` writes.
func HotpathBaseline(pkgs []*Package) (map[string][]string, error) {
	m := NewModule(pkgs, nil)
	esc, err := m.hotpathEscapes()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(esc))
	for key, diags := range esc {
		msgs := make([]string, len(diags))
		for i, d := range diags {
			msgs[i] = d.Msg
		}
		sort.Strings(msgs)
		out[key] = msgs
	}
	// Annotated functions with zero escapes still get an entry: the empty
	// list is the contract ("this function allocates nothing"), and its
	// disappearance from the baseline would otherwise be silent.
	for _, key := range m.keys {
		fi := m.funcs[key]
		if _, ok := fi.Ann["hotpath"]; ok {
			if _, ok := out[key]; !ok {
				out[key] = []string{}
			}
		}
	}
	return out, nil
}

// escapeDiag is one escape-analysis diagnostic attributed to an annotated
// function.
type escapeDiag struct {
	File      string
	Line, Col int
	Msg       string
}

// runHotpath diffs the escape set of this package's annotated functions
// against the baseline, in both directions.
func runHotpath(pass *Pass) {
	m := pass.Mod
	reportStaleKeys(pass)
	annotated := make([]*FuncInfo, 0, 4)
	for _, fi := range m.funcsOf(pass.Pkg) {
		if _, ok := fi.Ann["hotpath"]; ok {
			annotated = append(annotated, fi)
		}
	}
	if len(annotated) == 0 {
		return
	}
	esc, err := m.hotpathEscapes()
	if err != nil {
		if !m.escErrRep {
			m.escErrRep = true
			pass.Report(annotated[0].Decl.Pos(), "escape analysis failed: %v", err)
		}
		return
	}
	for _, fi := range annotated {
		var sanctioned []string
		if m.Baseline != nil {
			sanctioned = m.Baseline.Hotpath[fi.Key]
		}
		remaining := make(map[string]int, len(sanctioned))
		for _, msg := range sanctioned {
			remaining[msg]++
		}
		for _, d := range esc[fi.Key] {
			if remaining[d.Msg] > 0 {
				remaining[d.Msg]--
				continue
			}
			pass.ReportAt(token.Position{Filename: d.File, Line: d.Line, Column: d.Col},
				"new heap escape in hotpath function %s: %s (sanction it with BASELINE_UPDATE=1 make lint if deliberate)",
				displayKey(fi.Key), d.Msg)
		}
		for _, msg := range sanctioned {
			if remaining[msg] > 0 {
				remaining[msg]--
				pass.Report(fi.Decl.Pos(),
					"stale baseline sanction for hotpath function %s: %q no longer occurs (drop it with BASELINE_UPDATE=1 make lint)",
					displayKey(fi.Key), msg)
			}
		}
	}
}

// reportStaleKeys flags this package's baseline keys that name no
// //altlint:hotpath function: it was renamed, deleted, or unannotated.
func reportStaleKeys(pass *Pass) {
	var keys []string
	if b := pass.Mod.Baseline; b != nil {
		for key := range b.Hotpath {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		var pos token.Pos
		if fi := pass.Mod.funcs[key]; fi != nil {
			if _, ok := fi.Ann["hotpath"]; ok || fi.Pkg != pass.Pkg {
				continue
			}
			pos = fi.Decl.Pos()
		} else if rest, ok := strings.CutPrefix(key, pass.Pkg.PkgPath+"."); !ok || strings.Contains(rest, "/") {
			continue // a key's package is its path up to the first dot after the last slash
		} else if len(pass.Pkg.Files) > 0 {
			pos = pass.Pkg.Files[0].Package
		}
		pass.Report(pos, "stale baseline entry %s: no //altlint:hotpath function by that name (drop it with BASELINE_UPDATE=1 make lint)",
			displayKey(key))
	}
}

// hotpathEscapes compiles every package containing a //altlint:hotpath
// annotation under -gcflags=-m=2 and returns the escape diagnostics
// attributed to annotated functions, keyed by function. Computed once per
// Module; the go build cache replays compiler diagnostics, so repeated
// runs over an unchanged tree cost one cache probe, not a recompile.
func (m *Module) hotpathEscapes() (map[string][]escapeDiag, error) {
	if m.escDone {
		return m.escapes, m.escErr
	}
	m.escDone = true
	m.escapes, m.escErr = m.collectEscapes()
	return m.escapes, m.escErr
}

// fnInterval is one annotated function's source extent.
type fnInterval struct {
	start, end int // line range, inclusive
	key        string
}

func (m *Module) collectEscapes() (map[string][]escapeDiag, error) {
	// Gather the annotated functions' packages and source intervals.
	pkgSet := make(map[string]bool)
	intervals := make(map[string][]fnInterval) // abs file -> intervals
	dir := ""
	for _, key := range m.keys {
		fi := m.funcs[key]
		if _, ok := fi.Ann["hotpath"]; !ok {
			continue
		}
		pkgSet[fi.Pkg.PkgPath] = true
		if dir == "" {
			dir = fi.Pkg.Dir
		}
		start := fi.Pkg.Fset.Position(fi.Decl.Pos())
		end := fi.Pkg.Fset.Position(fi.Decl.End())
		intervals[start.Filename] = append(intervals[start.Filename],
			fnInterval{start: start.Line, end: end.Line, key: key})
	}
	if len(pkgSet) == 0 {
		return nil, nil
	}
	pkgPaths := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgPaths = append(pkgPaths, p)
	}
	sort.Strings(pkgPaths)

	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m=2"}, pkgPaths...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 %s: %v\n%s",
			strings.Join(pkgPaths, " "), err, tail(stderr.String(), 20))
	}

	out := make(map[string][]escapeDiag)
	seen := make(map[escapeDiag]bool)
	for _, line := range strings.Split(stderr.String(), "\n") {
		d, ok := parseEscapeLine(line)
		if !ok {
			continue
		}
		d.File = resolveEscapeFile(d.File, dir, intervals)
		if seen[d] {
			continue // -m=2 emits each escape twice (headline + summary)
		}
		seen[d] = true
		for _, iv := range intervals[d.File] {
			if d.Line >= iv.start && d.Line <= iv.end {
				out[iv.key] = append(out[iv.key], d)
				break
			}
		}
	}
	for _, diags := range out {
		sort.Slice(diags, func(i, j int) bool {
			a, b := diags[i], diags[j]
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			if a.Col != b.Col {
				return a.Col < b.Col
			}
			return a.Msg < b.Msg
		})
	}
	return out, nil
}

// resolveEscapeFile maps a diagnostic's file path to the loaded source
// file it names. Paths are normally relative to the build's working
// directory, but the go build cache replays compiler diagnostics verbatim
// from the compile that produced them — including paths relative to *that*
// compile's directory. When the joined path matches no annotated file, a
// unique path-suffix match against the annotated files recovers the right
// one; an ambiguous or absent suffix falls back to the joined form (the
// diagnostic is then simply unattributed, never misattributed).
func resolveEscapeFile(file, dir string, intervals map[string][]fnInterval) string {
	if filepath.IsAbs(file) {
		return file
	}
	joined := filepath.Clean(filepath.Join(dir, file))
	if _, ok := intervals[joined]; ok {
		return joined
	}
	tail := file
	for {
		if rest, ok := strings.CutPrefix(tail, "../"); ok {
			tail = rest
			continue
		}
		if rest, ok := strings.CutPrefix(tail, "./"); ok {
			tail = rest
			continue
		}
		break
	}
	match := ""
	for known := range intervals {
		if strings.HasSuffix(known, "/"+tail) {
			if match != "" {
				return joined // ambiguous
			}
			match = known
		}
	}
	if match != "" {
		return match
	}
	return joined
}

// parseEscapeLine extracts an allocation-relevant diagnostic from one line
// of -m=2 output: `file.go:line:col: msg` where msg reports a heap escape
// ("x escapes to heap", "moved to heap: x", "func literal escapes to
// heap"). Inlining reports, non-escape proofs, and the indented flow
// explanations -m=2 appends under each escape are all skipped.
func parseEscapeLine(line string) (escapeDiag, bool) {
	var d escapeDiag
	if line == "" || line[0] == '#' || line[0] == ' ' || line[0] == '\t' {
		return d, false
	}
	rest := line
	ext := strings.Index(rest, ".go:")
	if ext < 0 {
		return d, false
	}
	file := rest[:ext+3]
	rest = rest[ext+4:]
	c1 := strings.IndexByte(rest, ':')
	if c1 < 0 {
		return d, false
	}
	lineNo, err := strconv.Atoi(rest[:c1])
	if err != nil {
		return d, false
	}
	rest = rest[c1+1:]
	c2 := strings.IndexByte(rest, ':')
	if c2 < 0 {
		return d, false
	}
	colNo, err := strconv.Atoi(rest[:c2])
	if err != nil {
		return d, false
	}
	msg := strings.TrimPrefix(rest[c2+1:], " ")
	if msg == "" || msg[0] == ' ' { // indented flow explanation
		return d, false
	}
	msg = strings.TrimSuffix(msg, ":")
	escapes := strings.HasSuffix(msg, "escapes to heap") && !strings.Contains(msg, "does not escape")
	moved := strings.HasPrefix(msg, "moved to heap:")
	if !escapes && !moved {
		return d, false
	}
	return escapeDiag{File: file, Line: lineNo, Col: colNo, Msg: msg}, true
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
