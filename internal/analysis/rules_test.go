package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantPrefix marks an expected finding in a fixture: `// want <rule>` on
// the flagged line.
const wantPrefix = "// want "

// expectation is one anticipated finding: by (file base name, line) when
// Line > 0, otherwise by message substring.
type expectation struct {
	File    string
	Line    int
	Rule    string
	Message string
}

// collectWants scans a fixture package's comments for want markers.
func collectWants(pkg *analysis.Package) []expectation {
	var out []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, wantPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, expectation{
					File: base(pos.Filename),
					Line: pos.Line,
					Rule: strings.TrimSpace(strings.TrimPrefix(c.Text, wantPrefix)),
				})
			}
		}
	}
	return out
}

func base(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// runFixture loads testdata/src/<dir>, runs one analyzer, and checks the
// findings against the fixture's want markers plus any extra expectations.
func runFixture(t *testing.T, dir string, a *analysis.Analyzer, extra ...expectation) {
	t.Helper()
	runFixturePattern(t, dir, []*analysis.Analyzer{a}, nil, extra...)
}

// runFixturePattern is runFixture generalized to multi-package patterns
// (the interprocedural fixtures span a deterministic package and a tainted
// helper), several analyzers at once, and an explicit hotpath baseline.
func runFixturePattern(t *testing.T, pattern string, analyzers []*analysis.Analyzer, baseline *analysis.Baseline, extra ...expectation) {
	t.Helper()
	dir := pattern
	pkgs, err := analysis.Load("", "./testdata/src/"+pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: loaded zero packages", dir)
	}
	findings := analysis.RunOpts(pkgs, analyzers, baseline)
	var expected []expectation
	for _, pkg := range pkgs {
		expected = append(expected, collectWants(pkg)...)
	}
	expected = append(expected, extra...)

	matched := make([]bool, len(findings))
	for _, want := range expected {
		found := false
		for i, f := range findings {
			if matched[i] || f.Rule != want.Rule {
				continue
			}
			if want.Line > 0 {
				if base(f.Pos.Filename) != want.File || f.Pos.Line != want.Line {
					continue
				}
			} else if !strings.Contains(f.Message, want.Message) {
				continue
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("fixture %s: missing expected finding %+v\ngot: %s", dir, want, renderFindings(findings))
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("fixture %s: unexpected finding %s", dir, f)
		}
	}
}

func renderFindings(fs []analysis.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}

func TestMapOrderRule(t *testing.T) {
	runFixture(t, "maporder", analysis.MapOrder)
}

func TestNondetSourceRule(t *testing.T) {
	runFixture(t, "nondet", analysis.NondetSource)
}

func TestFloatIdentityRule(t *testing.T) {
	runFixture(t, "floateq", analysis.FloatIdentity)
}

func TestSinkDisciplineRule(t *testing.T) {
	runFixture(t, "sinkdiscipline", analysis.SinkDiscipline)
}

func TestDocCoverageRule(t *testing.T) {
	runFixture(t, "doccov", analysis.DocCoverage,
		expectation{Rule: "doc-coverage", Message: "type Bare is undocumented"})
}

// TestIgnoreRequiresReason checks that a bare ignore directive is itself a
// finding and suppresses nothing.
func TestIgnoreRequiresReason(t *testing.T) {
	runFixture(t, "badignore", analysis.NondetSource,
		expectation{Rule: "ignore-directive", Message: "malformed"})
}

// TestInterproceduralTaint checks the helper-laundering hole: the taint
// fixture's deterministic package calls into a "helper" package whose
// functions transitively reach time.Now or perform float-identity
// comparisons, and each call site is a finding with a provenance chain,
// while nondet-ok-annotated helpers and callers stay clean.
func TestInterproceduralTaint(t *testing.T) {
	runFixturePattern(t, "taint/...",
		[]*analysis.Analyzer{analysis.NondetSource, analysis.FloatIdentity}, nil)
}

// TestTaintProvenanceChain pins the message format: the finding names the
// source and the call chain through the helper.
func TestTaintProvenanceChain(t *testing.T) {
	pkgs, err := analysis.Load("", "./testdata/src/taint/...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := analysis.Run(pkgs, []*analysis.Analyzer{analysis.NondetSource})
	found := false
	for _, f := range findings {
		if strings.Contains(f.Message, "time.Now") &&
			strings.Contains(f.Message, "clockhelper.Tag → clockhelper.Stamp") {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding carries the time.Now provenance chain; got:%s", renderFindings(findings))
	}
}

// TestGoroutineDisciplineRule checks that raw go statements are findings
// and spawn-ok-annotated pool functions are not.
func TestGoroutineDisciplineRule(t *testing.T) {
	runFixture(t, "goroutine", analysis.GoroutineDiscipline)
}

// TestHotpathRule compiles the hotpath fixture with escape analysis: with
// an empty baseline the annotated function's allocation is a finding.
func TestHotpathRule(t *testing.T) {
	runFixture(t, "hotpath", analysis.Hotpath)
}

// TestHotpathBaselineSanctions checks the other half of the contract: a
// baseline listing the observed escape silences the finding, and the
// baseline builder records an explicit empty set for clean functions.
func TestHotpathBaselineSanctions(t *testing.T) {
	pkgs, err := analysis.Load("", "./testdata/src/hotpath")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	hp, err := analysis.HotpathBaseline(pkgs)
	if err != nil {
		t.Fatalf("collecting baseline: %v", err)
	}
	const grow = "repro/internal/analysis/testdata/src/hotpath.Grow"
	const sum = "repro/internal/analysis/testdata/src/hotpath.Sum"
	if len(hp[grow]) == 0 {
		t.Fatalf("baseline for Grow is empty, want its make escape; got %v", hp)
	}
	if msgs, ok := hp[sum]; !ok || len(msgs) != 0 {
		t.Errorf("baseline for Sum = %v, %v; want explicit empty set", msgs, ok)
	}
	findings := analysis.RunOpts(pkgs, []*analysis.Analyzer{analysis.Hotpath}, &analysis.Baseline{Hotpath: hp})
	if len(findings) > 0 {
		t.Errorf("findings against the self-derived baseline:%s", renderFindings(findings))
	}
}

// TestHotpathStaleBaseline checks the reverse diff: sanctions nothing uses
// any more are findings — a key for a function that does not exist, a key
// for a function without the annotation, and a sanctioned escape that no
// longer occurs — while a key for a package outside the analysed set is
// left alone.
func TestHotpathStaleBaseline(t *testing.T) {
	pkgs, err := analysis.Load("", "./testdata/src/hotpath")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	hp, err := analysis.HotpathBaseline(pkgs)
	if err != nil {
		t.Fatalf("collecting baseline: %v", err)
	}
	const pkg = "repro/internal/analysis/testdata/src/hotpath"
	hp[pkg+".Gone"] = []string{}
	hp[pkg+".Cold"] = []string{}
	hp[pkg+".Sum"] = []string{"total escapes to heap"}
	hp["repro/internal/analysis/testdata/src/hotpathother.Elsewhere"] = []string{}
	findings := analysis.RunOpts(pkgs, []*analysis.Analyzer{analysis.Hotpath}, &analysis.Baseline{Hotpath: hp})
	want := []string{
		"stale baseline entry hotpath.Cold: no //altlint:hotpath function",
		"stale baseline entry hotpath.Gone: no //altlint:hotpath function",
		`stale baseline sanction for hotpath function hotpath.Sum: "total escapes to heap" no longer occurs`,
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:%s", len(findings), len(want), renderFindings(findings))
	}
	for _, w := range want {
		found := false
		for _, f := range findings {
			if f.Rule == "hotpath" && strings.Contains(f.Message, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing finding %q; got:%s", w, renderFindings(findings))
		}
	}
}

// TestSuppressionEdgeCases covers the directive corner cases: ignores
// above multi-line statements (anchored to the finding's line, not the
// statement), duplicated directives, directives inside generated files,
// and malformed function annotations.
func TestSuppressionEdgeCases(t *testing.T) {
	runFixture(t, "suppress", analysis.NondetSource,
		expectation{Rule: "ignore-directive", Message: `unknown altlint directive "frobnicate"`},
		expectation{Rule: "ignore-directive", Message: "altlint:nondet-ok directive requires a reason"})
}

// TestFindingStringIncludesColumn pins the file:line:col rendering the
// fixture matcher and editors rely on.
func TestFindingStringIncludesColumn(t *testing.T) {
	f := analysis.Finding{Rule: "nondet-source", Message: "m"}
	f.Pos.Filename = "a.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "a.go:3:7: nondet-source: m"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}
