// Package analysis implements altlint, the repository's static-analysis
// pass: a small, stdlib-only (go/ast + go/parser + go/types) analyzer
// framework plus the rules that turn the determinism, float-identity, and
// hot-path allocation contracts of DESIGN.md §8–9 and §14 into
// machine-checked invariants.
//
// The contract, in brief: the simulator's results must be bit-identical
// across runs and across refactors. That forbids ranging over maps into
// anything order-sensitive, consuming nondeterministic sources (wall clock,
// global RNG, environment) in result-bearing packages, and comparing floats
// for identity outside the sanctioned math.Float64bits cache-key pattern.
// The nondet-source and float-identity rules are interprocedural: a module
// call graph (see Module) propagates taint from helpers that transitively
// reach a source, so laundering through another package is still caught.
// Two structural rules ride on the same graph: goroutine-discipline bans
// raw go statements outside annotated bounded-pool spawn sites, and
// hotpath diffs the gc escape analysis of //altlint:hotpath functions
// against the checked-in lint_baseline.json. Each rule is an Analyzer;
// cmd/altlint drives them over package patterns and self_test.go keeps the
// repository itself clean.
//
// Findings can be suppressed with a line comment
//
//	//altlint:ignore <rule> <reason>
//
// on the flagged line or the line above it. The reason is mandatory: an
// ignore directive without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named rule: Run inspects a package and reports
// findings through the Pass.
type Analyzer struct {
	// Name is the rule identifier used in findings and ignore directives.
	Name string
	// Doc is a one-line description shown by `altlint -list`.
	Doc string
	// Run inspects pass.Pkg and calls pass.Report for each violation.
	Run func(pass *Pass)
}

// A Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule is the reporting analyzer's name.
	Rule string
	// Message describes the violation and the sanctioned alternative.
	Message string
}

// String renders the finding in the canonical file:line:col: rule: message
// form (column included so editors can jump precisely).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Mod is the module-wide view (call graph, annotations, baseline) the
	// interprocedural rules consult. It is shared across all passes of one
	// Run.
	Mod *Module

	analyzer *Analyzer
	report   func(Finding)
}

// Report records a finding at pos under the running analyzer's rule name.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.ReportAt(p.Pkg.Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an explicit source position — the form the
// hotpath rule uses for compiler-attributed escape sites, which have no
// token.Pos in the loaded file set.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Finding{
		Pos:     pos,
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "//altlint:ignore"

// ignoreRule is the pseudo-rule under which malformed ignore directives are
// reported; it cannot itself be suppressed.
const ignoreRule = "ignore-directive"

// suppression is one well-formed ignore directive.
type suppression struct {
	file string
	line int
	rule string
}

// collectSuppressions scans a package's comments for ignore directives.
// Malformed directives (missing rule or reason) are reported as findings.
func collectSuppressions(pkg *Package, report func(Finding)) map[suppression]bool {
	out := make(map[suppression]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnoreDirective)
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					report(Finding{
						Pos:     pos,
						Rule:    ignoreRule,
						Message: fmt.Sprintf("malformed %s directive: want %q", IgnoreDirective, IgnoreDirective+" <rule> <reason>"),
					})
					continue
				}
				out[suppression{file: pos.Filename, line: pos.Line, rule: fields[0]}] = true
			}
		}
	}
	return out
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. A finding is dropped when a well-formed
// ignore directive for its rule sits on the same line or the line above.
// Run uses an empty hotpath baseline; drivers with a checked-in baseline
// use RunOpts.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunOpts(pkgs, analyzers, nil)
}

// RunOpts is Run with an explicit hotpath baseline (nil means empty: every
// escape in an annotated function is a finding).
func RunOpts(pkgs []*Package, analyzers []*Analyzer, baseline *Baseline) []Finding {
	mod := NewModule(pkgs, baseline)
	findings := append([]Finding(nil), mod.directiveFindings...)
	for _, pkg := range pkgs {
		collect := func(f Finding) { findings = append(findings, f) }
		sup := collectSuppressions(pkg, collect)
		suppressed := func(f Finding) bool {
			if f.Rule == ignoreRule {
				return false
			}
			k := suppression{file: f.Pos.Filename, rule: f.Rule}
			for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
				k.line = line
				if sup[k] {
					return true
				}
			}
			return false
		}
		for _, a := range analyzers {
			pass := &Pass{
				Pkg:      pkg,
				Mod:      mod,
				analyzer: a,
				report: func(f Finding) {
					if !suppressed(f) {
						findings = append(findings, f)
					}
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	// Nested constructs (a map range inside a map range) can report the same
	// violation twice; keep one finding per (position, rule).
	dedup := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup
}

// All returns the full rule set in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		NondetSource,
		FloatIdentity,
		SinkDiscipline,
		DocCoverage,
		GoroutineDiscipline,
		Hotpath,
	}
}

// deterministicPackages lists the import paths whose computations feed
// results and therefore fall under the determinism contract (DESIGN.md §9).
var deterministicPackages = map[string]bool{
	"repro/internal/sim":         true,
	"repro/internal/erlang":      true,
	"repro/internal/core":        true,
	"repro/internal/policy":      true,
	"repro/internal/routetable":  true,
	"repro/internal/experiments": true,
	// ctrl serves live admissions through the same compiled tables the
	// simulator replays; a nondeterministic decision path would break the
	// replay-equivalence contract (DESIGN.md §16). Its clock is injected
	// and it starts no goroutine: one lock serializes the decisions.
	"repro/internal/ctrl":           true,
	"repro/internal/obs":            true,
	"repro/internal/obs/timeseries": true,
	// benchguard gates merges on its verdicts; a nondeterministic guard
	// would make CI outcomes unreproducible.
	"repro/cmd/benchguard": true,
}

// fixturePrefix marks the analyzer test fixtures, which opt in to every
// package-scoped rule so each rule can be exercised in isolation. Fixture
// packages whose path ends in "helper" opt back out: they model the
// non-deterministic packages the interprocedural taint rules trace
// through (a fixture needs both sides of the boundary).
const fixturePrefix = "repro/internal/analysis/testdata/"

// isDeterministic reports whether the determinism rules apply to pkgPath.
func isDeterministic(pkgPath string) bool {
	if strings.HasPrefix(pkgPath, fixturePrefix) {
		return !strings.HasSuffix(pkgPath, "helper")
	}
	return deterministicPackages[pkgPath]
}

// facadePackages lists the packages whose exported API must be documented
// (doc-coverage): the public facade, the numerically load-bearing
// internals, and the CI gatekeeper.
var facadePackages = map[string]bool{
	"repro":                         true,
	"repro/internal/erlang":         true,
	"repro/internal/sim":            true,
	"repro/internal/obs/timeseries": true,
	"repro/cmd/benchguard":          true,
}

// needsDocs reports whether doc-coverage applies to pkgPath.
func needsDocs(pkgPath string) bool {
	return facadePackages[pkgPath] || strings.HasPrefix(pkgPath, fixturePrefix)
}

// inspectAll walks every file of the pass's package.
func inspectAll(pass *Pass, visit func(ast.Node) bool) {
	inspectFiles(pass.Pkg, visit)
}

// inspectFiles walks every file of a package.
func inspectFiles(pkg *Package, visit func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, visit)
	}
}
