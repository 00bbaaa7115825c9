package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Module is the whole-program view the interprocedural rules operate on: a
// lightweight intra-module call graph over every loaded package's
// go/types info, plus the function-level altlint annotations and the
// hotpath escape baseline. It is built once per analysis.Run and shared by
// every pass.
//
// The graph records statically resolved calls only — direct calls to
// named functions and methods. Calls through function values, interface
// methods, and `defer`/`go` of bound method values are not edges; the
// determinism contract is enforced on concrete code, and the dynamic
// dispatch points of this codebase (Policy.Route, obs.Sink.Event) are
// governed by their own rules.
type Module struct {
	// Pkgs are the loaded root packages, in load order.
	Pkgs []*Package
	// Baseline is the sanctioned-escape baseline the hotpath rule diffs
	// against; nil means an empty baseline (every escape is a finding).
	Baseline *Baseline

	funcs map[string]*FuncInfo
	keys  []string // sorted keys of funcs

	// directiveFindings are malformed function-level annotations, reported
	// by Run under the ignore-directive pseudo-rule.
	directiveFindings []Finding

	// Lazily computed analyses, shared across passes.
	tiebreaks map[*Package]map[*ast.BinaryExpr]bool
	nondet    map[string]*taintInfo
	float     map[string]*taintInfo
	escapes   map[string][]escapeDiag
	escDone   bool
	escErr    error
	escErrRep bool
}

// FuncInfo is one declared function or method in the call graph.
type FuncInfo struct {
	// Key canonically names the function: pkgpath.Name for functions,
	// pkgpath.Recv.Name for methods (receiver base type, pointer stripped).
	// Baseline entries and taint chains use this form.
	Key string
	// Pkg is the defining package; Decl its declaration.
	Pkg  *Package
	Decl *ast.FuncDecl
	// Ann maps annotation verbs ("hotpath", "nondet-ok", "float-ok",
	// "spawn-ok") to their reason text ("" for verbs that take none).
	Ann map[string]string
	// Calls are the statically resolved calls in the body, in source order,
	// restricted to functions defined in a loaded package.
	Calls []CallSite
}

// CallSite is one resolved call edge from a FuncInfo.
type CallSite struct {
	// Key is the callee's FuncInfo key; PkgPath its defining package.
	Key     string
	PkgPath string
	// Pos locates the call expression for findings.
	Pos token.Pos
}

// annotationVerbs lists the recognized function-level directives and
// whether a reason is mandatory. `//altlint:ignore` is positional (handled
// by collectSuppressions) and deliberately absent.
var annotationVerbs = map[string]bool{
	"hotpath":   false, // mark a zero-alloc hot-path function for escape checking
	"nondet-ok": true,  // sanction a nondeterminism sink (cuts nondet taint)
	"float-ok":  true,  // sanction a float-identity user (cuts float taint)
	"spawn-ok":  true,  // sanction a bounded goroutine pool's spawn site
}

// NewModule builds the call graph and annotation tables over pkgs.
func NewModule(pkgs []*Package, baseline *Baseline) *Module {
	m := &Module{Pkgs: pkgs, Baseline: baseline, funcs: make(map[string]*FuncInfo)}
	// Pass 1: declare every function so cross-package edges resolve.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Key: funcKey(obj), Pkg: pkg, Decl: fn}
				m.collectAnnotations(fi)
				m.funcs[fi.Key] = fi
			}
		}
	}
	m.keys = make([]string, 0, len(m.funcs))
	for k := range m.funcs {
		m.keys = append(m.keys, k)
	}
	sort.Strings(m.keys)
	// Pass 2: resolve call edges now that every defined function is known.
	for _, k := range m.keys {
		m.collectCalls(m.funcs[k])
	}
	sort.Slice(m.directiveFindings, func(i, j int) bool {
		a, b := m.directiveFindings[i], m.directiveFindings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return m
}

// Func returns the FuncInfo for a key, or nil.
func (m *Module) Func(key string) *FuncInfo { return m.funcs[key] }

// funcsOf yields the package's functions in sorted key order.
func (m *Module) funcsOf(pkg *Package) []*FuncInfo {
	var out []*FuncInfo
	for _, k := range m.keys {
		if fi := m.funcs[k]; fi.Pkg == pkg {
			out = append(out, fi)
		}
	}
	return out
}

// collectAnnotations parses the `//altlint:<verb> [reason]` directives in
// fn's doc comment. Malformed directives become ignore-directive findings.
func (m *Module) collectAnnotations(fi *FuncInfo) {
	if fi.Decl.Doc == nil {
		return
	}
	for _, c := range fi.Decl.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//altlint:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		verb := fields[0]
		if verb == "ignore" {
			continue // positional; collectSuppressions owns it
		}
		pos := fi.Pkg.Fset.Position(c.Pos())
		needsReason, known := annotationVerbs[verb]
		if !known {
			m.directiveFindings = append(m.directiveFindings, Finding{
				Pos: pos, Rule: ignoreRule,
				Message: fmt.Sprintf("unknown altlint directive %q (valid: hotpath, nondet-ok, float-ok, spawn-ok, ignore)", verb),
			})
			continue
		}
		if needsReason && len(fields) < 2 {
			m.directiveFindings = append(m.directiveFindings, Finding{
				Pos: pos, Rule: ignoreRule,
				Message: fmt.Sprintf("altlint:%s directive requires a reason", verb),
			})
			continue
		}
		if fi.Ann == nil {
			fi.Ann = make(map[string]string)
		}
		fi.Ann[verb] = strings.TrimSpace(strings.TrimPrefix(rest, verb))
	}
}

// collectCalls records fi's statically resolved calls to module functions,
// including calls made inside nested function literals (attributed to the
// enclosing declaration — a closure runs on behalf of its function).
func (m *Module) collectCalls(fi *FuncInfo) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(call, info)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		key := funcKey(fn)
		if _, defined := m.funcs[key]; !defined {
			return true
		}
		fi.Calls = append(fi.Calls, CallSite{Key: key, PkgPath: fn.Pkg().Path(), Pos: call.Pos()})
		return true
	})
}

// funcKey canonically names a function object: pkgpath.Name, with the
// receiver's base type name interposed for methods.
func funcKey(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkgPath + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkgPath + "." + fn.Name()
}

// displayKey shortens a FuncInfo key for messages: the package path keeps
// only its last element (sim.loop.run).
func displayKey(key string) string {
	if slash := strings.LastIndexByte(key, '/'); slash >= 0 {
		return key[slash+1:]
	}
	return key
}

// tiebreakFor returns (computing once) the package's sanctioned tie-break
// comparator expressions (see tieBreakComparisons).
func (m *Module) tiebreakFor(pkg *Package) map[*ast.BinaryExpr]bool {
	if m.tiebreaks == nil {
		m.tiebreaks = make(map[*Package]map[*ast.BinaryExpr]bool)
	}
	tb, ok := m.tiebreaks[pkg]
	if !ok {
		tb = tieBreakComparisons(pkg)
		m.tiebreaks[pkg] = tb
	}
	return tb
}
