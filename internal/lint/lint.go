// Package lint is mcsdlint's analysis framework: a small, stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis surface (the
// container this repo builds in has no module network access, so the
// x/tools dependency is not available). It provides the Analyzer/Pass
// contract, a type-checking package loader, suppression directives, and —
// in the sibling linttest package — an analysistest-style fixture runner.
//
// The analyzers themselves encode the invariants DESIGN.md §5d documents:
// every share byte goes through smartfam.FS (fsdiscipline), typed errors
// survive the wire (wirewrap), nothing below cmd/ manufactures its own
// context (ctxflow), metric keys come from the checked registry
// (metrickey), the scale-model sim stays replayable (simdet), goroutines
// terminate, locks are not held across blocking calls and channels are
// bounded (goroleak, lockhold, chanbound), and every exported identifier
// in internal/ has a non-test reference somewhere in the module
// (deadexport). Analyzers see one package at a time; one whose invariant
// spans packages reads Pass.Module and keeps its whole-module facts in
// Pass.Memo.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one invariant over one package at a time.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //mcsdlint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects pass.Files and reports violations via pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is every package this run was given, for an analyzer whose
	// invariant spans packages (deadexport).
	Module []*Package

	dirs  *directives
	diags *[]Diagnostic
	memo  map[*Analyzer]any
}

// Memo returns build's result, calling build only on the first Memo of this
// analyzer in one Run: the place to keep whole-module facts.
func (p *Pass) Memo(build func() any) any {
	v, ok := p.memo[p.Analyzer]
	if !ok {
		v = build()
		p.memo[p.Analyzer] = v
	}
	return v
}

// Reportf records a diagnostic at pos unless an //mcsdlint:allow directive
// suppresses this analyzer on that line (or the file is marked as an
// fsboundary and the analyzer honours that flag itself).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.dirs.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FileIsBoundary reports whether the file containing pos carries the
// //mcsdlint:fsboundary directive, marking it as a deliberate
// implementation of the share/journal storage boundary (the one place
// direct os I/O is legitimate).
func (p *Pass) FileIsBoundary(pos token.Pos) bool {
	return p.dirs.boundary[p.Fset.Position(pos).Filename]
}

// ObjectOf is a nil-safe Uses/Defs lookup.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (through selector or plain identifier), or nil for indirect calls,
// conversions, and built-ins.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "os".Open).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	fn := p.CalleeFunc(call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// Run applies every analyzer to every package and returns all diagnostics
// sorted by position. Directive hygiene is checked here too: a malformed
// or reason-less //mcsdlint: comment is itself a diagnostic, and so is an
// allow naming a ran analyzer that ends up suppressing nothing, so
// suppressions stay auditable and die with the code they excused.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	memo := make(map[*Analyzer]any)
	for _, pkg := range pkgs {
		dirs, derrs := parseDirectives(pkg.Fset, pkg.Files)
		diags = append(diags, derrs...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Module:    pkgs,
				dirs:      dirs,
				diags:     &diags,
				memo:      memo,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, dirs.unusedAllows(ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// HasPrefixPath reports whether path is pkg or a subpackage of pkg.
func HasPrefixPath(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}
