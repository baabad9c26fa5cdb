package lint

import (
	"go/ast"
	"go/types"
)

// DeadExport keeps the exported surface of internal/ to what the program
// uses: an exported package-level func, type, var or const, or an exported
// method, that no non-test file anywhere in the module references is dead
// code that every reader still has to read. References from the declaring
// package, cmd/ and examples/ count; a declaration's references to itself
// (recursion, a method's receiver) do not. Two exemptions come from the
// code itself: a method named like some interface method may be reached by
// dynamic dispatch (String, Error, Read, ...), and a package that no
// non-test file imports is test support. A reference implementation that
// tests compare against, or a seam another package's tests need, stays
// with //mcsdlint:allow deadexport -- reason.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "every exported identifier in internal/ has a non-test reference " +
		"somewhere in the module (or is a method named like an interface method)",
	Run: runDeadExport,
}

const internalPkgPath = "mcsd/internal"

// moduleUses is what deadexport needs from the whole module, built once per
// lint.Run: the objects some non-test file references, the names of every
// interface method in sight, and the packages some non-test file imports.
type moduleUses struct {
	used      map[types.Object]bool
	ifaceName map[string]bool
	imported  map[string]bool
}

func runDeadExport(pass *Pass) error {
	if !HasPrefixPath(pass.Pkg.Path(), internalPkgPath) {
		return nil
	}
	mu := pass.Memo(func() any { return buildModuleUses(pass.Module) }).(*moduleUses)
	if !mu.imported[pass.Pkg.Path()] {
		return nil
	}
	dead := func(id *ast.Ident) {
		if !id.IsExported() {
			return
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil && !mu.used[obj] {
			pass.Reportf(id.Pos(), "exported %s has no non-test reference in the module; delete it, "+
				"move it to export_test.go, or give it a caller", id.Name)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || !mu.ifaceName[d.Name.Name] {
					dead(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						dead(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							dead(id)
						}
					}
				}
			}
		}
	}
	return nil
}

func buildModuleUses(pkgs []*Package) *moduleUses {
	mu := &moduleUses{
		used:      make(map[types.Object]bool),
		ifaceName: make(map[string]bool),
		imported:  make(map[string]bool),
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				mu.addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	mu.addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			mu.imported[imp.Path()] = true
		}
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			mu.addIface(tv.Type)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				mu.addUses(pkg.Info, decl)
			}
		}
	}
	return mu
}

// addUses records every object decl references, except the objects decl
// itself declares and a method's receiver.
func (mu *moduleUses) addUses(info *types.Info, decl ast.Decl) {
	own := make(map[types.Object]bool)
	var root ast.Node = decl
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil {
			// Walk the signature and body, not the receiver.
			ast.Inspect(d.Type, func(n ast.Node) bool { return mu.use(info, own, n) })
			if d.Body == nil {
				return
			}
			root = d.Body
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, id := range s.Names {
					own[info.Defs[id]] = true
				}
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool { return mu.use(info, own, n) })
}

func (mu *moduleUses) use(info *types.Info, own map[types.Object]bool, n ast.Node) bool {
	id, ok := n.(*ast.Ident)
	if !ok {
		return true
	}
	obj := info.Uses[id]
	switch o := obj.(type) {
	case nil:
		return true
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if !own[obj] {
		mu.used[obj] = true
	}
	return true
}

func (mu *moduleUses) addIface(t types.Type) {
	if t == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := range iface.NumMethods() {
			mu.ifaceName[iface.Method(i).Name()] = true
		}
	}
}
