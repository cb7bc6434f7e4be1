package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists production functions that no production root reaches
// but that stay on purpose, each with its reason. Entries are extra roots:
// whatever they call is reachable too.
var reachAllow = map[string]string{
	"numeric.ApproxEqual": "float comparison helper shared by the tests of many packages",
}

// TestProductionReachability fails on production code that only tests
// call. It loads the whole module, builds the call graph of every
// non-test function from typed identifier uses, and walks it from the
// real roots: the main functions of cmd/ and examples/, init functions
// and package-level initialisers, every function declared by the
// root-package façade, every reference made by the nested perfbench
// module, and every method that satisfies an interface. A function left
// unreached must be on reachAllow; an allowlisted function that the roots
// reach anyway is stale and fails too.
func TestProductionReachability(t *testing.T) {
	root := filepath.Join("..", "..")
	_, modPath, err := moduleRoot(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	g := newCallGraph(pkgs, modPath)
	if len(g.decls) == 0 {
		t.Fatal("no production functions found")
	}
	base := g.reach(g.roots)
	extra := append([]string(nil), g.roots...)
	for key := range reachAllow {
		if _, ok := g.decls[key]; !ok {
			t.Errorf("reachAllow entry %s names no production function", key)
			continue
		}
		if base[key] {
			t.Errorf("reachAllow entry %s is reached from the roots; drop it", key)
		}
		extra = append(extra, key)
	}
	live := g.reach(extra)
	var dead []string
	lines := 0
	for key, d := range g.decls {
		if !live[key] {
			n := d.lines()
			lines += n
			dead = append(dead, fmt.Sprintf("%s (%s, %d lines)", key, d.pos, n))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d production functions (%d lines) are reached only from tests; delete them, move them into a _test.go file, or allowlist them with a reason:\n\t%s",
			len(dead), lines, strings.Join(dead, "\n\t"))
	}
}

// funcDecl is one production function: where it is, and the functions
// its body names.
type funcDecl struct {
	pos        string
	start, end int
	callees    []string
}

func (d *funcDecl) lines() int { return d.end - d.start + 1 }

type callGraph struct {
	decls map[string]*funcDecl
	roots []string
}

func newCallGraph(pkgs []*Package, modPath string) *callGraph {
	g := &callGraph{decls: map[string]*funcDecl{}}
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, ".test") {
			continue
		}
		perfbench := p.Path == modPath+"/perfbench"
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if perfbench {
				g.roots = append(g.roots, uses(p.Info, f)...)
				continue
			}
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					g.roots = append(g.roots, uses(p.Info, decl)...)
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[decl.Name].(*types.Func)
					if !ok {
						continue
					}
					key := funcKey(fn)
					start := p.Fset.Position(decl.Pos())
					g.decls[key] = &funcDecl{
						pos:     fmt.Sprintf("%s:%d", filepath.Base(start.Filename), start.Line),
						start:   start.Line,
						end:     p.Fset.Position(decl.End()).Line,
						callees: uses(p.Info, decl),
					}
					isMain := p.Types.Name() == "main" && decl.Recv == nil && decl.Name.Name == "main"
					isInit := decl.Recv == nil && decl.Name.Name == "init"
					if isMain || isInit || p.Path == modPath {
						g.roots = append(g.roots, key)
					}
				}
			}
		}
	}
	g.roots = append(g.roots, interfaceMethods(pkgs, modPath)...)
	return g
}

// reach returns the set of functions reachable from roots.
func (g *callGraph) reach(roots []string) map[string]bool {
	seen := map[string]bool{}
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[key] {
			continue
		}
		seen[key] = true
		if d := g.decls[key]; d != nil {
			stack = append(stack, d.callees...)
		}
	}
	return seen
}

// uses lists the functions and methods an AST node refers to.
func uses(info *types.Info, n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, funcKey(fn))
			}
		}
		return true
	})
	return out
}

// funcKey names a function independently of which type-checker copy of
// its package the object came from: "pkg.F" or "(*pkg.T).M", with the
// module's internal/ prefix dropped.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
		if i := strings.LastIndex(pkg, "/internal/"); i >= 0 {
			pkg = pkg[i+len("/internal/"):]
		}
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			star, t = "*", ptr.Elem()
		}
		name := types.TypeString(t, nil)
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("(%s%s.%s).%s", star, pkg, name, fn.Name())
	}
	return pkg + "." + fn.Name()
}

// interfaceMethods returns every method of a module type that takes part
// in satisfying an interface, from the module or anything it imports;
// such a method may be called through the interface. The type-checker
// copies of each package are unified first (the importer's copy wins), so
// types.Implements compares like with like.
func interfaceMethods(pkgs []*Package, modPath string) []string {
	byPath := map[string]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if _, ok := byPath[p.Path()]; ok {
			return
		}
		byPath[p.Path()] = p
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		if !strings.HasSuffix(p.Path, ".test") {
			visit(p.Types)
		}
	}
	ifacesByMethod := map[string][]*types.Interface{}
	var named []types.Type
	for path, p := range byPath {
		inModule := path == modPath || strings.HasPrefix(path, modPath+"/")
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i).Name()
					ifacesByMethod[m] = append(ifacesByMethod[m], iface)
				}
			} else if inModule {
				named = append(named, tn.Type())
			}
		}
	}
	// The error interface, and the Unwrap protocol errors.Is and errors.As
	// probe through anonymous interfaces.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{
		types.NewFunc(0, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(0, nil, "", errType)), false)),
	}, nil).Complete()
	ifacesByMethod["Error"] = append(ifacesByMethod["Error"], errType.Underlying().(*types.Interface))
	ifacesByMethod["Unwrap"] = append(ifacesByMethod["Unwrap"], unwrap)
	var out []string
	for _, t := range named {
		for _, typ := range []types.Type{t, types.NewPointer(t)} {
			mset := types.NewMethodSet(typ)
			for i := 0; i < mset.Len(); i++ {
				for _, iface := range ifacesByMethod[mset.At(i).Obj().Name()] {
					if !types.Implements(typ, iface) {
						continue
					}
					for j := 0; j < iface.NumMethods(); j++ {
						if sel := mset.Lookup(iface.Method(j).Pkg(), iface.Method(j).Name()); sel != nil {
							out = append(out, funcKey(sel.Obj().(*types.Func)))
						}
					}
				}
			}
		}
	}
	return out
}
