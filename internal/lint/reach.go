package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// reachAnalyzer keeps the library to what serves: every top-level non-test
// declaration outside bench/ — func, method, type, var or const, exported
// or not — must be reachable in the module's reference graph from a root.
// The roots are every main (the commands, the examples and bench/), every
// init and package-level var initializer, the root package's exported
// declarations, and the exported methods of each type it aliases. What only
// tests reach is deleted, or kept by
//
//	//leclint:allow reach -- test oracle: TestName
//
// where TestName is a test that uses the declaration to check reached code.
var reachAnalyzer = &Analyzer{
	Name: "reach",
	Doc:  "every non-test declaration outside bench/ is reachable from a main, an init, or the root package's API",
	Run:  runReach,
}

// objKey identifies a module top-level declaration across type-check
// variants (the augmented and pure checks produce distinct objects for the
// same declaration, so identity must be by name, not pointer).
type objKey struct {
	pkg  string // import path
	recv string // receiver type name for methods, "" otherwise
	name string
}

// declGraph is the module's reference graph over non-test files: an edge
// runs from a declaration to every module declaration its syntax names —
// static calls, function and method values, types, vars and consts.
// Dynamic dispatch is approximated by method name: a reached type keeps
// every method whose name reached code calls through an interface, and
// every standard-library interface it implements.
type declGraph struct {
	decls   map[objKey]token.Pos // every declaration but main and init, at its name
	lines   map[objKey]int       // source lines each declaration spans
	refs    map[objKey][]objKey  // declaration -> declarations it names
	iface   map[objKey][]string  // declaration -> methods it calls through interfaces
	methods map[objKey][]objKey  // named type -> its declared methods
	roots   []objKey             // mains, inits, the root package's API
}

// stdlibIfaces are the method sets the standard library calls through its
// own interfaces (fmt.Stringer, error, sort.Interface, heap.Interface,
// json.Marshaler, io.Writer, flag.Value, types.Importer).
var stdlibIfaces = [][]string{
	{"String"}, {"GoString"}, {"Format"}, {"Error"}, {"Unwrap"}, {"Is"}, {"As"},
	{"Len", "Less", "Swap"}, {"Len", "Less", "Swap", "Push", "Pop"}, {"MarshalJSON"}, {"UnmarshalJSON"},
	{"MarshalText"}, {"UnmarshalText"}, {"Read"}, {"Write"}, {"WriteString"}, {"Close"},
	{"String", "Set"}, {"Import"},
}

// moduleGraph builds the reference graph once per module.
func moduleGraph(m *Module) *declGraph {
	return m.cached("reach.graph", func() any { return buildGraph(m) }).(*declGraph)
}

func buildGraph(m *Module) *declGraph {
	g := &declGraph{decls: map[objKey]token.Pos{}, lines: map[objKey]int{}, refs: map[objKey][]objKey{},
		iface: map[objKey][]string{}, methods: map[objKey][]objKey{}}
	declare := func(k objKey, name *ast.Ident, n ast.Node, root bool) {
		g.decls[k] = name.Pos()
		g.lines[k] += m.Fset.Position(n.End()).Line - m.Fset.Position(n.Pos()).Line + 1
		if root {
			g.roots = append(g.roots, k)
		}
	}
	for _, u := range m.Units {
		if strings.HasSuffix(u.Path, "_test") {
			continue
		}
		api := u.Path == m.Path // the root package's exports are roots
		initKey := objKey{pkg: u.Path, name: "init"}
		for _, f := range u.Files {
			if m.testFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					k := funcKey(u.Path, d)
					g.link(u.Info, k, d)
					if k.recv == "" && (k.name == "init" || k.name == "main" && u.Pkg.Name() == "main") {
						g.roots = append(g.roots, k)
						continue
					}
					if k.recv != "" {
						tk := objKey{pkg: u.Path, name: k.recv}
						g.methods[tk] = append(g.methods[tk], k)
					}
					declare(k, d.Name, d, api && d.Name.IsExported() && (k.recv == "" || ast.IsExported(k.recv)))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							k := objKey{pkg: u.Path, name: s.Name.Name}
							g.link(u.Info, k, s)
							declare(k, s.Name, s, api && s.Name.IsExported())
							if api && s.Name.IsExported() && s.Assign.IsValid() {
								g.roots = append(g.roots, aliasedMethods(u.Info, s)...)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								k := objKey{pkg: u.Path, name: name.Name}
								g.link(u.Info, k, s)
								if name.Name != "_" {
									declare(k, name, s, api && name.IsExported())
								}
							}
							// A var initializer runs at package
							// initialization, whoever reads the var.
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									g.link(u.Info, initKey, v)
								}
								g.roots = append(g.roots, initKey)
							}
						}
					}
				}
			}
		}
	}
	return g
}

// funcKey keys a function or method declaration of package pkg.
func funcKey(pkg string, fd *ast.FuncDecl) objKey {
	k := objKey{pkg: pkg, name: fd.Name.Name}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		k.recv = recvTypeName(fd.Recv.List[0].Type)
	}
	return k
}

// link adds an edge from k to every module declaration n names, and
// records the methods n calls through an interface.
func (g *declGraph) link(info *types.Info, k objKey, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				g.iface[k] = append(g.iface[k], fn.Name())
				return true
			}
		}
		if key, ok := declKey(obj); ok {
			g.refs[k] = append(g.refs[k], key)
		}
		return true
	})
}

// declKey keys a module object the way the graph keys declarations: a
// package-level object by name, a method by receiver type and name. Fields,
// locals and universe objects have no key.
func declKey(obj types.Object) (objKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return objKey{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return objKey{}, false
			}
			return objKey{pkg: fn.Pkg().Path(), recv: named.Obj().Name(), name: fn.Name()}, true
		}
		obj = fn
	}
	return objKey{pkg: obj.Pkg().Path(), name: obj.Name()}, obj.Parent() == obj.Pkg().Scope()
}

// describe names a declaration in findings.
func (k objKey) describe() string {
	if k.recv == "" {
		return k.name
	}
	return "method " + k.recv + "." + k.name
}

// namedOf returns the named type behind t, through one pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// aliasedMethods keys the exported methods, promoted ones included, of the
// type a root-package alias names: they are the root API too.
func aliasedMethods(info *types.Info, s *ast.TypeSpec) []objKey {
	obj := info.Defs[s.Name]
	if obj == nil {
		return nil
	}
	named := namedOf(obj.Type())
	if named == nil {
		return nil
	}
	var out []objKey
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		if recv := namedOf(fn.Type().(*types.Signature).Recv().Type()); recv != nil && fn.Exported() {
			out = append(out, objKey{pkg: fn.Pkg().Path(), recv: recv.Obj().Name(), name: fn.Name()})
		}
	}
	return out
}

// recvTypeName extracts the receiver's type name from its AST.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// stdlibKept returns the names among a type's methods ms that complete one
// of the standard library's interfaces.
func stdlibKept(ms []objKey) map[string]bool {
	has, keep := map[string]bool{}, map[string]bool{}
	for _, meth := range ms {
		has[meth.name] = true
	}
	for _, set := range stdlibIfaces {
		if !slices.ContainsFunc(set, func(name string) bool { return !has[name] }) {
			for _, name := range set {
				keep[name] = true
			}
		}
	}
	return keep
}

// reach returns every declaration reachable from roots.
func (g *declGraph) reach(roots []objKey) map[objKey]bool {
	seen := map[objKey]bool{}
	called := map[string]bool{} // methods reached code calls through interfaces
	var owners []objKey         // reached types that declare methods
	queue := append([]objKey(nil), roots...)
	for _, k := range roots {
		seen[k] = true
	}
	mark := func(k objKey) {
		if !seen[k] {
			seen[k] = true
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, next := range g.refs[k] {
			mark(next)
		}
		if ms, ok := g.methods[k]; ok {
			owners = append(owners, k)
			keep := stdlibKept(ms)
			for _, meth := range ms {
				if called[meth.name] || keep[meth.name] {
					mark(meth)
				}
			}
		}
		for _, name := range g.iface[k] {
			if called[name] {
				continue
			}
			called[name] = true
			for _, t := range owners {
				for _, meth := range g.methods[t] {
					if meth.name == name {
						mark(meth)
					}
				}
			}
		}
	}
	return seen
}

func runReach(pass *Pass) {
	m := pass.Module
	if pass.Unit.Path == m.Path+"/bench" {
		return
	}
	g := moduleGraph(m)
	reached := m.cached("reach.reached", func() any { return g.reach(g.roots) }).(map[objKey]bool)
	for k, pos := range g.decls {
		if k.pkg != pass.Unit.Path || reached[k] {
			continue
		}
		pass.reportf(pos, "%s is reached by no main, init or root-package API — delete it, or allow it as a test oracle", k.describe())
	}
}
