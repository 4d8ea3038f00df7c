package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// exportUseAnalyzer keeps the internal packages' exported surface to what
// other packages use: an exported func, type, var, const or method declared
// in a non-test file under internal/ is a finding when no other package — a
// test's, bench/, a command, an example or the root — names it. Three kinds
// of name stay exported unnamed: the methods of the types the root package
// aliases, methods that implement an interface (reach's name-based dispatch
// rule), and a type named in the signature or an exported field of a used
// export, so no used API hands out a type its callers cannot name.
var exportUseAnalyzer = &Analyzer{
	Name: "exportuse",
	Doc:  "every exported name under internal/ is named outside its package, is root API or an interface method, or is a type a used export hands out",
	Run:  runExportUse,
}

// usedExports computes, once per module, the exports the rule keeps.
func usedExports(m *Module) map[objKey]bool {
	return m.cached("exportuse.used", func() any {
		g := moduleGraph(m)
		used, objs := map[objKey]bool{}, map[objKey]types.Object{}
		var queue []objKey
		mark := func(k objKey) {
			if !used[k] {
				used[k] = true
				queue = append(queue, k)
			}
		}
		for _, u := range m.Units {
			for _, obj := range u.Info.Defs {
				if k, ok := declKey(obj); ok {
					objs[k] = obj
				}
			}
			for _, obj := range u.Info.Uses {
				if k, ok := declKey(obj); ok && k.pkg != u.Path {
					mark(k)
				}
			}
		}
		called := map[string]bool{}
		for _, names := range g.iface {
			for _, name := range names {
				called[name] = true
			}
		}
		for _, k := range g.roots { // the root aliases' methods
			if k.recv != "" {
				mark(k)
			}
		}
		for _, ms := range g.methods {
			keep := stdlibKept(ms)
			for _, meth := range ms {
				if called[meth.name] || keep[meth.name] {
					mark(meth)
				}
			}
		}
		var visit func(types.Type)
		visit = func(t types.Type) {
			switch t := types.Unalias(t).(type) {
			case *types.Named:
				if obj := t.Obj(); obj.Pkg() != nil {
					mark(objKey{pkg: obj.Pkg().Path(), name: obj.Name()})
				}
				for arg := range t.TypeArgs().Types() {
					visit(arg)
				}
			case *types.Map:
				visit(t.Key())
				visit(t.Elem())
			case interface{ Elem() types.Type }: // pointer, slice, array, chan
				visit(t.Elem())
			case *types.Signature:
				for v := range t.Params().Variables() {
					visit(v.Type())
				}
				for v := range t.Results().Variables() {
					visit(v.Type())
				}
			case *types.Struct:
				for f := range t.Fields() {
					if f.Exported() {
						visit(f.Type())
					}
				}
			case *types.Interface:
				for fn := range t.ExplicitMethods() {
					if fn.Exported() {
						visit(fn.Type())
					}
				}
			}
		}
		for len(queue) > 0 { // a used export keeps the types it hands out
			switch obj := objs[queue[0]].(type) {
			case *types.TypeName:
				visit(obj.Type().Underlying())
			case types.Object:
				visit(obj.Type())
			}
			queue = queue[1:]
		}
		return used
	}).(map[objKey]bool)
}

func runExportUse(pass *Pass) {
	m, path := pass.Module, pass.Unit.Path
	if !strings.HasPrefix(path, m.Path+"/internal/") {
		return
	}
	used := usedExports(m)
	for k, pos := range moduleGraph(m).decls {
		if k.pkg == path && ast.IsExported(k.name) && !used[k] {
			pass.reportf(pos, "%s is exported but named by no other package — unexport it", k.describe())
		}
	}
}
