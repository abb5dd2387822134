//go:build reach

// Package reach checks that every exported name the module defines in
// internal/, pkg/ and cmd/ has a caller outside test files. Run it with
//
//	go test -tags reach ./internal/reach
//
// It type-checks the module's packages from source with the standard
// library alone, so it needs no download, and takes a few seconds; the
// tag keeps it out of `go test ./...`.
package reach

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed names exported names kept without a product caller, each with
// its reason. An entry the scan no longer reports fails the check too, so
// the list cannot go stale.
var allowed = map[string]string{
	// pkg/ is the public API: its callers are applications.
	"pkg/client.Conn.Ping":                 "public API: a liveness check for applications",
	"pkg/client.DialMux":                   "public API: a pipelined connection for applications",
	"pkg/shardingdb.Bool":                  "public API: the value constructor beside Int, Float and String",
	"pkg/shardingdb.DB.Governor":           "public API: the governor, for status and failover",
	"pkg/shardingdb.DB.Recover":            "public API: resolves in-doubt XA transactions after a crash",
	"pkg/shardingdb.RegisterForSQL":        "public API: registers the database/sql driver",
	"pkg/shardingdb.Session.InTransaction": "public API: whether a transaction is open",

	"internal/core.Feature.Name":              "the feature SPI's base: only a value that names itself registers as a feature",
	"internal/features/scaling.StatusRunning": "the zero Status a job starts in, never written by name; deleting it renumbers the enum",
	"internal/sharding.NewSnowflake":          "ROADMAP item 2 configures the key generator through DistSQL",

	// Test hooks other packages' tests set; ROADMAP item 9 replaces the
	// clock-driven ones with an injected clock.
	"internal/exec.Executor.SetRetryPolicy":  "item 9: tests turn off retry backoff",
	"internal/storage.Engine.SetLockTimeout": "item 9: tests shorten the lock wait",
	"internal/sights.Record.Len":             "sqlexec's cache tests check that the record forgets what the processor keeps",
}

// checked reports whether a package, relative to the module, is one whose
// exported names need a caller. benchmark/ and examples/ only call.
func checked(rel string) bool {
	for _, dir := range []string{"internal/", "pkg/", "cmd/"} {
		if strings.HasPrefix(rel+"/", dir) {
			return true
		}
	}
	return false
}

func TestEveryExportedNameHasAProductCaller(t *testing.T) {
	found, err := scan("../..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.name] = true
		if _, ok := allowed[f.name]; !ok {
			t.Errorf("%s: %s has no caller outside test files", f.pos, f.name)
		}
	}
	for name := range allowed {
		if !seen[name] {
			t.Errorf("allowlisted %s has a product caller now, or is gone: drop its entry", name)
		}
	}
}

// TestPlantedPackage runs the scan over testdata/planted: one exported
// func nobody calls, one method reached only through an anonymous
// interface, and a struct whose fields are set positionally. Only the
// first is reported.
func TestPlantedPackage(t *testing.T) {
	found, err := scan("testdata/planted")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range found {
		names = append(names, f.name)
	}
	if want := []string{"internal/p.Unused"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("found %v, want %v", names, want)
	}
}

type finding struct {
	name string
	pos  token.Position
}

type listed struct {
	ImportPath, Dir string
	Standard        bool
	GoFiles         []string
	Module          *struct{ Path string }
}

type loaded struct {
	rel   string // path relative to the module
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// scan type-checks the module rooted at root, in `go list -deps` order,
// and returns its unused exported names, sorted.
func scan(root string) ([]finding, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = root
	cmd.Env = append(cmd.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if !p.Standard && p.Module != nil {
			pkgs = append(pkgs, p)
		}
	}

	// The source importer cannot find this module's own paths, so it
	// serves the standard library only; the module's packages are checked
	// here, in dependency order, and served from own.
	fset := token.NewFileSet()
	build.Default.CgoEnabled = false
	im := &moduleImporter{own: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	var mod []*loaded
	for _, p := range pkgs {
		l := &loaded{rel: strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/")}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			l.files = append(l.files, f)
		}
		l.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: im}
		if l.pkg, err = conf.Check(p.ImportPath, fset, l.files, l.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		im.own[p.ImportPath] = l.pkg
		mod = append(mod, l)
	}

	used := map[types.Object]bool{}
	use := func(o types.Object) {
		switch o := o.(type) {
		case *types.Func:
			used[o.Origin()] = true
		case *types.Var:
			used[o.Origin()] = true
		default:
			used[o] = true
		}
	}
	ifaces := stdInterfaces(im, mod)
	for _, l := range mod {
		for _, o := range l.info.Uses {
			use(o)
		}
		for _, s := range l.info.Selections {
			use(s.Obj())
		}
		for _, tv := range l.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range l.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					// A positional literal sets every field.
					st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							use(st.Field(i))
						}
					}
				case *ast.StructType:
					// encoding/json reads and writes json-tagged fields.
					for _, fl := range n.Fields.List {
						if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
							for _, id := range fl.Names {
								use(l.info.Defs[id])
							}
						}
					}
				}
				return true
			})
		}
	}
	// A method is used when its type satisfies an interface that has it.
	for _, l := range mod {
		if !checked(l.rel) {
			continue
		}
		scope := l.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			ms := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						use(sel.Obj())
					}
				}
			}
		}
	}

	var found []finding
	report := func(o types.Object, name string) {
		if o != nil && o.Exported() && !used[o] {
			found = append(found, finding{name, fset.Position(o.Pos())})
		}
	}
	for _, l := range mod {
		if !checked(l.rel) {
			continue
		}
		scope := l.pkg.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			report(o, l.rel+"."+name)
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			prefix := l.rel + "." + name + "."
			for i := 0; i < named.NumMethods(); i++ {
				report(named.Method(i), prefix+named.Method(i).Name())
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					// An embedded field is used by promotion.
					if !u.Field(i).Embedded() {
						report(u.Field(i), prefix+u.Field(i).Name())
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					report(u.ExplicitMethod(i), prefix+u.ExplicitMethod(i).Name())
				}
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, nil
}

// moduleImporter serves the module's own packages, checked in dependency
// order, and falls back to the source importer for the standard library.
type moduleImporter struct {
	own map[string]*types.Package
	std types.ImporterFrom
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := im.own[path]; ok {
		return p, nil
	}
	return im.std.ImportFrom(path, dir, mode)
}

// stdDynamic declares the interfaces the standard library asserts inside
// function bodies, where no scope names them: errors.Is, errors.As and
// errors.Unwrap call these methods.
const stdDynamic = `package std
type (
	unwrapper interface{ Unwrap() error }
	multi     interface{ Unwrap() []error }
	iser      interface{ Is(error) bool }
	aser      interface{ As(any) bool }
)`

// stdInterfaces returns error, the interfaces of stdDynamic and every
// named interface of each standard package the module imports, directly
// or not.
func stdInterfaces(im *moduleImporter, mod []*loaded) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "std.go", stdDynamic, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := (&types.Config{}).Check("std", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			if _, own := im.own[q.Path()]; !own {
				walk(q)
			}
		}
	}
	walk(pkg)
	for _, l := range mod {
		for _, q := range l.pkg.Imports() {
			if _, own := im.own[q.Path()]; !own {
				walk(q)
			}
		}
	}
	return ifaces
}
