//go:build reach

// Package reach checks that every exported name the module defines in
// internal/, pkg/ and cmd/ has a use outside test files, and every struct
// field, exported or not, a read and, unless it is tagged, a write. A use
// counts only in code that is itself used, to a fixpoint. Run it with
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

// allowed names what is kept without a product use, each with its
// reason. An entry the scan no longer reports fails the check too, so
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
	// Options an application sets: the module writes none of them.
	"pkg/shardingdb.Config.HealthCheckInterval": "public API: starts the health-check loop",
	"pkg/shardingdb.Config.Registry":            "public API: shares a coordination store with a proxy",
	"pkg/shardingdb.DataSourceConfig.Addr":      "public API: attaches a networked data node",
	"pkg/shardingdb.DataSourceConfig.Dialect":   "public API: a PostgreSQL data source",
	"pkg/shardingdb.DataSourceConfig.PoolSize":  "public API: bounds a source's pool",

	"internal/core.Feature.Name":               "the feature SPI's base: only a value that names itself registers as a feature",
	"internal/features/scaling.StatusRunning":  "the zero Status a job starts in, never written by name; deleting it renumbers the enum",
	"internal/sharding.NewSnowflake":           "ROADMAP item 3 configures the key generator through DistSQL",
	"internal/sharding.TableRule.KeyGen":       "item 3 sets it from DistSQL; only tests set it now",
	"internal/sharding.TableRule.KeyGenColumn": "item 3 sets it from DistSQL; only tests set it now",
	"internal/features/shadow.Config.Value":    "the shadow marker an application configures; item 19 decides whether shadow stays",
	"internal/route.Result.Kind":               "item 20(a): EXPLAIN shows the route type",
	"internal/leakcheck.Main":                  "each package's TestMain calls it: the goroutine check has test callers only",

	// Test hooks other packages' tests set; ROADMAP item 11 replaces the
	// clock-driven ones with an injected clock.
	"internal/exec.Executor.SetRetryPolicy":  "item 11: tests turn off retry backoff",
	"internal/storage.Engine.SetLockTimeout": "item 11: tests shorten the lock wait",
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
			t.Errorf("%s: %s %s outside test files", f.pos, f.name, f.why)
		}
	}
	for name := range allowed {
		if !seen[name] {
			t.Errorf("allowlisted %s has a product use now, or is gone: drop its entry", name)
		}
	}
}

// TestPlantedPackage runs the scan over testdata/planted: an exported func
// nobody calls and one only it calls, a field written and never read, a
// field read and never written, a method reached only through an
// anonymous interface, fields set positionally, an embedded field read
// only by promotion, a map key's fields, and fields written only through
// their address, a pointer method or a tag. Only the first four are
// reported.
func TestPlantedPackage(t *testing.T) {
	found, err := scan("testdata/planted")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range found {
		names = append(names, f.name)
	}
	want := []string{"internal/p.OnlyFromUnused", "internal/p.Options.verbose", "internal/p.Tally.n", "internal/p.Unused"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("found %v, want %v", names, want)
	}
}

type finding struct {
	name string
	why  string // "has no use", or "is read and never written"
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

	// The use graph's nodes are top-level declarations. A declaration is
	// live once something live uses an object it declares, and only a live
	// declaration's uses count; the roots are main, init, blank variables,
	// allowlisted names and everything benchmark/ and examples/ declare.
	type decl struct {
		l    *loaded
		node ast.Node
	}
	var decls []decl
	declOf := map[types.Object][]int{}
	var roots []int
	for _, l := range mod {
		add := func(n ast.Node, root bool, names ...*ast.Ident) {
			for _, id := range names {
				if o := l.info.Defs[id]; o != nil {
					declOf[o] = append(declOf[o], len(decls))
				}
				root = root || id.Name == "_"
			}
			if root || !checked(l.rel) {
				roots = append(roots, len(decls))
			}
			decls = append(decls, decl{l, n})
		}
		for _, f := range l.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					add(d, d.Recv == nil && (name == "init" || name == "main" && l.pkg.Name() == "main"), d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec, false, spec.Name)
						case *ast.ValueSpec:
							add(spec, false, spec.Names...)
						}
					}
				}
			}
		}
	}

	// A type's methods that satisfy an interface are used once the type is.
	ifaces := stdInterfaces(im, mod)
	for _, l := range mod {
		for _, tv := range l.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	satisfying := map[types.Object][]types.Object{}
	for _, l := range mod {
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
						satisfying[tn] = append(satisfying[tn], sel.Obj())
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	live := make([]bool, len(decls))
	var work []int
	var use func(o types.Object)
	use = func(o types.Object) {
		switch v := o.(type) {
		case *types.Func:
			o = v.Origin()
		case *types.Var:
			o = v.Origin()
		}
		if used[o] {
			return
		}
		used[o] = true
		for _, i := range declOf[o] {
			if !live[i] {
				live[i] = true
				work = append(work, i)
			}
		}
		for _, m := range satisfying[o] {
			use(m)
		}
	}
	useFields := func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				use(st.Field(i))
			}
		}
	}
	// assigned holds the fields a live declaration writes; tagged, the
	// fields a decoder may write instead.
	assigned, tagged := map[types.Object]bool{}, map[types.Object]bool{}
	assignFields := func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				assigned[st.Field(i).Origin()] = true
			}
		}
	}
	for _, l := range mod {
		// A map compares its key's every field.
		for _, tv := range l.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				useFields(m.Key())
			}
		}
		// encoding/json reads and writes json-tagged fields; a tag is for a
		// decoder, which may be the field's only writer.
		for _, f := range l.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if fl.Tag == nil {
								continue
							}
							tagged[l.info.Defs[id]] = true
							if strings.Contains(fl.Tag.Value, `json:"`) {
								use(l.info.Defs[id])
							}
						}
					}
				}
				return true
			})
		}
	}
	// walk counts the uses in a live declaration. A field counts only
	// where it is read: the left of an assignment or ++, and a keyed
	// literal's key, write it. It records the writes too: there, through
	// an address (a sliced array's included), and as the receiver of a
	// pointer method; a write of x.a.b or x.a[i] writes a as well.
	walk := func(d decl) {
		info := d.l.info
		writes := map[*ast.Ident]bool{}
		var assign func(x ast.Expr)
		assign = func(x ast.Expr) {
			switch x := ast.Unparen(x).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					assigned[s.Obj().(*types.Var).Origin()] = true
					assign(x.X)
				}
			case *ast.IndexExpr:
				assign(x.X)
			}
		}
		written := func(x ast.Expr) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				writes[sel.Sel] = true
			}
			assign(x)
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, x := range n.Lhs {
					written(x)
				}
			case *ast.IncDecStmt:
				written(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					assign(n.X)
				}
			case *ast.SliceExpr:
				// Slicing an array takes its address.
				if _, ok := info.Types[n.X].Type.Underlying().(*types.Array); ok {
					assign(n.X)
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				if _, ok := t.Underlying().(*types.Struct); !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					// A positional literal sets every field.
					useFields(t)
					assignFields(t)
					break
				}
				for _, e := range n.Elts {
					if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
						writes[id] = true
						if o := info.Uses[id]; o != nil {
							assigned[o.(*types.Var).Origin()] = true
						}
					}
				}
			case *ast.SelectorExpr:
				// A pointer method takes its receiver's address.
				if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
					if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						assign(n.X)
					}
				}
				// A promoted field or method reads the embedded fields on
				// its path.
				if s := info.Selections[n]; s != nil {
					t := s.Recv()
					for _, i := range s.Index()[:len(s.Index())-1] {
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						use(st.Field(i))
						t = st.Field(i).Type()
					}
				}
			case *ast.Ident:
				if o := info.Uses[n]; o != nil && !writes[n] {
					use(o)
				}
			}
			return true
		})
	}
	drain := func() {
		for len(work) > 0 {
			i := work[len(work)-1]
			work = work[:len(work)-1]
			walk(decls[i])
		}
	}
	for _, i := range roots {
		if !live[i] {
			live[i] = true
			work = append(work, i)
		}
	}
	drain()
	// An allowlisted name is reported, to show it is still needed, unless
	// the roots reach it; then it becomes a root too.
	candidates := exportedAndFields(mod)
	var found []finding
	reported := map[types.Object]bool{}
	report := func(c candidate, why string) {
		found = append(found, finding{c.name, why, fset.Position(c.obj.Pos())})
		reported[c.obj] = true
	}
	for _, c := range candidates {
		if _, ok := allowed[c.name]; ok && !used[c.obj] {
			report(c, "has no use")
			use(c.obj)
		}
	}
	drain()
	for _, c := range candidates {
		v, field := c.obj.(*types.Var)
		switch {
		case reported[c.obj]:
		case !used[c.obj]:
			report(c, "has no use")
		case field && v.IsField() && !v.Embedded() && !tagged[c.obj] && !assigned[c.obj]:
			report(c, "is read and never written")
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, nil
}

type candidate struct {
	obj  types.Object
	name string
}

// exportedAndFields returns what needs a use in the checked packages: every
// exported name, and every named field of a named struct type, exported or
// not.
func exportedAndFields(mod []*loaded) []candidate {
	var out []candidate
	add := func(o types.Object, name string, field bool) {
		if o != nil && o.Name() != "_" && (field || o.Exported()) {
			out = append(out, candidate{o, name})
		}
	}
	for _, l := range mod {
		if !checked(l.rel) {
			continue
		}
		scope := l.pkg.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			add(o, l.rel+"."+name, false)
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
				add(named.Method(i), prefix+named.Method(i).Name(), false)
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					add(u.Field(i), prefix+u.Field(i).Name(), true)
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					add(u.ExplicitMethod(i), prefix+u.ExplicitMethod(i).Name(), false)
				}
			}
		}
	}
	return out
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
