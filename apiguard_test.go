package pdftsp

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestAPIGuard is `make api-guard`: production code is what a root
// reaches, and code that only tests drive is deleted, not kept for its
// tests. The roots are every main (cmd/, examples/ and the benchmark/
// module) and every init and package-level initializer; an exported name
// earns no reach of its own, in the root package or anywhere else. In a
// non-test file of the root package, internal/ or cmd/:
//
//   - a function or method, exported or not, must be reached from a root
//     by a call or by a reference to it as a value. A call through an
//     interface reaches every method of that name; a call on a concrete
//     type reaches only that method; a method that completes a standard
//     library interface is reached, since the standard library calls it.
//   - a struct field that non-test code writes must be read somewhere. A
//     test's read counts: the field is then an output a test checks,
//     written by code that production runs. A struct tag counts as a
//     read, and so does using the whole value with ==, as a map key or as
//     an interface value (fmt, encoding/json, reflect).
//   - a package-level type, variable or constant must be used by some
//     non-test file.
//
// apiAllowed lists what stays anyway, each with its reason. The check
// type-checks every package from source with go/types (about 5 s), so it
// also runs under `make test`.
func TestAPIGuard(t *testing.T) {
	r, err := guardReach(".")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, f := range r.findings {
		found[f.key] = true
		if _, ok := apiAllowed[f.key]; !ok {
			t.Errorf("api-guard: %s: %s %s; give it a caller, delete it, or allowlist it with a reason", f.pos, f.key, f.what)
		}
	}
	for key := range apiAllowed {
		if !found[key] {
			t.Errorf("api-guard: %s is allowlisted but the guard does not flag it", key)
		}
	}
	t.Logf("api-guard: %d of %d functions reached, %d fields checked, %d allowlisted",
		r.reached, r.funcs, r.fields, len(apiAllowed))
}

// TestAPIGuardPlanted runs the guard on testdata/apiguard, a small module
// that plants what the guard must refuse next to live code of the same
// shape: an unexported function only a test reaches, a dead method named
// like a live one called on a concrete type, a field written and never
// read, an unused constant, and an exported function of the root package
// that no main calls.
func TestAPIGuardPlanted(t *testing.T) {
	r, err := guardReach(filepath.Join("testdata", "apiguard"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range r.findings {
		got = append(got, f.key+" "+f.what)
	}
	want := []string{
		"internal/lib.Counter.hits is written but never read",
		"internal/lib.Dead.Run is reached from no root",
		"internal/lib.limit is used by no non-test file",
		"internal/lib.onlyTested is reached from no root",
		"planted.Version is reached from no root",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("planted findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// apiAllowed holds what the guard flags but stays, keyed as the guard
// prints it (module-relative directory, then Func, Type.Method or
// Type.field), each with the reason it stays.
var apiAllowed = map[string]string{
	"internal/faults.Generate":               allowFixture,
	"internal/faults.Plan.CheckpointFaultAt": allowFixture,
}

// allowFixture is the reason the fault-plan fixture stays.
const allowFixture = "the fault-plan fixture sim's and service's tests share: a _test.go file is not importable across packages"

// guardFinding is one function no root reaches, one field nobody reads or
// one package-level name nobody uses.
type guardFinding struct {
	key, what, pos string
}

// guardResult is the guard's verdict on one source tree.
type guardResult struct {
	findings               []guardFinding // sorted by key
	funcs, reached, fields int
}

// guardPkg is one package of the tree.
type guardPkg struct {
	path    string // import path
	dir     string // module-relative directory; the module's base name for its root
	checked bool   // the root package, internal/ or cmd/
	files   []*ast.File
	tests   []*ast.File // _test.go files of the package itself
	xtests  []*ast.File // _test.go files of its external test package
	types   *types.Package
	info    *types.Info
}

// guardLoader type-checks the tree's packages from source on demand and
// hands every other import to the standard library's source importer.
type guardLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*guardPkg
}

func (l *guardLoader) Import(p string) (*types.Package, error) {
	g, ok := l.pkgs[p]
	if !ok {
		return l.std.Import(p)
	}
	if g.types == nil {
		pkg, info, err := l.check(p, g.files)
		if err != nil {
			return nil, err
		}
		g.types, g.info = pkg, info
	}
	return g.types, nil
}

func (l *guardLoader) check(p string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, info)
	return pkg, info, err
}

// guardLoad parses every Go file under root that the default build
// context selects and type-checks the non-test packages. A package's
// import path is root's module path joined with its directory, which
// holds for the nested benchmark/ module too. Cgo is off, so that the
// standard library's source importer runs no cgo.
func guardLoad(root string) (*guardLoader, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if mp, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(mp)
		}
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &guardLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*guardPkg{}}
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if name := e.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		g := &guardPkg{path: modPath, dir: path.Base(modPath),
			checked: rel == "." || strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")}
		if rel != "." {
			g.path, g.dir = modPath+"/"+rel, rel
		}
		for _, f := range ents {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(p, name); err != nil || !ok {
				continue
			}
			af, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				g.files = append(g.files, af)
			case strings.HasSuffix(af.Name.Name, "_test"):
				g.xtests = append(g.xtests, af)
			default:
				g.tests = append(g.tests, af)
			}
		}
		if len(g.files) > 0 {
			l.pkgs[g.path] = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range l.pkgs {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// guardReach runs the guard's checks on the tree under root.
func guardReach(root string) (*guardResult, error) {
	l, err := guardLoad(root)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// Every function the tree declares, with its body and package.
	type funcDecl struct {
		decl *ast.FuncDecl
		pkg  *guardPkg
	}
	decls := map[*types.Func]funcDecl{}
	byName := map[string][]*types.Func{} // concrete methods by name
	var named []*types.Named             // the tree's package-level defined types
	for _, p := range paths {
		g := l.pkgs[p]
		for _, f := range g.files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok {
					fn := g.info.Defs[d.Name].(*types.Func)
					decls[fn] = funcDecl{d, g}
					if d.Recv != nil {
						byName[fn.Name()] = append(byName[fn.Name()], fn)
					}
				}
			}
		}
		scope := g.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	called := map[string]bool{} // method names called through an interface
	var queue []*types.Func
	var mark func(fn *types.Func)
	mark = func(fn *types.Func) {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			if !called[fn.Name()] {
				called[fn.Name()] = true
				for _, m := range byName[fn.Name()] {
					mark(m)
				}
			}
			return
		}
		if _, ok := decls[fn]; ok && !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	refs := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}
	drain := func() {
		for len(queue) > 0 {
			fn := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if d := decls[fn]; d.decl.Body != nil {
				refs(d.decl.Body, d.pkg.info)
			}
		}
	}

	// Roots: main, init and package-level initializers.
	for fn, d := range decls {
		if d.decl.Recv == nil && (fn.Name() == "init" || fn.Name() == "main" && d.pkg.types.Name() == "main") {
			mark(fn)
		}
	}
	for _, p := range paths {
		for _, f := range l.pkgs[p].files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.VAR {
					refs(d, l.pkgs[p].info)
				}
			}
		}
	}

	// Roots: methods that complete an interface the standard library
	// declares, which it calls through that interface.
	var stdIfaces []*types.Interface
	stdSeen := map[*types.Package]bool{}
	var walkStd func(p *types.Package)
	walkStd = func(p *types.Package) {
		if stdSeen[p] {
			return
		}
		stdSeen[p] = true
		if l.pkgs[p.Path()] == nil {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && tn.Type().(*types.Named).TypeParams().Len() == 0 {
						stdIfaces = append(stdIfaces, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walkStd(q)
		}
	}
	for _, p := range paths {
		walkStd(l.pkgs[p].types)
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range stdIfaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, n.Obj().Pkg(), it.Method(i).Name())
				mark(obj.(*types.Func))
			}
		}
	}
	drain()

	r := &guardResult{}
	for fn, d := range decls {
		if !d.pkg.checked || d.decl.Recv == nil && (fn.Name() == "init" || fn.Name() == "main") {
			continue
		}
		r.funcs++
		if reached[fn] {
			r.reached++
			continue
		}
		r.findings = append(r.findings, guardFinding{guardKey(fn, d.pkg), "is reached from no root", l.fset.Position(d.decl.Name.Pos()).String()})
	}
	// A package-level type, variable or constant of a checked package
	// must be used by some non-test file.
	used := map[types.Object]bool{}
	for _, p := range paths {
		for _, obj := range l.pkgs[p].info.Uses {
			used[obj] = true
		}
	}
	for _, p := range paths {
		g := l.pkgs[p]
		if !g.checked {
			continue
		}
		scope := g.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if _, ok := obj.(*types.Func); ok || used[obj] || name == "_" {
				continue
			}
			r.findings = append(r.findings, guardFinding{g.dir + "." + name, "is used by no non-test file", l.fset.Position(obj.Pos()).String()})
		}
	}

	fields, err := guardFields(l, paths)
	if err != nil {
		return nil, err
	}
	r.fields = len(fields)
	for _, f := range fields {
		if f.write && !f.read {
			r.findings = append(r.findings, guardFinding{f.key, "is written but never read", f.pos})
		}
	}
	sort.Slice(r.findings, func(i, j int) bool { return r.findings[i].key < r.findings[j].key })
	return r, nil
}

// guardKey names a function as the guard prints it: dir.Func or
// dir.Type.Method.
func guardKey(fn *types.Func, g *guardPkg) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return g.dir + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return g.dir + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}

// guardField is one struct field a checked package declares.
type guardField struct {
	key, pos    string
	write, read bool
}

// guardFields finds the fields of the checked packages' named struct
// types and which of them non-test code writes and any code reads. A
// test's read counts: the field is then an output a test checks, written
// by code that production runs.
func guardFields(l *guardLoader, paths []string) (map[token.Pos]*guardField, error) {
	fields := map[token.Pos]*guardField{}
	for _, p := range paths {
		g := l.pkgs[p]
		if !g.checked {
			continue
		}
		for _, f := range g.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							fields[id.Pos()] = &guardField{
								key:  g.dir + "." + ts.Name.Name + "." + id.Name,
								pos:  l.fset.Position(id.Pos()).String(),
								read: fl.Tag != nil,
							}
						}
					}
				}
				return true
			})
		}
	}

	seen := map[types.Type]bool{}
	var readAll func(t types.Type) // every field a value of type t holds
	readAll = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			readAll(t.Underlying())
		case *types.Pointer:
			readAll(t.Elem())
		case *types.Slice:
			readAll(t.Elem())
		case *types.Array:
			readAll(t.Elem())
		case *types.Map:
			readAll(t.Key())
			readAll(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := fields[t.Field(i).Pos()]; f != nil {
					f.read = true
				}
				readAll(t.Field(i).Type())
			}
		}
	}
	// readCompared reads the fields == compares: a struct's or an
	// array's, not a pointer's target.
	readCompared := func(t types.Type) {
		switch types.Unalias(t).Underlying().(type) {
		case *types.Struct, *types.Array:
			readAll(t)
		}
	}

	// walk records what files do to fields; writes count only from
	// non-test code.
	walk := func(info *types.Info, files []*ast.File, writes bool) {
		typeOf := func(e ast.Expr) types.Type { return info.Types[e].Type }
		fieldOf := func(e ast.Expr) *guardField {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return fields[s.Obj().Pos()]
				}
			}
			return nil
		}
		write := func(f *guardField) {
			if f != nil && writes {
				f.write = true
			}
		}
		// boxed reads every field of e's value when it is converted to
		// an interface, where fmt, encoding/json or reflect may read it.
		boxed := func(to types.Type, e ast.Expr) {
			if to != nil && types.IsInterface(to) && !types.IsInterface(typeOf(e)) {
				readAll(typeOf(e))
			}
		}
		written := map[ast.Expr]bool{} // selectors that only write
		var results []*types.Tuple     // the enclosing functions' results
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					results = append(results, info.Defs[n.Name].Type().(*types.Signature).Results())
					ast.Inspect(n.Body, visit)
					results = results[:len(results)-1]
				}
				return false
			case *ast.FuncLit:
				results = append(results, typeOf(n).(*types.Signature).Results())
				ast.Inspect(n.Body, visit)
				results = results[:len(results)-1]
				return false
			case *ast.ReturnStmt:
				if res := results[len(results)-1]; res.Len() == len(n.Results) {
					for i, e := range n.Results {
						boxed(res.At(i).Type(), e)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if f := fieldOf(lhs); f != nil {
						write(f)
						written[ast.Unparen(lhs)] = true
					}
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						boxed(typeOf(lhs), n.Rhs[i])
					}
				}
			case *ast.IncDecStmt:
				if f := fieldOf(n.X); f != nil {
					write(f)
					written[ast.Unparen(n.X)] = true
				}
			case *ast.ValueSpec:
				if n.Type != nil && len(n.Values) == len(n.Names) {
					for _, e := range n.Values {
						boxed(typeOf(n.Type), e)
					}
				}
			case *ast.SendStmt:
				if ch, ok := types.Unalias(typeOf(n.Chan)).Underlying().(*types.Chan); ok {
					boxed(ch.Elem(), n.Value)
				}
			case *ast.CompositeLit:
				switch t := types.Unalias(typeOf(n)).Underlying().(type) {
				case *types.Struct:
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							v := info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							write(fields[v.Pos()])
							boxed(v.Type(), kv.Value)
						} else {
							write(fields[t.Field(i).Pos()])
							boxed(t.Field(i).Type(), e)
						}
					}
				case *types.Map:
					readCompared(t.Key())
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							boxed(t.Key(), kv.Key)
							boxed(t.Elem(), kv.Value)
						}
					}
				case interface{ Elem() types.Type }: // a slice or an array
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							e = kv.Value
						}
						boxed(t.Elem(), e)
					}
				}
			case *ast.SelectorExpr:
				if f := fieldOf(n); f != nil && !written[n] {
					f.read = true
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readCompared(typeOf(n.X))
				}
			case *ast.IndexExpr:
				if m, ok := types.Unalias(typeOf(n.X)).Underlying().(*types.Map); ok {
					readCompared(m.Key())
				}
			case *ast.CallExpr:
				tv := info.Types[n.Fun]
				if tv.IsType() {
					boxed(tv.Type, n.Args[0])
					return true
				}
				sig, ok := types.Unalias(tv.Type).Underlying().(*types.Signature)
				if !ok || tv.IsBuiltin() {
					return true
				}
				params := sig.Params()
				for i, arg := range n.Args {
					switch {
					case sig.Variadic() && i >= params.Len()-1:
						pt := params.At(params.Len() - 1).Type()
						if n.Ellipsis == token.NoPos {
							pt = pt.(*types.Slice).Elem()
						}
						boxed(pt, arg)
					case i < params.Len():
						boxed(params.At(i).Type(), arg)
					}
				}
			}
			return true
		}
		for _, f := range files {
			ast.Inspect(f, visit)
		}
	}
	for _, p := range paths {
		g := l.pkgs[p]
		walk(g.info, g.files, true)
		if len(g.tests) > 0 {
			_, info, err := l.check(g.path, append(append([]*ast.File{}, g.files...), g.tests...))
			if err != nil {
				return nil, err
			}
			walk(info, g.tests, false)
		}
		if len(g.xtests) > 0 {
			_, info, err := l.check(g.path+"_test", g.xtests)
			if err != nil {
				return nil, err
			}
			walk(info, g.xtests, false)
		}
	}
	return fields, nil
}
