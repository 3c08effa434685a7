package pdftsp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestAPIGuard is `make api-guard`: every exported name declared in a
// non-test file of the root package, internal/ or cmd/ must be named by
// some non-test file — the module's own, examples/ or the benchmark/
// module. Production code that only tests drive is deleted, not kept for
// its tests; apiAllowed lists what stays anyway, each with its reason.
//
// A package-level name counts as named when another package selects it
// through its import (pkg.Name) or a file of its own package uses it
// bare. A method counts when any selector names it, when an interface
// declares it, or when the standard library calls it through one of its
// interfaces (stdlibMethods). Matching methods by name alone under-counts:
// a shared method name hides a dead one.
func TestAPIGuard(t *testing.T) {
	decls, used, methods := scanAPI(t, ".")
	var unnamed []string
	for _, d := range decls {
		if d.method != "" {
			if methods[d.method] {
				continue
			}
		} else if used[d.key] {
			continue
		}
		if _, ok := apiAllowed[d.key]; !ok {
			unnamed = append(unnamed, d.pos+": "+d.key)
		}
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
	}
	for key := range apiAllowed {
		if !declared[key] {
			unnamed = append(unnamed, "allowlisted but not declared: "+key)
		}
	}
	sort.Strings(unnamed)
	for _, u := range unnamed {
		t.Errorf("api-guard: %s is named by no non-test file; give it a caller, delete it, or allowlist it with a reason", u)
	}
	t.Logf("api-guard: %d exported names, %d allowlisted", len(decls), len(apiAllowed))
}

// apiAllowed holds the exported names that no non-test file names, keyed
// as the scan prints them (module-relative directory, then the name;
// Type.Method for a method), each with the reason it stays.
var apiAllowed = map[string]string{
	"internal/core.Scheduler.Options":        "the calibrated α/β a built stack runs with; internal/config's recipe digests read them back",
	"internal/faults.Generate":               allowFixture,
	"internal/faults.Plan.CheckpointFaultAt": allowFixture,
	"internal/service.Broker.SubmitAsync":    "the asynchronous intake of pdftsp.Broker, the root package's broker; ExampleNewBroker shows it",
	"pdftsp.BrokerStatus":                    allowFacade,
	"pdftsp.Decision":                        allowFacade,
	"pdftsp.DefaultTitanBudget":              allowFacade,
	"pdftsp.DiurnalPrice":                    allowFacade,
	"pdftsp.DualState":                       allowFacade,
	"pdftsp.Failure":                         allowFacade,
	"pdftsp.FlatPrice":                       allowFacade,
	"pdftsp.GPT2Medium":                      allowFacade,
	"pdftsp.LoadCheckpoint":                  allowFacade,
	"pdftsp.Model":                           allowFacade,
	"pdftsp.ModelGPT2Medium":                 allowFacade,
	"pdftsp.ModelGPT2Small":                  allowFacade,
	"pdftsp.NewBroker":                       allowFacade,
	"pdftsp.Observer":                        allowFacade,
	"pdftsp.Outcome":                         allowFacade,
	"pdftsp.Placement":                       allowFacade,
	"pdftsp.ReadCheckpoint":                  allowFacade,
	"pdftsp.ReasonCapacity":                  allowFacade,
	"pdftsp.ReasonFailedNode":                allowFacade,
	"pdftsp.ReasonNoSchedule":                allowFacade,
	"pdftsp.ReasonSurplus":                   allowFacade,
	"pdftsp.RejectReason":                    allowFacade,
	"pdftsp.RunCtx":                          allowFacade,
	"pdftsp.Schedule":                        allowFacade,
	"pdftsp.Terms":                           allowFacade,
	"pdftsp.TraceModelShare":                 allowFacade,
	"pdftsp.V100":                            allowFacade,
	"pdftsp.VendorQuote":                     allowFacade,
	"pdftsp.Window":                          allowFacade,
	"pdftsp.WithPrice":                       allowFacade,
}

// The reasons several apiAllowed entries share.
const (
	allowFacade  = "the root package's public API, for importers outside this module"
	allowFixture = "the fault-plan fixture sim's and service's tests share: a _test.go file is not importable across packages"
)

// stdlibMethods are the method names fmt and encoding/json call through
// their own interfaces (fmt.Stringer, error, encoding.TextMarshaler,
// json.Marshaler), so a method by one of these names needs no caller in
// this module.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// apiDecl is one exported name a checked package declares.
type apiDecl struct {
	key    string // dir.Name or dir.Type.Method
	method string // the method's name; "" for a package-level name
	pos    string
}

// scanAPI parses every Go file under root. It returns the exported names
// the checked directories declare in non-test files, the dir.Name keys
// non-test files use, and the method names they name.
func scanAPI(t *testing.T, root string) ([]apiDecl, map[string]bool, map[string]bool) {
	const module = "github.com/pdftsp/pdftsp"
	fset := token.NewFileSet()
	var decls []apiDecl
	used, methods := map[string]bool{}, map[string]bool{}
	for m := range stdlibMethods {
		methods[m] = true
	}
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		checked := dir == "." || strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		if dir == "." {
			dir = "pdftsp"
		}
		if checked {
			decls = append(decls, exportedDecls(fset, f, dir)...)
		}
		// Import name → the module-relative directory it selects from.
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(ip, module)
			if !ok {
				continue
			}
			rel = strings.TrimPrefix(rel, "/")
			if rel == "" {
				rel = "pdftsp"
			}
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = rel
		}
		collectUses(f, dir, imports, used, methods)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, used, methods
}

// exportedDecls lists f's exported top-level names and methods.
func exportedDecls(fset *token.FileSet, f *ast.File, dir string) []apiDecl {
	var out []apiDecl
	add := func(id *ast.Ident, key, method string) {
		if id.IsExported() {
			out = append(out, apiDecl{key: key, method: method, pos: fset.Position(id.Pos()).String()})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, dir+"."+d.Name.Name, "")
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if typ, ok := recv.(*ast.Ident); ok && typ.IsExported() {
				add(d.Name, dir+"."+typ.Name+"."+d.Name.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, dir+"."+s.Name.Name, "")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, dir+"."+id.Name, "")
					}
				}
			}
		}
	}
	return out
}

// collectUses records what f names: pkg.Name through an import of this
// module, bare names of its own package (dir), and method names through
// selectors and interface declarations. Declaring a name, a struct
// field's name and a method's receiver do not count as naming it.
func collectUses(f *ast.File, dir string, imports map[string]string, used, methods map[string]bool) {
	declIdents := map[*ast.Ident]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declIdents[d.Name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declIdents[s.Name] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declIdents[id] = true
					}
				}
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := imports[x.Name]; ok {
					used[rel+"."+n.Sel.Name] = true
					return false
				}
			}
			methods[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					methods[id.Name] = true
				}
				ast.Inspect(m.Type, visit)
			}
			return false
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.FuncDecl:
			// A method's receiver does not name its type.
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.Ident:
			if !declIdents[n] {
				used[dir+"."+n.Name] = true
			}
		}
		return true
	}
	for _, d := range f.Decls {
		ast.Inspect(d, visit)
	}
}
