package cellcars_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachabilityAllow lists what may stay although no binary, example or
// facade export reaches it, each entry with its reason. An entry keeps
// its own declarations only: what it mentions must be reached some
// other way, so a harness cannot keep alive what only it calls. A key is a directory, a file, "<directory>.<Name>" or,
// for a method, "<directory>.<Type>.<Method>".
var reachabilityAllow = map[string]string{
	"internal/cdr/chaos.go":    "fault-injection harness imported by the tests of analysis and drive",
	"internal/clitest":         "process harness imported by the tests of cmd/* and drive: how a test starts a binary",
	"internal/clean/clean.go":  "pinned by bench/README.md: layertrace times clean.NewSessionizer, Add and Flush; ROADMAP item 21 (c) deletes them after 2 (d)",
	"internal/cdr.OpenFile":    "pinned by bench/README.md: layertrace opens its inputs through it; the binaries open theirs through OpenFiles and OpenShard, which share its openFile",
	"internal/drive/chaos.go":  "fault-injection harness imported by cmd/cardrive's tests",
	"internal/query.NewServer": "observation seam: cmd/carqueryd's tests read the store through it",

	"internal/load.SaturationResult.PeakTestUtilization": "Figure 1's saturation level, read by the root bench_test.go and load's tests",
	"internal/simtime.WeekMatrix.ActiveCells":            "read by the root bench_test.go and simtime's tests",
	"internal/simtime.Period.BinIndex":                   "the inverse of BinStart, read by simtime's round-trip test",
	"internal/simtime.HourOfWeek":                        "the time.Time arbiter internal/analysis/hours_arbiter_test.go holds the engine's hour-of-week to",
	"internal/stats.Histogram.Total":                     "read by the tests of stats, analysis and the root integration test",
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdMethods are the method names standard-library interfaces call —
// fmt.Stringer, error, io, sort and heap, json and text marshalling,
// http.Handler, flag.Value, errors' chains — which a method may exist to
// implement with no selector in the module naming it.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true, "Format": true,
	"Read": true, "Write": true, "Close": true, "Sync": true, "Seek": true, "ReadByte": true, "Flush": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Set": true,
}

// TestNothingUnreachable keeps ROADMAP aim 2 true: every package-level
// func, type, var and const outside _test.go files is reached from main
// or init of a binary under cmd/ or examples/, or from an exported name
// of package cellcars, an edge being any identifier a declaration
// mentions; what a method mentions, its receiver's type mentions. An
// allowlisted declaration is kept but is no root: what it mentions is
// reached only if it is. A
// method counts as reached by name — some selector in the module's
// non-test code names it, or it is a standard-interface method
// (stdMethods) — because which one an interface call reaches takes a
// pointer analysis the standard library does not have.
func TestNothingUnreachable(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{} // module-relative directory -> its non-test files
	if err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch p = filepath.ToSlash(p); {
		case err != nil:
			return err
		case d.IsDir() && (p == "bench" || p != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir // bench/ is a module of its own
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		dirs[path.Dir(p)] = append(dirs[path.Dir(p)], f)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Module packages are checked from the parsed files, so an object used
	// in one package is the object another defines; the rest is the standard
	// library's source, found through build.Default: cgo off, no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	std, pkgs := importer.ForCompiler(fset, "source", nil), map[string]*types.Package{}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var load importerFunc
	load = func(ipath string) (pkg *types.Package, err error) {
		dir, inModule := strings.CutPrefix(ipath, "cellcars")
		if !inModule || dir != "" && dir[0] != '/' {
			return std.Import(ipath)
		}
		if pkg = pkgs[ipath]; pkg == nil {
			pkg, err = (&types.Config{Importer: load}).Check(ipath, fset, dirs[path.Join(".", dir)], info)
			pkgs[ipath] = pkg
		}
		return pkg, err
	}
	for dir := range dirs {
		if _, err := load(path.Join("cellcars", dir)); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
	}
	mentions, declared, roots := map[types.Object][]types.Object{}, map[types.Object]bool{}, []types.Object{}
	kept := map[types.Object]bool{} // allowlisted: not dead, but no root either
	selected := map[string]bool{}   // every name a selector in non-test code selects
	var methods []*ast.FuncDecl     // every method not on the allowlist
	for dir, files := range dirs {
		binary := strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")
		allowed := func(node ast.Node, name string) bool {
			return reachabilityAllow[dir] != "" || reachabilityAllow[fset.Position(node.Pos()).Filename] != "" ||
				reachabilityAllow[dir+"."+name] != ""
		}
		declare := func(o types.Object, node ast.Node) { // node is (part of) o's declaration
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					mentions[o] = append(mentions[o], info.Uses[id])
				}
				return true
			})
			if binary && (o.Name() == "main" || o.Name() == "init") || dir == "." && o.Exported() {
				roots = append(roots, o)
			}
			kept[o] = kept[o] || allowed(node, o.Name())
			declared[o] = true
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.SelectorExpr); ok {
					selected[s.Sel.Name] = true
				}
				return true
			})
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					o := info.Defs[d.Name]
					if recv := o.Type().(*types.Signature).Recv(); recv != nil {
						rt := recv.Type()
						if p, ok := rt.(*types.Pointer); ok {
							rt = p.Elem()
						}
						o = rt.(*types.Named).Obj()
						if !allowed(d, o.Name()+"."+d.Name.Name) {
							methods = append(methods, d)
						}
					}
					declare(o, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if s, ok := spec.(*ast.TypeSpec); ok {
							declare(info.Defs[s.Name], s)
						} else if s, ok := spec.(*ast.ValueSpec); ok {
							for _, name := range s.Names {
								declare(info.Defs[name], s)
							}
						}
					}
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	for i := 0; i < len(roots); i++ {
		if o := roots[i]; !reached[o] {
			reached[o] = true
			roots = append(roots, mentions[o]...)
		}
	}
	var dead []string
	for o := range declared {
		if !reached[o] && !kept[o] && o.Name() != "_" {
			dead = append(dead, fset.Position(o.Pos()).String()+": "+o.Name())
		}
	}
	for _, d := range methods {
		if name := d.Name.Name; !selected[name] && !stdMethods[name] {
			dead = append(dead, fset.Position(d.Name.Pos()).String()+": method "+name)
		}
	}
	if sort.Strings(dead); len(dead) > 0 {
		t.Errorf("%d declarations that no binary, example or facade export reaches "+
			"(delete each, or allow it in reachabilityAllow with its reason):\n  %s", len(dead), strings.Join(dead, "\n  "))
	}
}
