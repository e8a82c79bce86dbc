package cellcars_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	codeSpan   = regexp.MustCompile("(?s)```.*?```|`[^`]+`") // a fenced block or an inline span
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	treePath   = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples|bench)/[\w./*-]*)`)
	makeTarget = regexp.MustCompile(`(?:^|[^\w-])make ([a-z][\w-]*)`)
	metricName = regexp.MustCompile(`\bcellcars_[a-z0-9_]*`)
	ruleLine   = regexp.MustCompile(`(?m)^([\w-]+):`)
	// flagRef is a command-line flag of two or more letters; a one-letter
	// one (-o, -s, -c) is as often curl's, head's or the shell's.
	flagRef = regexp.MustCompile("(?:^|[\\s(\\[`])-([a-z][a-z0-9-]+)")
	// goRef is pkg.Name with an exported Name, and the .Member after it
	// if one follows: a reference to Go code when pkg is one of the
	// module's packages.
	goRef = regexp.MustCompile(`(?:^|[^\w./-])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
)

// goFlags are the go toolchain flags the documents name, which no main
// package of the module registers.
var goFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "count": true, "cover": true, "coverprofile": true,
	"cpu": true, "cpuprofile": true, "fuzz": true, "fuzztime": true, "memprofile": true, "pgo": true,
	"race": true, "run": true, "short": true, "timeout": true,
}

// flagFuncs are the flag package's registering functions, by whether
// the flag's name is their second argument (the *Var forms) or first.
var flagFuncs = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1, "StringVar": 1,
	"TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

// docIndex is what the documents' references are held to: the
// Test/Benchmark/Fuzz functions the _test.go files declare, the
// Makefile's targets, the metric names non-test code spells and the
// ones it registers with an obs.Registry, the flags the binaries
// register, the root .gitignore's patterns, and what the module's
// packages declare outside _test.go files.
type docIndex struct {
	funcs, targets, metrics, registered, flags map[string]bool
	gitignore                                  []string
	// decls holds "pkg.Name" for every package-level type, func, const
	// and var of package pkg (cellcars at the root, else the name of its
	// internal/ directory); pkgs holds every such pkg.
	decls, pkgs map[string]bool
	// members maps "pkg.Type" to its methods and fields (an interface's
	// methods too), and embeds to the "pkg.Type"s whose members it has
	// as well: those it embeds, or the one it is an alias of.
	members map[string]map[string]bool
	embeds  map[string][]string
}

// typeKey returns "pkg.Type" for a type expression in package pkg that
// names one of the module's types, through pointers and type arguments.
func typeKey(pkg string, e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return pkg + "." + t.Name
		case *ast.SelectorExpr:
			if x, ok := t.X.(*ast.Ident); ok {
				return x.Name + "." + t.Sel.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// declare indexes what package pkg's non-test file f declares.
func (ix *docIndex) declare(pkg string, f *ast.File) {
	ix.pkgs[pkg] = true
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.decls[pkg+"."+d.Name.Name] = true
			} else {
				member(typeKey(pkg, d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for i, name := range s.Names {
						ix.decls[pkg+"."+name.Name] = true
						typ := s.Type
						if typ == nil && i < len(s.Values) {
							if lit, ok := s.Values[i].(*ast.CompositeLit); ok {
								typ = lit.Type
							}
						}
						if t, ok := typ.(*ast.StructType); ok { // a var of a struct type of its own
							for _, field := range t.Fields.List {
								for _, fn := range field.Names {
									member(pkg+"."+name.Name, fn.Name)
								}
							}
						}
					}
				case *ast.TypeSpec:
					key := pkg + "." + s.Name.Name
					ix.decls[key] = true
					var fields []*ast.Field
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					default:
						if s.Assign != 0 {
							ix.embeds[key] = append(ix.embeds[key], typeKey(pkg, t))
						}
					}
					for _, field := range fields {
						for _, name := range field.Names {
							member(key, name.Name)
						}
						if len(field.Names) == 0 {
							ix.embeds[key] = append(ix.embeds[key], typeKey(pkg, field.Type))
						}
					}
				}
			}
		}
	}
}

// hasMember reports whether typ, or a type it embeds or aliases, has
// the method or field name.
func (ix *docIndex) hasMember(typ, name string) bool {
	seen := map[string]bool{}
	for todo := []string{typ}; len(todo) > 0; {
		t := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if seen[t] {
			continue
		}
		seen[t] = true
		if ix.members[t][name] {
			return true
		}
		todo = append(todo, ix.embeds[t]...)
	}
	return false
}

// stringArg returns call's i-th argument when it is a string literal.
func stringArg(call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// calls calls fn with the method or package-function name and the call
// of every selector call in f.
func calls(f *ast.File, fn func(name string, call *ast.CallExpr)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				fn(sel.Sel.Name, call)
			}
		}
		return true
	})
}

// flagPackage reports whether the non-test file at p belongs to a main
// package whose flags the documents may name: a binary under cmd/, the
// shared study flags, or the benchmark's driver.
func flagPackage(p string) bool {
	for _, dir := range []string{"cmd/", "internal/studyflags/", "bench/carbench/"} {
		if strings.HasPrefix(p, dir) {
			return true
		}
	}
	return false
}

// indexTree walks the tree once for the functions, the metric names and
// the flags, and reads the Makefile's rules and .gitignore.
func indexTree(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{funcs: map[string]bool{}, targets: map[string]bool{}, metrics: map[string]bool{},
		registered: map[string]bool{}, flags: map[string]bool{}, decls: map[string]bool{}, pkgs: map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	if err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(p, "_test.go") {
			if flagPackage(p) {
				calls(f, func(name string, call *ast.CallExpr) {
					if i, ok := flagFuncs[name]; ok {
						if flag, ok := stringArg(call, i); ok {
							ix.flags[flag] = true
						}
					}
				})
			}
			if strings.HasPrefix(p, "bench/") { // names metrics, registers none
				return nil
			}
			switch dir := filepath.Dir(p); {
			case dir == ".":
				ix.declare("cellcars", f)
			case filepath.Dir(dir) == "internal":
				ix.declare(filepath.Base(dir), f)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil && metricName.FindString(name) == name && name != "" {
						ix.metrics[name] = true
					}
				}
				return true
			})
			calls(f, func(name string, call *ast.CallExpr) {
				switch name {
				case "Counter", "Gauge", "GaugeFunc", "Timing":
					if metric, ok := stringArg(call, 0); ok && strings.HasPrefix(metric, "cellcars_") {
						ix.registered[metric] = true
					}
				}
			})
			return nil
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				ix.funcs[fd.Name.Name] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ruleLine.FindAllStringSubmatch(string(makefile), -1) {
		ix.targets[m[1]] = true
	}
	gitignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range strings.Split(string(gitignore), "\n") {
		if pat = strings.Trim(pat, "/ "); pat != "" && pat[0] != '#' {
			ix.gitignore = append(ix.gitignore, pat)
		}
	}
	return ix
}

func (ix *docIndex) nameExists(name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		prefix, ok = strings.CutSuffix(name, "N")
	}
	for f := range ix.funcs {
		if f == name || ok && strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// pathExists: p may be a glob, and a path under a .gitignore pattern
// passes.
func (ix *docIndex) pathExists(p string) bool {
	if matches, _ := filepath.Glob(p); len(matches) > 0 {
		return true
	}
	for _, pat := range ix.gitignore {
		if p == pat || strings.HasPrefix(p, pat+"/") {
			return true
		}
	}
	return false
}

// metricExists: a name is a registered one; one ending in "_" or
// followed by "*", "{" or "<" is a family, which passes when a
// registered name starts with it.
func (ix *docIndex) metricExists(name string, next byte) bool {
	if strings.HasSuffix(name, "_") || strings.IndexByte("*{<", next) >= 0 {
		for m := range ix.metrics {
			if strings.HasPrefix(m, name) {
				return true
			}
		}
		return false
	}
	return ix.metrics[name]
}

// staleRefs returns, as "doc:line: ref", every reference in text's
// backticked spans to what ix lacks: a Test/Benchmark/Fuzz name (one
// ending in "*" or in a capital N, as BenchmarkFigureN, is a prefix), an
// internal/, cmd/, examples/ or bench/ path, a `make <target>`, a
// cellcars_ metric name, a -flag that no binary registers and the go
// toolchain does not take (goFlags), or a pkg.Name or pkg.Type.Member of
// one of the module's packages that its non-test code does not declare.
// A span the text calls "since-removed" passes.
func staleRefs(doc, text string, ix *docIndex) []string {
	var stale []string
	for _, loc := range codeSpan.FindAllStringIndex(text, -1) {
		if strings.HasSuffix(strings.TrimSpace(text[max(0, loc[0]-20):loc[0]]), "since-removed") {
			continue
		}
		span := text[loc[0]:loc[1]]
		at := func(i int) string { return doc + ":" + strconv.Itoa(1+strings.Count(text[:loc[0]+i], "\n")) + ": " }
		for _, m := range testName.FindAllStringIndex(span, -1) {
			if name := span[m[0]:m[1]]; !ix.nameExists(name) {
				stale = append(stale, at(m[0])+name)
			}
		}
		for _, m := range treePath.FindAllStringSubmatchIndex(span, -1) {
			if ref := span[m[2]:m[3]]; !ix.pathExists(strings.TrimRight(ref, "./")) {
				stale = append(stale, at(m[2])+ref)
			}
		}
		for _, m := range makeTarget.FindAllStringSubmatchIndex(span, -1) {
			if target := span[m[2]:m[3]]; !ix.targets[target] {
				stale = append(stale, at(m[2])+"make "+target)
			}
		}
		for _, m := range metricName.FindAllStringIndex(span, -1) {
			var next byte
			if m[1] < len(span) {
				next = span[m[1]]
			}
			if name := span[m[0]:m[1]]; !ix.metricExists(name, next) {
				stale = append(stale, at(m[0])+name)
			}
		}
		for _, m := range flagRef.FindAllStringSubmatchIndex(span, -1) {
			if name := span[m[2]:m[3]]; !ix.flags[name] && !goFlags[name] {
				stale = append(stale, at(m[2])+"-"+name)
			}
		}
		for _, m := range goRef.FindAllStringSubmatchIndex(span, -1) {
			pkg, name := span[m[2]:m[3]], span[m[2]:m[5]]
			switch {
			case !ix.pkgs[pkg]:
			case !ix.decls[name]:
				stale = append(stale, at(m[2])+name)
			case m[6] >= 0 && !ix.hasMember(name, span[m[6]:m[7]]):
				stale = append(stale, at(m[2])+span[m[2]:m[7]])
			}
		}
	}
	return stale
}

// TestDocReferencesExist fails when README, DESIGN, EXPERIMENTS or the
// verify notes name, in backticks, a Test/Benchmark/Fuzz function that no
// _test.go file declares, an internal/, cmd/, examples/ or bench/ path
// that is not in the tree, a make target the Makefile lacks, a
// cellcars_ metric that no non-test code registers, a flag that no
// binary registers or Go code of the module that is not there
// (staleRefs).
func TestDocReferencesExist(t *testing.T) {
	ix := indexTree(t)
	var stale []string
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		stale = append(stale, staleRefs(doc, string(data), ix)...)
	}
	if sort.Strings(stale); len(stale) > 0 {
		t.Errorf("%d references to what the tree does not have (mend the text, or say \"since-removed\" before it):\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}

// TestDocReferencesCatchPlantedNames plants one stale reference of each
// kind beside live ones of the same kinds: staleRefs must name exactly
// the stale ones.
func TestDocReferencesCatchPlantedNames(t *testing.T) {
	ix := indexTree(t)
	text := "Run `make ci`, then `make no-such-target`.\n" +
		"```sh\nmake race && make bench-micro\n```\n" +
		"Read `cellcars_query_rollups`, the `cellcars_stage_*` family\n" +
		"and `cellcars_query_no_such_metric_total`; see `TestDocReferencesExist`, `TestNoSuchThing`,\n" +
		"`internal/query/window.go` and `internal/query/no_such_file.go`.\n" +
		"The since-removed `make gone-target` passes.\n" +
		"Run `caranalyze -in f.cdr -no-such-flag -days=14`, `go test -run x -benchtime 1x`,\n" +
		"```sh\ncardrive -workdir w -attempt-timeout 5s -stale-flag f.cdr\ncurl -s x\n```\n" +
		"Call `analysis.StreamReportOf`, `snapshot.FS.SyncDir`, `cellcars.Scene.GenerateAll` and `time.Time.Compare`,\n" +
		"not `synth.GenerateParallel` or `cdr.Record.Hash`.\n"
	want := []string{
		"planted:1: make no-such-target",
		"planted:6: cellcars_query_no_such_metric_total",
		"planted:6: TestNoSuchThing",
		"planted:7: internal/query/no_such_file.go",
		"planted:9: -no-such-flag",
		"planted:11: -stale-flag",
		"planted:15: synth.GenerateParallel",
		"planted:15: cdr.Record.Hash",
	}
	got := staleRefs("planted", text, ix)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("staleRefs on planted text named\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// metricRows returns the metric names DESIGN §7's tables give a row:
// each backticked cellcars_ name in a row's first cell, and a shorthand
// after one, as `_misses_total` after `cellcars_query_cache_hits_total`,
// standing for that name with as many trailing parts replaced.
func metricRows(design string) []string {
	sec, _, _ := strings.Cut(design[strings.Index(design, "\n## 7. "):], "\n## 8. ")
	var names []string
	for _, line := range strings.Split(sec, "\n") {
		cell, _, ok := strings.Cut(strings.TrimPrefix(line, "| "), " |")
		if !ok || !strings.HasPrefix(cell, "`cellcars_") {
			continue
		}
		var prev string
		for _, tok := range strings.Split(cell, "`") {
			switch {
			case strings.HasPrefix(tok, "cellcars_"):
				prev = tok
			case strings.HasPrefix(tok, "_") && prev != "":
				parts := strings.Split(prev, "_")
				tok = strings.Join(parts[:len(parts)-strings.Count(tok, "_")], "_") + tok
			default:
				continue
			}
			names = append(names, tok)
		}
	}
	return names
}

// TestMetricTablesMatchRegistry holds DESIGN §7's metric tables to the
// code both ways: every metric non-test code registers with an
// obs.Registry has a row, and every row names a registered metric.
func TestMetricTablesMatchRegistry(t *testing.T) {
	ix := indexTree(t)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	var unregistered, missing []string
	for _, name := range metricRows(string(design)) {
		rows[name] = true
		if !ix.registered[name] {
			unregistered = append(unregistered, name)
		}
	}
	for name := range ix.registered {
		if !rows[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d registered metrics without a DESIGN §7 table row:\n  %s", len(missing), strings.Join(missing, "\n  "))
	}
	if len(unregistered) > 0 {
		t.Errorf("%d DESIGN §7 rows name no registered metric:\n  %s", len(unregistered), strings.Join(unregistered, "\n  "))
	}
}
