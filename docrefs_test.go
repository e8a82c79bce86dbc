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
)

// docIndex is what the documents' references are held to: the
// Test/Benchmark/Fuzz functions the _test.go files declare, the
// Makefile's targets, the metric names non-test code registers, and
// the root .gitignore's patterns.
type docIndex struct {
	funcs, targets, metrics map[string]bool
	gitignore               []string
}

// indexTree walks the tree once for the functions and the metric
// names, and reads the Makefile's rules and .gitignore.
func indexTree(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{funcs: map[string]bool{}, targets: map[string]bool{}, metrics: map[string]bool{}}
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
			if strings.HasPrefix(p, "bench/") { // names metrics, registers none
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil && metricName.FindString(name) == name && name != "" {
						ix.metrics[name] = true
					}
				}
				return true
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
// internal/, cmd/, examples/ or bench/ path, a `make <target>` or a
// cellcars_ metric name. A span the text calls "since-removed" passes.
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
	}
	return stale
}

// TestDocReferencesExist fails when README, DESIGN, EXPERIMENTS or the
// verify notes name, in backticks, a Test/Benchmark/Fuzz function that no
// _test.go file declares, an internal/, cmd/, examples/ or bench/ path
// that is not in the tree, a make target the Makefile lacks or a
// cellcars_ metric that no non-test code registers (staleRefs).
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
		"The since-removed `make gone-target` passes.\n"
	want := []string{
		"planted:1: make no-such-target",
		"planted:6: cellcars_query_no_such_metric_total",
		"planted:6: TestNoSuchThing",
		"planted:7: internal/query/no_such_file.go",
	}
	got := staleRefs("planted", text, ix)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("staleRefs on planted text named\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
