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
	codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`]+`") // a fenced block or an inline span
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	treePath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples|bench)/[\w./*-]*)`)
)

// TestDocReferencesExist fails when README, DESIGN, EXPERIMENTS or the
// verify notes name, in backticks, a Test/Benchmark/Fuzz function that no
// _test.go file declares, or an internal/, cmd/, examples/ or bench/ path
// that is not in the tree. A name ending in "*" or in a capital N
// (BenchmarkFigureN) is a prefix and a path may be a glob. A path under a
// root .gitignore pattern passes, and so does a span the text calls
// "since-removed".
func TestDocReferencesExist(t *testing.T) {
	funcs := map[string]bool{}
	if err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	nameExists := func(name string) bool {
		prefix, ok := strings.CutSuffix(name, "*")
		if !ok {
			prefix, ok = strings.CutSuffix(name, "N")
		}
		for f := range funcs {
			if f == name || ok && strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}
	pathExists := func(p string) bool { // p may be a glob
		matches, _ := filepath.Glob(p)
		return len(matches) > 0
	}
	gitignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	ignored := func(p string) bool {
		for _, pat := range strings.Split(string(gitignore), "\n") {
			if pat = strings.Trim(pat, "/ "); pat != "" && pat[0] != '#' && (p == pat || strings.HasPrefix(p, pat+"/")) {
				return true
			}
		}
		return false
	}
	var stale []string
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, loc := range codeSpan.FindAllStringIndex(text, -1) {
			if strings.HasSuffix(strings.TrimSpace(text[max(0, loc[0]-20):loc[0]]), "since-removed") {
				continue
			}
			span := text[loc[0]:loc[1]]
			at := func(i int) string { return doc + ":" + strconv.Itoa(1+strings.Count(text[:loc[0]+i], "\n")) + ": " }
			for _, m := range testName.FindAllStringIndex(span, -1) {
				if name := span[m[0]:m[1]]; !nameExists(name) {
					stale = append(stale, at(m[0])+name)
				}
			}
			for _, m := range treePath.FindAllStringSubmatchIndex(span, -1) {
				ref := span[m[2]:m[3]]
				if p := strings.TrimRight(ref, "./"); !pathExists(p) && !ignored(p) {
					stale = append(stale, at(m[2])+ref)
				}
			}
		}
	}
	if sort.Strings(stale); len(stale) > 0 {
		t.Errorf("%d references to what the tree does not have (mend the text, or say \"since-removed\" before it):\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}
