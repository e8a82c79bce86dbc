package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellcars/internal/clitest"
)

// TestMain makes the test binary the real cargen when CARGEN_MAIN is
// set, so the tests see the exit codes and stderr a user would.
func TestMain(m *testing.M) { clitest.Main(m, "CARGEN_MAIN", main) }

func cargen(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	_, errb, code := clitest.Run(t, clitest.Command("CARGEN_MAIN", args...))
	return string(errb), code
}

// TestRefusesBadFlagsBeforeGenerating: a bad -format, a fleet of no
// cars or a world too small for one cell site (or not a number, or 0,
// which the generator would read as its default) is refused with exit 1
// and a message before the world is built, and no output file is
// created. A fleet this size takes seconds to generate, so a refusal
// that came after generation would also show in the stderr's "building
// world" line.
func TestRefusesBadFlagsBeforeGenerating(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-cars", "1600", "-days", "14", "-format", "bogus"}, `unknown -format "bogus"`},
		{[]string{"-cars", "0", "-days", "14"}, "-cars must be positive, got 0"},
		{[]string{"-cars", "-3", "-days", "14"}, "-cars must be positive, got -3"},
		{[]string{"-cars", "1600", "-days", "14", "-world", "0"}, "-world 0: want a finite side"},
		{[]string{"-cars", "1600", "-days", "14", "-world", "-10"}, "-world -10: want a finite side"},
		{[]string{"-cars", "1600", "-days", "14", "-world", "0.01"}, "-world 0.01: want a finite side"},
		{[]string{"-cars", "1600", "-days", "14", "-world", "NaN"}, "-world NaN: want a finite side"},
	} {
		out := filepath.Join(t.TempDir(), "cars.cdr")
		stderr, code := cargen(t, append(c.args, "-out", out)...)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming %q", c.args, code, stderr, c.want)
		}
		if strings.Contains(stderr, "building world") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: refused only after starting work: %q", c.args, stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: output file left behind (stat: %v)", c.args, err)
		}
	}
}

// TestWritesFleet: good flags write the file and say how many records.
func TestWritesFleet(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cars.csv")
	stderr, code := cargen(t, "-cars", "5", "-days", "7", "-world", "20", "-out", out)
	if code != 0 || !strings.Contains(stderr, "wrote ") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("car,")) {
		t.Fatalf("-out %s is not CSV: %.40q", out, b)
	}
}
