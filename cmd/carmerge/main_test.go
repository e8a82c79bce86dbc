package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clitest"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// TestMain makes the test binary the real carmerge when CARMERGE_MAIN
// is set, so the refusal tests see the actual exit codes and stderr a
// user would.
func TestMain(m *testing.M) { clitest.Main(m, "CARMERGE_MAIN", main) }

func carmerge(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	out, errb, code := clitest.Run(t, clitest.Command("CARMERGE_MAIN", args...))
	return string(out), string(errb), code
}

// writePartial accumulates one record per given car into a partial
// snapshot at path.
func writePartial(t *testing.T, path string, cars ...cdr.CarID) {
	t.Helper()
	writePartialFailing(t, path, "", cars...)
}

// writePartialFailing is writePartial with one analysis stage failed
// by the chaos hook, the way a worker's partial carries a stage that
// panicked on its shard.
func writePartialFailing(t *testing.T, path, failStage string, cars ...cdr.CarID) {
	t.Helper()
	ctx := analysis.Context{
		Period:          simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14),
		TZOffsetSeconds: -5 * 3600,
	}
	acc := analysis.NewStreamingWithOptions(ctx, analysis.RunOptions{Seed: 1, FailStage: failStage})
	start := time.Date(2017, 1, 3, 8, 0, 0, 0, time.UTC)
	for i, car := range cars {
		acc.Add(cdr.Record{
			Car:      car,
			Cell:     radio.MakeCellKey(radio.BSID(i), 0, radio.C1),
			Start:    start.Add(time.Duration(i) * time.Hour),
			Duration: 5 * time.Minute,
		})
	}
	if err := acc.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
}

// TestRefusesCarOverlap: partials sharing a car double-count it, so
// carmerge must refuse unless -allow-overlap accepts that.
func TestRefusesCarOverlap(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.snap")
	b := filepath.Join(dir, "b.snap")
	writePartial(t, a, 1, 2)
	writePartial(t, b, 2, 3)

	_, stderr, code := carmerge(t, a, b)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "share") {
		t.Fatalf("stderr does not name the shared-car refusal:\n%s", stderr)
	}

	stdout, stderr, code := carmerge(t, "-allow-overlap", a, b)
	if code != 0 {
		t.Fatalf("-allow-overlap exit code = %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "== Preprocessing") {
		t.Fatalf("-allow-overlap produced no report:\n%s", stdout)
	}
}

// TestRefusesCarOverlapWithoutConnected: the overlap is read off each
// partial's car table, not off one stage's state, so partials whose
// connected stage failed are refused for sharing a car like any others.
// carmerge used to find no car set to compare, and merged them.
func TestRefusesCarOverlapWithoutConnected(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.snap")
	b := filepath.Join(dir, "b.snap")
	writePartialFailing(t, a, "connected", 1, 2)
	writePartialFailing(t, b, "connected", 2, 3)

	_, stderr, code := carmerge(t, a, b)
	if code != 1 || !strings.Contains(stderr, "partials share 1 cars") {
		t.Fatalf("exit code = %d, want 1 naming the one shared car; stderr:\n%s", code, stderr)
	}
}

// TestRefusesTruncatedPartial: a partial cut short mid-frame must be
// rejected as a bad snapshot, not half-merged.
func TestRefusesTruncatedPartial(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	writePartial(t, good, 1, 2, 3)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.snap")
	if err := os.WriteFile(cut, data[:len(data)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}

	_, stderr, code := carmerge(t, cut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "snapshot") {
		t.Fatalf("stderr does not mention the snapshot failure:\n%s", stderr)
	}
}

// TestRefusesBitFlippedPartial: a single flipped bit must trip the
// per-frame CRC and reject the file.
func TestRefusesBitFlippedPartial(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	writePartial(t, good, 1, 2, 3)
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, stderr, code := carmerge(t, bad)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "snapshot") {
		t.Fatalf("stderr does not mention the snapshot failure:\n%s", stderr)
	}
}

// TestRefusesVersion1Partial: a partial written before snapshot
// version 5 — version 1, 2, 3 or 4 — is refused, naming the version and
// the remedy, even beside a current one.
func TestRefusesVersion1Partial(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	writePartial(t, good, 1, 2, 3)
	old := filepath.Join(dir, "old.snap")
	writePartial(t, old, 4, 5)
	data, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2, 3, 4} {
		data[len("CCARSNAP")] = version // the version uvarint behind the magic
		if err := os.WriteFile(old, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, code := carmerge(t, good, old)
		if code != 1 {
			t.Fatalf("version %d: exit code = %d, want 1; stderr: %s", version, code, stderr)
		}
		for _, want := range []string{fmt.Sprintf("unsupported snapshot version %d (want 5;", version), "re-run from the input"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("stderr does not say %q:\n%s", want, stderr)
			}
		}
	}
}

// TestMergesDegradedPartial: a partial whose days stage failed leaves
// the merged report without a days histogram. carmerge used to
// dereference it (SIGSEGV, exit 2); the degraded report must come out
// whole, with the hole named, and exit 0.
func TestMergesDegradedPartial(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.snap")
	b := filepath.Join(dir, "b.snap")
	writePartial(t, a, 1, 2)
	writePartialFailing(t, b, "days", 3, 4)

	stdout, stderr, code := carmerge(t, a, b)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		`!! Figure 6 skipped: analysis stage "days" failed: injected failure`,
		"== Figure 2 / Table 1", "== Fleet usage", "== Figure 9", "== Table 3",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("merged report lacks %q:\n%s", want, stdout)
		}
	}
}
