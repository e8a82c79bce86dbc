package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cellcars/bench/span"
)

// TestSmokeAllWorkloads runs the four workloads end to end and one
// traced run on tiny fleets with a single timed repetition. It is the
// check that every metric BENCHMARK.json names is still measured, and
// measured without a failed operation.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs them; skipped under -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	e := &env{root: root, out: tmp, work: filepath.Join(tmp, "work"), seed: 3, size: sizes["smoke"]}
	in, setupSecs, err := setup(e, 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o := &ops{}
		s, err := w.run(e, in, 0, "", o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		s["setup_s"] = setupSecs
		wr := toResult(w.name, s, o, sp)
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %+v", w.name, wr.Failed, wr.Attempted, wr.Checks)
		}
		for _, m := range sp.EndToEnd {
			if got, ok := wr.Metrics[m.Name]; !ok || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, measured %v", w.name, m.Name, got.Value, ok)
			}
		}
	}

	wr, _, err := runTraced(e, workloads[2], sp)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Failed != 0 {
		t.Errorf("traced run: %d operations failed: %+v", wr.Failed, wr.Checks)
	}
	for _, m := range sp.PerLayer {
		if _, ok := wr.Metrics[m.Name]; !ok {
			t.Errorf("traced run did not measure per-layer metric %s", m.Name)
		}
	}
	if got := wr.Metrics["drive.retries"].Value; got != 0 {
		t.Errorf("drive.retries = %v, want 0", got)
	}
	if got := wr.Metrics["cdr.resilient.quarantined"].Value; got != float64(in.Injected) {
		t.Errorf("cdr.resilient.quarantined = %v, injected %d", got, in.Injected)
	}

	f, err := os.Open(filepath.Join(tmp, "trace-shards.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span.Span
	perWorkload := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.Name == "" || s.EndUS < s.StartUS {
			t.Errorf("malformed span %+v", s)
		}
		perWorkload[s.Workload]++
		spans = append(spans, s)
	}
	for _, w := range workloads {
		if perWorkload[w.name] == 0 {
			t.Errorf("no span names workload %s", w.name)
		}
	}
	if len(perWorkload) != len(workloads) {
		t.Errorf("spans name workloads %v, want exactly the four", perWorkload)
	}
	if len(spans) < 20 {
		t.Fatalf("%d spans written, expected the lap, the drive attempts and the layer passes", len(spans))
	}
	for id, self := range span.SelfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %d", id, self)
		}
	}
}
