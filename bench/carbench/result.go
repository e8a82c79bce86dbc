package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// spec is BENCHMARK.json: the one place that names the workloads and
// the metrics, gives each metric its unit and direction, and fixes the
// bound an end-to-end metric may worsen by. carbench reads it at run
// time rather than restating it, so the two cannot drift.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// Cohort is the hardware and toolchain a result was measured on. Two
// results compare only within one cohort.
type Cohort struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func cohort() Cohort {
	c := Cohort{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				c.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return c
}

// commit names the measured revision; a checkout that is not a git
// repository (the driver's) has none.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Measure is one metric's value with the samples behind it: Value is
// their median (a count repeats exactly, so its quartiles coincide).
type Measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Summary
	// Tail is the highest percentile with at least ten samples beyond
	// it, present when the metric has that many.
	Tail *Tail `json:"tail,omitempty"`
}

// Tail is one tail percentile of a metric's samples.
type Tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

func measure(xs []float64, unit string) Measure {
	m := Measure{Unit: unit, Summary: summarize(xs)}
	m.Value = m.Median
	if p, ok := topPercentile(len(xs)); ok {
		m.Tail = &Tail{Percentile: p, Value: percentile(xs, p)}
	}
	return m
}

// WorkloadResult is one workload's run: what it attempted, which
// checks it made, and every metric it measured, by name.
type WorkloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []Check            `json:"checks"`
	Metrics   map[string]Measure `json:"metrics"`
	// Skipped names measurements that need more cores than the box
	// has, with the reason; they are never estimated.
	Skipped map[string]string `json:"skipped,omitempty"`
}

// Result is the file a run leaves in bench/out and the unit -compare
// and -md work on.
type Result struct {
	Cohort    Cohort           `json:"cohort"`
	Commit    string           `json:"commit"`
	Seed      uint64           `json:"seed"`
	Size      string           `json:"size"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	MinReps   int              `json:"min_reps"`
	Inputs    []InputFile      `json:"inputs"`
	Workloads []WorkloadResult `json:"workloads"`
}

func (r *Result) workload(name string) *WorkloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics lists a workload's metrics by name with their units,
// the spec's metrics first and in the spec's order.
func printMetrics(w io.Writer, wr *WorkloadResult, listed []specMetric) {
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
	for _, c := range wr.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-44s %s\n", c.Name, verdict)
	}
	for _, sm := range listed {
		m, ok := wr.Metrics[sm.Name]
		if !ok {
			fmt.Fprintf(w, "  %-44s absent\n", sm.Name)
			continue
		}
		fmt.Fprintf(w, "  %-44s %14.4f %-6s n=%d q1=%.4f q3=%.4f", sm.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		if m.Tail != nil {
			fmt.Fprintf(w, " p%g=%.4f", m.Tail.Percentile, m.Tail.Value)
		}
		fmt.Fprintln(w)
	}
	for name, why := range wr.Skipped {
		fmt.Fprintf(w, "  %-44s skipped: %s\n", name, why)
	}
}

// lastLine prints the one JSON object the driver reads: the run's
// verdict and exactly the listed metrics.
func lastLine(w io.Writer, wr *WorkloadResult, listed []specMetric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]mv{}}
	for _, sm := range listed {
		m, ok := wr.Metrics[sm.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", wr.Name, sm.Name)
		}
		out.Metrics[sm.Name] = mv{Value: m.Value, Unit: sm.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
