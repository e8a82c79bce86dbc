// Command carbench is the repository's benchmark. It builds the
// binaries, generates seeded inputs, runs a workload through the real
// programs (caranalyze, cardrive, carqueryd), checks every output, and
// prints every metric by name with its unit.
//
//	carbench -workload batch -seed 1 -seconds 16 -trace 0   # one workload, end to end
//	carbench -workload serve -seed 1 -trace 1                # the per-layer trace
//	carbench -seed 1                                         # all four workloads
//	carbench -compare a.json b.json                          # deltas against the bounds
//	carbench -md a.json                                      # results as a Markdown table
//
// An end-to-end run (-trace 0) measures with tracing off. A traced run
// (-trace 1) runs every workload with the binaries' own tracing on and
// the layertrace program over the same inputs, reports the per-layer
// metrics, and writes its spans to bench/out/trace-<workload>.jsonl.
// Either leaves its result in bench/out/result-<workload>[-trace].json.
//
// This program imports nothing from the repository: it reaches the
// system only through os/exec and net/http, so no refactor can break
// the half that produces the end-to-end numbers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"cellcars/bench/span"
)

// setupReps is how many times an end-to-end run sets up from nothing;
// setup_s is the median.
const setupReps = 3

// traceReps is the least number of timed repetitions a traced run
// makes of each workload: it exists to attribute time, not to gate.
const traceReps = 2

// options are carbench's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	size     string
	compare  bool
	md       string
	args     []string
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: batch, checkpoint, shards or serve (empty: all four)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of every generated input; the only source of randomness")
	flag.Float64Var(&opt.seconds, "seconds", 16, "how long a workload's timed repetitions go on, at least")
	flag.IntVar(&trace, "trace", 0, "1: the traced run that reports per-layer metrics; 0: end to end, tracing off")
	flag.StringVar(&opt.size, "size", "std", "fleet sizes: std, or smoke for a seconds-long self-test")
	flag.BoolVar(&opt.compare, "compare", false, "compare two result files given as arguments and exit")
	flag.StringVar(&opt.md, "md", "", "render this result file as Markdown tables and exit")
	flag.Parse()
	opt.traced, opt.args = trace == 1, flag.Args()
	if err := realMain(opt); err != nil {
		fmt.Fprintln(os.Stderr, "carbench:", err)
		os.Exit(1)
	}
}

// errFailed marks a run that finished and reported, but in which an
// operation or an output check failed.
var errFailed = errors.New("operations or output checks failed")

func realMain(opt options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	switch {
	case opt.compare:
		if len(opt.args) != 2 {
			return errors.New("-compare needs two result files")
		}
		return runCompare(os.Stdout, sp, opt.args[0], opt.args[1])
	case opt.md != "":
		res, err := readResult(opt.md)
		if err != nil {
			return err
		}
		renderMarkdown(os.Stdout, sp, res)
		return nil
	}

	size, ok := sizes[opt.size]
	if !ok {
		return fmt.Errorf("unknown -size %q", opt.size)
	}
	var selected []workload
	for _, w := range workloads {
		if opt.workload == "" || w.name == opt.workload {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -workload %q", opt.workload)
	}
	if opt.traced && len(selected) > 1 {
		// Every traced run is the same lap through all four workloads.
		return errors.New("-trace 1 needs -workload: the one whose tracing overhead to measure")
	}
	label := opt.workload
	if label == "" {
		label = "all"
	}
	out := filepath.Join(root, "bench", "out")
	e := &env{root: root, out: out, work: filepath.Join(out, "work-"+label), seed: opt.seed, size: size}
	defer os.RemoveAll(e.work)

	res := &Result{Cohort: cohort(), Commit: commit(root), Seed: opt.seed, Size: opt.size,
		Seconds: opt.seconds, Traced: opt.traced, MinReps: size.MinReps}
	listed := sp.EndToEnd
	if opt.traced {
		listed = sp.PerLayer
		res.MinReps = traceReps
	}
	var failed bool
	for _, w := range selected {
		var wr *WorkloadResult
		var in *inputs
		if opt.traced {
			wr, in, err = runTraced(e, w, sp)
		} else {
			wr, in, err = runEndToEnd(e, w, opt.seconds, sp)
		}
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		for _, f := range in.Files {
			if !slices.Contains(res.Inputs, f) {
				res.Inputs = append(res.Inputs, f)
			}
		}
		res.Workloads = append(res.Workloads, *wr)
		printMetrics(os.Stdout, wr, listed)
		failed = failed || wr.Failed > 0
	}
	suffix := ""
	if opt.traced {
		suffix = "-trace"
	}
	if err := writeJSON(filepath.Join(out, "result-"+label+suffix+".json"), res); err != nil {
		return err
	}
	if len(selected) == 1 {
		if err := lastLine(os.Stdout, &res.Workloads[0], listed); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json: the root of the checkout being measured.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above it")
		}
		dir = parent
	}
}

// units maps every metric the spec names to its unit.
func units(sp *spec) map[string]string {
	u := map[string]string{}
	for _, m := range sp.EndToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		u[m.Name] = m.Unit
	}
	return u
}

// toResult turns a workload's samples into measures. Only metrics the
// spec names are kept: the spec is the whole vocabulary.
func toResult(name string, s samples, o *ops, sp *spec) *WorkloadResult {
	wr := &WorkloadResult{Name: name, Attempted: o.attempted, Failed: o.failed, Checks: o.checks,
		Metrics: map[string]Measure{}}
	for metric, unit := range units(sp) {
		if xs, ok := s[metric]; ok && len(xs) > 0 {
			wr.Metrics[metric] = measure(xs, unit)
		}
	}
	return wr
}

// runEndToEnd sets up setupReps times, then runs one workload's timed
// repetitions with all tracing off.
func runEndToEnd(e *env, w workload, seconds float64, sp *spec) (*WorkloadResult, *inputs, error) {
	in, setupSecs, err := setup(e, setupReps, !w.serveFleet, w.serveFleet)
	if err != nil {
		return nil, nil, err
	}
	o := &ops{}
	s, err := w.run(e, in, seconds, "", o)
	if err != nil {
		return nil, nil, err
	}
	s["setup_s"] = setupSecs
	// A child's ru_maxrss is never below its parent's peak (see
	// setup.go), so a reading at or under carbench's own is carbench's.
	own := ownPeakRSSMB()
	o.check("peak_rss_is_the_childs", median(s["peak_rss_mb"]) > own,
		"peak_rss_mb %.1f MB is not above carbench's own peak of %.1f MB", median(s["peak_rss_mb"]), own)
	return toResult(w.name, s, o, sp), in, nil
}

// ownPeakRSSMB is this process's peak resident set (VmHWM), 0 where
// /proc does not say.
func ownPeakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runTraced is the per-layer run. The driver asks for every per-layer
// metric from the traced run of every workload, and the drive, query
// and checkpoint metrics come out of three different binaries, so a
// traced run is always one lap through all four workloads with the
// binaries' tracing on, plus the layertrace program over the same
// inputs. The workload selected names the span file and is the one
// whose repetitions are run a second time untraced, for
// trace.overhead_pct. Each span carries the workload it measured.
func runTraced(e *env, w workload, sp *spec) (*WorkloadResult, *inputs, error) {
	in, _, err := setup(e, 1, true, true)
	if err != nil {
		return nil, nil, err
	}
	lap := *e
	lap.size.MinReps = traceReps
	traceDir := filepath.Join(e.work, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	rec := span.NewRecorder()
	rec.Under(w.name)
	root := rec.Start("trace", 0)
	tr := &tracer{rec: rec}
	o := &ops{tr: tr}
	all := samples{"synth.gen.rec_per_s": {in.GenRate}}
	endToEnd := map[string]bool{}
	for _, m := range sp.EndToEnd {
		endToEnd[m.Name] = true
	}
	var tracedRate []float64
	for _, each := range workloads {
		rec.Under(each.name)
		ws := rec.Start("workload."+each.name, root.ID())
		tr.parent = ws.ID()
		s, err := each.run(&lap, in, 0, traceDir, o)
		ws.End(0)
		if err != nil {
			return nil, nil, fmt.Errorf("traced lap, %s: %w", each.name, err)
		}
		for name, xs := range s {
			switch {
			case endToEnd[name]: // each workload has its own: not this run's business
			case name == "proc.cpu_s":
				all["proc."+each.name+".cpu_s"] = xs
			default:
				all[name] = xs
			}
		}
		if each.name == w.name {
			tracedRate = s["rec_per_s"]
		}
	}
	rec.Under(w.name)
	tr.parent = root.ID()
	skipped := map[string]string{}
	if err := layerTrace(&lap, in, filepath.Join(e.work, "drive"), tr, all, skipped); err != nil {
		return nil, nil, err
	}
	o.tr = nil
	s, err := w.run(&lap, in, 0, "", o)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced repetitions: %w", err)
	}
	all["trace.overhead_pct"] = []float64{(median(s["rec_per_s"])/median(tracedRate) - 1) * 100}
	root.End(0)

	f, err := os.Create(filepath.Join(e.out, "trace-"+w.name+".jsonl"))
	if err != nil {
		return nil, nil, err
	}
	if err := span.WriteJSONL(f, rec.Spans()); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	wr := toResult(w.name, all, o, sp)
	wr.Skipped = skipped
	return wr, in, nil
}
