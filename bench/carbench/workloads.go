package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"cellcars/bench/span"
)

// samples holds a workload's raw measurements by metric name, one
// value per timed repetition, already in the metric's unit.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// merge appends every sample of other, a finished repetition's.
func (s samples) merge(other samples) {
	for name, xs := range other {
		s[name] = append(s[name], xs...)
	}
}

// A workload runs its timed repetitions against the generated inputs
// and checks every output. traceDir, when set, makes each child write
// its own span file there (the traced run); it is empty for the
// end-to-end run.
type workload struct {
	name       string
	serveFleet bool // runs on the serve fleet's inputs, not the main fleet's
	run        func(e *env, in *inputs, seconds float64, traceDir string, o *ops) (samples, error)
}

var workloads = []workload{
	{"batch", false, runBatch},
	{"checkpoint", false, runCheckpoint},
	{"shards", false, runShards},
	{"serve", true, runServe},
}

// repeat runs one repetition of a workload's interleaved modes as a
// discarded warm-up (rep -1), then timed repetitions until at least
// minReps are done and the time is up. Interleaving the modes inside a
// repetition keeps a slow minute on a shared box from landing on one
// mode alone.
func repeat(seconds float64, minReps int, rep func(i int) error) error {
	if err := rep(-1); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < seconds; i++ {
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

// child runs one timed child process and counts it as an operation;
// in a traced run it is also a span.
func (o *ops) child(dir, bin string, args ...string) (childRun, error) {
	var sp *span.Open
	if o.tr != nil {
		sp = o.tr.rec.Start(strings.TrimSpace(filepath.Base(bin)+" "+modeOf(args)), o.tr.parent)
	}
	res, err := run(dir, bin, args...)
	if sp != nil {
		sp.End(0)
		res.Span = sp.ID()
	}
	o.attempt(err)
	return res, err
}

// modeOf names a child run by the flags that select its mode.
func modeOf(args []string) string {
	var mode []string
	for _, a := range args {
		switch a {
		case "-stream", "-checkpoint", "-resume", "-shards":
			mode = append(mode, a)
		}
	}
	return strings.Join(mode, " ")
}

// cat joins argument lists into a fresh slice, so that a base list can
// be extended many ways without the extensions sharing its array.
func cat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func studyArgs(e *env) []string {
	return []string{"-days", strconv.Itoa(studyDays), "-start", studyStart, "-seed", strconv.FormatUint(e.seed, 10)}
}

// traceArg names a child's span file when the run is traced.
func traceArg(traceDir, name string) []string {
	if traceDir == "" {
		return nil
	}
	return []string{"-trace", filepath.Join(traceDir, name+".jsonl")}
}

var (
	profileRE = regexp.MustCompile(`(?s)== Pipeline profile ==\n.*?\n\n`)
	qualityRE = regexp.MustCompile(`(?m)^read (\d+), ghosts (\d+), quarantined (\d+),`)
)

// reportDigest digests a caranalyze or cardrive report with its
// run-specific parts removed: the first status line (it names the
// input file and the mode) and the Pipeline profile block (it holds
// timings).
func reportDigest(stdout []byte) string {
	s := string(stdout)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	sum := sha256.Sum256([]byte(profileRE.ReplaceAllString(s, "")))
	return hex.EncodeToString(sum[:8])
}

// quality extracts the read, ghost and quarantine counts, in that
// order, from a report's Data Quality block.
func quality(stdout []byte) (counts [3]int64, ok bool) {
	m := qualityRE.FindSubmatch(stdout)
	if m == nil {
		return counts, false
	}
	for i := range counts {
		counts[i], _ = strconv.ParseInt(string(m[i+1]), 10, 64) // the pattern admits digits only
	}
	return counts, true
}

// sameDigest checks a repetition's report against the first one seen
// under the same key.
func sameDigest(o *ops, seen map[string]string, key, check string, stdout []byte) {
	d := reportDigest(stdout)
	if first, ok := seen[key]; ok {
		o.check(check, d == first, "report digest %s differs from the first repetition's %s", d, first)
		return
	}
	seen[key] = d
}

// runBatch analyzes the clean binary file the two ways caranalyze
// offers, interleaved: -stream (bounded memory; rec_per_s and
// peak_rss_mb) and the default load-everything mode (report_ms).
func runBatch(e *env, in *inputs, seconds float64, traceDir string, o *ops) (samples, error) {
	s := samples{}
	seen := map[string]string{}
	n := float64(in.Main.Records)
	base := cat([]string{"-in", e.in("main.cdr")}, studyArgs(e))
	err := repeat(seconds, e.size.MinReps, func(i int) error {
		st, err := o.child(e.work, e.bin("caranalyze"), cat(base, []string{"-stream"}, traceArg(traceDir, "caranalyze-stream"))...)
		if err != nil {
			return err
		}
		ba, err := o.child(e.work, e.bin("caranalyze"), cat(base, traceArg(traceDir, "caranalyze-batch"))...)
		if err != nil {
			return err
		}
		sameDigest(o, seen, "stream", "batch.stream_reports_identical", st.Stdout)
		sameDigest(o, seen, "batch", "batch.default_reports_identical", ba.Stdout)
		streamQ, ok1 := quality(st.Stdout)
		batchQ, ok2 := quality(ba.Stdout)
		o.check("batch.modes_agree_on_data_quality", ok1 && ok2 && streamQ == batchQ,
			"-stream read/ghosts/quarantined %v, default %v", streamQ, batchQ)
		o.check("batch.every_record_read", streamQ[0] == in.Main.Records, "read %d of %d records", streamQ[0], in.Main.Records)
		if i < 0 {
			return nil
		}
		s.add("rec_per_s", n/st.Wall.Seconds())
		s.add("peak_rss_mb", st.RSSMB)
		s.add("report_ms", ba.Wall.Seconds()*1e3)
		s.add("proc.cpu_s", st.CPU.Seconds())
		s.add("proc.batch.default_peak_rss_mb", ba.RSSMB)
		return nil
	})
	return s, err
}

// resumed runs a workload's -resume command over the state the
// repetition left behind and holds its report to the reference digest.
// Its wall time is a per-layer metric: it is a tenth of a second of
// mostly process start-up, too unsteady to gate on.
func resumed(o *ops, s samples, timed bool, workload, ref string, re childRun) {
	d := reportDigest(re.Stdout)
	o.check(workload+".resume_reproduces_report", d == ref, "resumed report %s, reference %s", d, ref)
	if timed {
		s.add(workload+".resume_ms", re.Wall.Seconds()*1e3)
	}
}

// checkpointEvery scales the cut cadence with the input so that a run
// takes 16 cuts whatever the fleet, as 100 000 does on the 1.6 M
// records the workload was designed around.
func checkpointEvery(records int64) string { return strconv.FormatInt(max(records/16, 1), 10) }

// runCheckpoint streams the same file with a durable cut every 1/16th
// of the input (rec_per_s, peak_rss_mb, report_ms: one run gives all
// three), then asks for the report again with -resume from the final
// cut. A plain -stream run gives the reference report and, beside
// every repetition of a traced run, the overhead.
func runCheckpoint(e *env, in *inputs, seconds float64, traceDir string, o *ops) (samples, error) {
	s := samples{}
	n := float64(in.Main.Records)
	snap := filepath.Join(e.work, "ckpt.snap")
	base := cat([]string{"-in", e.in("main.cdr"), "-stream"}, studyArgs(e))
	ckpt := cat(base, []string{"-checkpoint", snap, "-checkpoint-every", checkpointEvery(in.Main.Records)})
	var ref string
	var streamWall, ckptWall []float64
	err := repeat(seconds, e.size.MinReps, func(i int) error {
		if i < 0 || traceDir != "" {
			// The reference: once in the warm-up of an end-to-end run,
			// every repetition of a traced one (for the overhead).
			st, err := o.child(e.work, e.bin("caranalyze"), base...)
			if err != nil {
				return err
			}
			if i < 0 {
				ref = reportDigest(st.Stdout)
			} else {
				streamWall = append(streamWall, st.Wall.Seconds())
			}
		}
		if err := os.Remove(snap); err != nil && !os.IsNotExist(err) {
			return err
		}
		ck, err := o.child(e.work, e.bin("caranalyze"), cat(ckpt, traceArg(traceDir, "caranalyze-ckpt"))...)
		if err != nil {
			return err
		}
		d := reportDigest(ck.Stdout)
		o.check("checkpoint.report_equals_plain_stream", d == ref, "checkpointed report %s, plain -stream %s", d, ref)
		re, err := o.child(e.work, e.bin("caranalyze"), cat(ckpt, []string{"-resume"})...)
		if err != nil {
			return err
		}
		resumed(o, s, i >= 0, "checkpoint", ref, re)
		if i < 0 {
			return nil
		}
		s.add("rec_per_s", n/ck.Wall.Seconds())
		s.add("report_ms", ck.Wall.Seconds()*1e3)
		s.add("peak_rss_mb", ck.RSSMB)
		s.add("proc.cpu_s", ck.CPU.Seconds())
		ckptWall = append(ckptWall, ck.Wall.Seconds())
		return nil
	})
	if len(streamWall) > 0 {
		s.add("analysis.checkpoint.overhead_pct", (median(ckptWall)/median(streamWall)-1)*100)
	}
	return s, err
}

var coordRE = regexp.MustCompile(`\((\d+) retries,`)

// runShards hands the faulty CSV to cardrive: 8 car-hash shards, two
// worker processes at a time, no speculation (rec_per_s, report_ms
// and, over the whole process tree, peak_rss_mb), then asks for the
// report again with -resume over the finished work directory, which
// revalidates the partials and merges them.
func runShards(e *env, in *inputs, seconds float64, traceDir string, o *ops) (samples, error) {
	s := samples{}
	n := float64(in.Faulty.Records)
	wd := filepath.Join(e.work, "drive")
	args := func(shards int, extra ...string) []string {
		return cat([]string{"-q", "-worker", e.bin("caranalyze"), "-shards", strconv.Itoa(shards), "-parallel", "2",
			"-speculate", "0", "-budget", "5", "-keep-partials", "-workdir", wd}, studyArgs(e), extra, []string{e.in("faulty.csv")})
	}
	var ref string
	err := repeat(seconds, e.size.MinReps, func(i int) error {
		// cardrive refuses a work directory that holds a journal.
		if err := os.RemoveAll(wd); err != nil {
			return err
		}
		if i < 0 {
			one, err := o.child(e.work, e.bin("cardrive"), args(1)...)
			if err != nil {
				return err
			}
			ref = reportDigest(one.Stdout)
			if err := os.RemoveAll(wd); err != nil {
				return err
			}
		}
		dr, err := o.child(e.work, e.bin("cardrive"), args(8, traceArg(traceDir, "cardrive")...)...)
		if err != nil {
			return err
		}
		d := reportDigest(dr.Stdout)
		o.check("shards.report_equals_one_shard", d == ref, "8-shard report %s, 1-shard %s", d, ref)
		q, ok := quality(dr.Stdout)
		o.check("shards.quarantined_equals_injected", ok && q[2] == int64(in.Injected), "quarantined %d, injected %d", q[2], in.Injected)
		m := coordRE.FindSubmatch(dr.Stdout)
		o.check("shards.no_retries", m != nil && string(m[1]) == "0", "coordinator line: %.120s", dr.Stdout)
		re, err := o.child(e.work, e.bin("cardrive"), args(8, "-resume")...)
		if err != nil {
			return err
		}
		resumed(o, s, i >= 0, "shards", ref, re)
		if i < 0 {
			return nil
		}
		s.add("rec_per_s", n/dr.Wall.Seconds())
		s.add("report_ms", dr.Wall.Seconds()*1e3)
		s.add("peak_rss_mb", dr.RSSMB)
		s.add("proc.cpu_s", dr.CPU.Seconds())
		if traceDir != "" {
			return driveTrace(filepath.Join(traceDir, "cardrive.jsonl"), dr, o.tr, in.Faulty.Records, s)
		}
		return nil
	})
	return s, err
}
