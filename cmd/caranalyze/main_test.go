package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clitest"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

func TestMain(m *testing.M) { clitest.Main(m, mainEnv, main) }

// mainEnv set makes the test binary the real caranalyze, so the CLI
// tests drive main() end to end — flag parsing, signal handling, exit
// codes — without building a separate binary.
const mainEnv = "CARANALYZE_MAIN"

func caranalyze(args ...string) *exec.Cmd { return clitest.Command(mainEnv, args...) }

// cdrBytes builds a deterministic binary CDR stream: 300 cars over 13
// days on a small radio grid, enough structure that every report
// section has content.
func cdrBytes(t *testing.T, n int) []byte {
	t.Helper()
	return clitest.EncodeCDR(t, cdrRecords(n), true)
}

// cdrRecords is cdrBytes' stream as records, in file order.
func cdrRecords(n int) []cdr.Record {
	rng := rand.New(rand.NewPCG(42, 7))
	out := make([]cdr.Record, n)
	for i := range out {
		out[i] = cdr.Record{
			Car: cdr.CarID(rng.Uint64N(300)),
			Cell: radio.MakeCellKey(
				radio.BSID(rng.Uint64N(40)),
				radio.SectorID(rng.Uint64N(3)),
				radio.C1+radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers)))),
			Start:    studyStart.Add(time.Duration(rng.Uint64N(13*24*3600)) * time.Second),
			Duration: time.Duration(10+rng.Uint64N(1200)) * time.Second,
		}
	}
	return out
}

// studyStart is the first day of cdrRecords' 13-day stream, the default
// -start.
var studyStart = time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)

// textBlock returns the report section of out that starts with header,
// up to the next section header.
func textBlock(t *testing.T, out []byte, header string) string {
	t.Helper()
	s := string(out)
	i := strings.Index(s, header)
	if i < 0 {
		t.Fatalf("no %q section in output:\n%s", header, out)
	}
	s = s[i:]
	if end := strings.Index(s[len(header):], "\n== "); end >= 0 {
		s = s[:len(header)+end]
	}
	return s
}

// TestRecordFiguresIgnoreGhosts: Figures 5 and 8 are drawn from the
// records the engine analyzes. A one-hour ghost of Figure 5's first
// sample car, in an hour of the week its matrix leaves empty, and one of
// a new car on Figure 8's cell and day leave both blocks as they are
// without them.
func TestRecordFiguresIgnoreGhosts(t *testing.T) {
	records := cdrRecords(3000)
	cdr.Sort(records)
	dir := t.TempDir()
	run := func(name string, records []cdr.Record) []byte {
		t.Helper()
		in := filepath.Join(dir, name)
		clitest.WriteCDR(t, in, records)
		return clitest.Output(t, caranalyze("-in", in, "-days", "13", "-tz", "0"))
	}
	clean := run("clean.cdr", records)

	m := regexp.MustCompile(`car 1 \((\d+)\)`).FindSubmatch([]byte(textBlock(t, clean, "== Figure 5")))
	if m == nil {
		t.Fatalf("no first sample car in Figure 5:\n%s", clean)
	}
	var car cdr.CarID
	fmt.Sscan(string(m[1]), &car)
	ctx := analysis.Context{Period: simtime.NewPeriod(studyStart, 13)}
	usage := analysis.UsageMatrix(analysis.RecordsOfCar(records, car), ctx)
	if usage.Max() > 2 {
		t.Fatalf("car %d's busiest hour holds %v sessions: a ghost's would not show", car, usage.Max())
	}
	empty := -1
	for h := 0; h < 13*24 && empty < 0; h++ {
		if usage.At(h%24, h/24%7) == 0 {
			empty = h
		}
	}
	var bs, sector, carrier, day int
	if _, err := fmt.Sscanf(textBlock(t, clean, "== Figure 8"), "== Figure 8: one cell, 24 hours ==\ncell bs%d/s%d/C%d day %d:", &bs, &sector, &carrier, &day); err != nil {
		t.Fatalf("no cell-day in Figure 8: %v\n%s", err, clean)
	}
	cell := radio.MakeCellKey(radio.BSID(bs), radio.SectorID(sector), radio.CarrierID(carrier))
	ghosts := append(slices.Clone(records),
		cdr.Record{Car: car, Cell: cell, Start: studyStart.Add(time.Duration(empty) * time.Hour), Duration: time.Hour},
		cdr.Record{Car: 1 << 20, Cell: cell, Start: ctx.Period.DayStart(day).Add(12 * time.Hour), Duration: time.Hour})
	cdr.Sort(ghosts)
	haunted := run("ghosts.cdr", ghosts)

	for _, header := range []string{"== Figure 5", "== Figure 8"} {
		if want, got := textBlock(t, clean, header), textBlock(t, haunted, header); got != want {
			t.Errorf("two ghosts changed %s:\n%s\nwithout them:\n%s", header, got, want)
		}
	}
}

// reportSection cuts stdout down to the deterministic report body —
// everything from the first section header on, dropping the preamble
// lines that mention input paths and the pipeline-profile table, whose
// wall times and batch counts legitimately differ between a fresh run
// and one that restored half its records from a checkpoint.
func reportSection(t *testing.T, out []byte) string {
	t.Helper()
	i := bytes.Index(out, []byte("== Preprocessing"))
	if i < 0 {
		t.Fatalf("no report section in output:\n%s", out)
	}
	s := string(out[i:])
	if p := strings.Index(s, "== Pipeline profile =="); p >= 0 {
		rest := s[p:]
		if end := strings.Index(rest, "\n\n"); end >= 0 {
			s = s[:p] + rest[end+2:]
		}
	}
	return s
}

// TestSIGTERMCheckpointResume exercises the durable-streaming contract
// at the CLI level: a run fed through a FIFO is SIGTERMed mid-stream,
// saves a checkpoint and exits 0; a -resume run over the full file
// then produces a report bit-identical to an uninterrupted run.
func TestSIGTERMCheckpointResume(t *testing.T) {
	sigtermCheckpointResume(t, nil, "")
}

// TestResumeAdoptsCheckpointWorkers: a checkpoint cut under -workers 3
// resumes under no -workers at all — the default is the machine's CPU
// count, which must not decide whether a checkpoint is usable — with the
// three sets it holds, and says so.
func TestResumeAdoptsCheckpointWorkers(t *testing.T) {
	sigtermCheckpointResume(t, []string{"-workers", "3"}, "3 workers)")
}

// sigtermCheckpointResume is the body of the two tests above: cutArgs
// are extra flags of the interrupted run only, and resumedSays, when
// set, must appear in the resumed run's status line.
func sigtermCheckpointResume(t *testing.T, cutArgs []string, resumedSays string) {
	dir := t.TempDir()
	data := cdrBytes(t, 30_000)
	full := filepath.Join(dir, "full.cdr")
	if err := os.WriteFile(full, data, 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{"-stream", "-days", "14", "-start", "2017-01-02", "-seed", "1", "-tz", "-5"}

	ref := clitest.Output(t, caranalyze(append([]string{"-in", full}, common...)...))

	// The FIFO (named with a .cdr extension so the binary codec is
	// selected) lets the test control how much input the child has
	// seen when the signal lands.
	fifo := filepath.Join(dir, "pipe.cdr")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	ckpt := filepath.Join(dir, "ckpt.snap")
	cmd := caranalyze(append(append([]string{"-in", fifo, "-checkpoint", ckpt}, common...), cutArgs...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	proc := clitest.Start(t, cmd)

	w, err := os.OpenFile(fifo, os.O_WRONLY, 0) // blocks until the child opens the read end
	if err != nil {
		t.Fatal(err)
	}
	// Half the stream: magic header plus 15k of the 30k 28-byte
	// records. The write returning means the child has consumed all
	// but a pipe buffer of it, so the engine is running and the
	// SIGTERM handler is armed.
	half := 8 + 15_000*28
	if _, err := w.Write(data[:half]); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The stop trigger is polled once per batch the dispatcher reads, so
	// the child needs more input to notice the signal — but fed all at
	// once it can race past the handler goroutine and finish normally.
	// Give the signal time to land, then trickle the rest 1024 records
	// at a time until the child exits (the final writes fail with EPIPE
	// once it does, which is fine).
	waitc := make(chan error, 1)
	go func() { waitc <- proc.Wait() }()
	time.Sleep(100 * time.Millisecond)
	go func() {
		defer w.Close()
		for off := half; off < len(data); off += 1024 * 28 {
			end := min(off+1024*28, len(data))
			if _, err := w.Write(data[off:end]); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	if err := <-waitc; err != nil {
		t.Fatalf("interrupted run exited %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted; state saved") {
		t.Fatalf("stderr missing the interrupt notice:\nstderr: %s\nstdout: %s", stderr.String(), stdout.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	res := clitest.Output(t, caranalyze(append([]string{"-in", full, "-checkpoint", ckpt, "-resume"}, common...)...))
	if got, want := reportSection(t, res), reportSection(t, ref); got != want {
		t.Errorf("resumed report differs from uninterrupted run\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	if status, _, _ := strings.Cut(string(res), "\n"); !strings.Contains(status, resumedSays) {
		t.Errorf("resumed run's status line %q does not say %q", status, resumedSays)
	}
}

// TestProgressCurrentCountsQuarantined: the progress position must
// include records ingest rejected — the ETA total is estimated from
// the input size, which counts them, so a degraded run would otherwise
// stall short of 100% forever.
func TestProgressCurrentCountsQuarantined(t *testing.T) {
	reg := obs.New()
	cur := progressCurrent(reg)
	reg.Counter("cellcars_ingest_records_total").Add(900)
	reg.Counter("cellcars_ingest_quarantined_total",
		obs.Label{Key: "class", Value: cdr.FailureClass(0).String()}).Add(100)
	if got := cur(); got != 1000 {
		t.Errorf("progress position = %d, want 1000 (900 ingested + 100 quarantined)", got)
	}
	// Generate mode: no resilient reader runs, only the engine's
	// accepted/ghost/out-of-period counters move.
	reg2 := obs.New()
	cur2 := progressCurrent(reg2)
	reg2.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "accepted"}).Add(70)
	reg2.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "ghost"}).Add(30)
	if got := cur2(); got != 100 {
		t.Errorf("engine-side progress position = %d, want 100", got)
	}
}

// TestJSONMatchesSharedRenderer pins the -json contract: the CLI's
// stdout must be byte-for-byte what query.MarshalReport renders for a
// plain streaming pass with the CLI's study options — that shared
// renderer is what makes carqueryd's served reports comparable to a
// batch run — at one engine worker and at four. Every 500th record is a
// one-hour ghost, so the report's ghost count is not zero.
func TestJSONMatchesSharedRenderer(t *testing.T) {
	dir := t.TempDir()
	records := cdrRecords(20_000)
	for i := 0; i < len(records); i += 500 {
		records[i].Duration = time.Hour
	}
	data := clitest.EncodeCDR(t, records, true)
	in := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	startDay := time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)
	period := simtime.NewPeriod(startDay, 13)
	ingest := cdr.ResilientConfig{
		MaxBadFrac: 0.01,
		MinStart:   period.Start().AddDate(0, 0, -7),
		MaxStart:   period.End().AddDate(0, 0, 7),
	}
	ctx := analysis.Context{Period: period, TZOffsetSeconds: -5 * 3600}
	s := analysis.NewStreamingWithOptions(ctx, analysis.RunOptions{Seed: 1, RareDays: []int{1, 4}})
	rr := cdr.NewResilientReader(cdr.NewBinaryReader(bytes.NewReader(data)), ingest)
	if err := s.AddAll(rr); err != nil {
		t.Fatal(err)
	}
	rep := s.Finalize()
	if rep.GhostsDropped != 40 {
		t.Fatalf("the reference dropped %d ghosts, want 40", rep.GhostsDropped)
	}
	want, err := query.MarshalReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		got := clitest.Output(t, caranalyze("-json", "-in", in, "-days", "13", "-start", "2017-01-02", "-seed", "1", "-tz", "-5", "-workers", workers))
		if !bytes.Equal(got, want) {
			t.Fatalf("-workers %s: -json output differs from query.MarshalReport\ncli %d bytes, renderer %d bytes", workers, len(got), len(want))
		}
		var decoded map[string]any
		if err := json.Unmarshal(got, &decoded); err != nil {
			t.Fatalf("-workers %s: -json output is not valid JSON: %v", workers, err)
		}
	}
}

// TestSilentFlagCombinationsRefused: flag combinations that used to be
// silently ignored — -resume without a checkpoint file re-analyzed from
// record zero, -json dropped -md/-checkpoint/-resume on the floor,
// -partial dropped every report and engine flag, -checkpoint-every
// without -checkpoint or below zero never cut — are usage errors,
// raised before any record is read. -partial refuses -workers for having
// been given, whatever its value: with none it runs
// (TestPartialHonoursFailStage), as every cardrive worker does.
func TestSilentFlagCombinationsRefused(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(in, cdrBytes(t, 2_000), 0o644); err != nil {
		t.Fatal(err)
	}
	md := filepath.Join(dir, "report.md")
	ckpt := filepath.Join(dir, "ckpt.snap")
	snap := filepath.Join(dir, "part.snap")
	const partialOnly = "-partial only writes a partial snapshot"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"stream resume without checkpoint", []string{"-stream", "-resume"}, "-resume needs -checkpoint"},
		{"checkpoint without stream", []string{"-checkpoint", ckpt}, "need -stream mode"},
		{"json with md", []string{"-json", "-md", md}, "-json prints only the JSON report"},
		{"json with checkpoint", []string{"-json", "-stream", "-checkpoint", ckpt}, "-json prints only the JSON report"},
		{"json with resume", []string{"-json", "-stream", "-checkpoint", ckpt, "-resume"}, "-json prints only the JSON report"},
		{"partial with md", []string{"-partial", snap, "-md", md}, partialOnly},
		{"partial with json", []string{"-partial", snap, "-json"}, partialOnly},
		{"partial with stream", []string{"-partial", snap, "-stream"}, partialOnly},
		{"partial with checkpoint", []string{"-partial", snap, "-checkpoint", ckpt}, partialOnly},
		{"partial with resume", []string{"-partial", snap, "-resume"}, partialOnly},
		{"partial with workers", []string{"-partial", snap, "-workers", "4"}, partialOnly},
		{"partial with the default workers spelled out", []string{"-partial", snap, "-workers", "0"}, partialOnly},
		{"negative workers", []string{"-stream", "-workers", "-2"}, "-workers -2"},
		{"checkpoint-every without checkpoint", []string{"-stream", "-checkpoint-every", "500"}, "-checkpoint-every needs -checkpoint"},
		{"signal-only cadence without checkpoint", []string{"-stream", "-checkpoint-every", "0"}, "-checkpoint-every needs -checkpoint"},
		{"negative checkpoint-every", []string{"-stream", "-checkpoint", ckpt, "-checkpoint-every", "-5"}, "-checkpoint-every -5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := clitest.Run(t, caranalyze(append([]string{"-in", in, "-days", "14", "-start", "2017-01-02"}, tc.args...)...))
			if code == 0 {
				t.Fatalf("accepted; stdout:\n%s", stdout)
			}
			if !strings.Contains(string(stderr), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr, tc.want)
			}
			if len(stdout) != 0 {
				t.Fatalf("refused run still printed a report:\n%s", stdout)
			}
			for _, path := range []string{md, ckpt, snap} {
				if _, err := os.Stat(path); err == nil {
					t.Fatalf("refused run still wrote %s", path)
				}
			}
		})
	}
}

// TestGenerateModeRefusesBadScene: a fleet of no cars, or a world too
// small for one cell site (or not a number, or 0, which the generator
// would read as its default), is refused with exit 1 and a message
// naming the flag before the world is built — not a panic out of it.
func TestGenerateModeRefusesBadScene(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cars", "0"}, "-cars must be positive, got 0"},
		{[]string{"-cars", "-5"}, "-cars must be positive, got -5"},
		{[]string{"-world", "-10"}, "-world -10: want a finite side"},
		{[]string{"-world", "0.01"}, "-world 0.01: want a finite side"},
		{[]string{"-world", "NaN"}, "-world NaN: want a finite side"},
		{[]string{"-world", "0"}, "-world 0: want a finite side"},
	} {
		stdout, stderr, code := clitest.Run(t, caranalyze(append([]string{"-days", "7"}, tc.args...)...))
		if code != 1 || !strings.Contains(string(stderr), tc.want) || len(stdout) != 0 {
			t.Errorf("%v: exit %d, stderr %q, %d bytes out; want exit 1 naming %q and no report", tc.args, code, stderr, len(stdout), tc.want)
		}
	}
}

// TestPartialHonoursFailStage: -partial used to build its options
// without -failstage, so a degraded partial could not be made from the
// CLI; the snapshot must carry the failed stage into the reducer.
func TestPartialHonoursFailStage(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(in, cdrBytes(t, 2_000), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "part.snap")
	clitest.Output(t, caranalyze("-partial", snap, "-failstage", "days", "-days", "14", in))
	p, err := analysis.ReadPartialFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Finalize()
	if rep.Failed("days") == nil {
		t.Fatalf("partial lost the failed stage; stage errors: %v", rep.StageErrors)
	}
	if rep.Failed("presence") != nil || rep.Presence.TotalCars == 0 {
		t.Fatalf("the other stages must be whole: %+v", rep.StageErrors)
	}
}

// TestFailedPresenceNamedByItsReaders: Figures 6 and 7 and Table 2 are
// drawn from presence's per-car facts, so a failed presence skips them
// too, and the report says why — at each figure and in Data Quality.
func TestFailedPresenceNamedByItsReaders(t *testing.T) {
	out := clitest.Output(t, caranalyze("-cars", "100", "-days", "14", "-failstage", "presence"))
	for _, want := range []string{
		"failed stages 4",
		"  skipped stage presence: injected failure (FailStage)",
		"  skipped stage days: input stage presence failed",
		"  skipped stage segments: input stage presence failed",
		"  skipped stage busy: input stage presence failed",
		`!! Figure 6 skipped: analysis stage "days" failed: input stage presence failed`,
		`!! Table 2 skipped: analysis stage "segments" failed: input stage presence failed`,
		`!! Figure 7 skipped: analysis stage "busy" failed: input stage presence failed`,
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestTraceStageSpansFitInsideAnalyze: the profile's Add time is summed
// over the workers, so the stage:* spans -trace writes from it are
// scaled to the elapsed time they account for: at any worker count they
// add up to no more than the analyze span that contains them.
func TestTraceStageSpansFitInsideAnalyze(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(in, cdrBytes(t, 30_000), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		trace := filepath.Join(dir, "trace-"+workers+".jsonl")
		clitest.Output(t, caranalyze("-in", in, "-stream", "-days", "14", "-start", "2017-01-02", "-workers", workers, "-trace", trace))
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var analyze, stages float64
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var span struct {
				Span  string  `json:"span"`
				DurMS float64 `json:"dur_ms"`
			}
			if err := json.Unmarshal([]byte(line), &span); err != nil {
				t.Fatalf("workers=%s: trace line %q: %v", workers, line, err)
			}
			switch {
			case span.Span == "analyze":
				analyze = span.DurMS
			case strings.HasPrefix(span.Span, "stage:"):
				stages += span.DurMS
			}
		}
		if analyze == 0 || stages == 0 || stages > analyze {
			t.Errorf("workers=%s: stage spans add up to %.3f ms inside an analyze span of %.3f ms", workers, stages, analyze)
		}
	}
}

// TestCheckpointedRunSaysWhatItsCutsCost: a -checkpoint run's trace
// carries one checkpoint span — as many records as cuts, no longer than
// the analyze span it sits in — and its Pipeline profile a checkpoints
// line, inside the block: what strips the block from a report (up to
// its first blank line) strips the line with it, so a checkpointed
// report still digests to the plain run's.
func TestCheckpointedRunSaysWhatItsCutsCost(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(in, cdrBytes(t, 30_000), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{"-in", in, "-stream", "-days", "14", "-start", "2017-01-02", "-workers", "2"}
	plain := clitest.Output(t, caranalyze(base...))
	trace := filepath.Join(dir, "trace.jsonl")
	cut := clitest.Output(t, caranalyze(append(base, "-trace", trace,
		"-checkpoint", filepath.Join(dir, "run.snap"), "-checkpoint-every", "5000")...))

	if !regexp.MustCompile(`(?m)^checkpoints 6, stalled \d+\.\d+ s, written \d+\.\d+ MB$`).Match(cut) {
		t.Fatalf("no checkpoints line for the six cuts in:\n%s", cut)
	}
	if bytes.Contains(plain, []byte("checkpoints ")) {
		t.Fatal("a run without -checkpoint prints a checkpoints line")
	}
	block := regexp.MustCompile(`(?s)== Pipeline profile ==\n.*?\n\n`)
	if got, want := block.ReplaceAll(cut, nil), block.ReplaceAll(plain, nil); !bytes.Equal(got, want) {
		t.Fatalf("outside the profile block a checkpointed report differs from the plain one:\n%s\nvs\n%s", got, want)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var analyze, stall float64
	var cuts int64
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var span struct {
			Span    string  `json:"span"`
			DurMS   float64 `json:"dur_ms"`
			Records int64   `json:"records"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch span.Span {
		case "analyze":
			analyze = span.DurMS
		case "checkpoint":
			stall, cuts = span.DurMS, span.Records
		}
	}
	if cuts != 6 || stall <= 0 || stall > analyze {
		t.Fatalf("checkpoint span: %d cuts, %.3f ms inside an analyze span of %.3f ms; want 6 cuts", cuts, stall, analyze)
	}
}

// TestResumeRefusesVersion1Checkpoint: a checkpoint written before
// snapshot version 5 — version 1's duration sample, version 2's float
// handover counts and usage matrix, version 3's usage span lists,
// version 4's days, segments and busy frames — is refused by -resume, naming the version and the remedy, rather than
// converted.
func TestResumeRefusesVersion1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(in, cdrBytes(t, 5_000), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "run.snap")
	args := []string{"-in", in, "-stream", "-days", "14", "-start", "2017-01-02", "-checkpoint", ckpt}
	clitest.Output(t, caranalyze(append(args, "-checkpoint-every", "2000")...))
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2, 3, 4} {
		data[len("CCARSNAP")] = version // the version uvarint behind the magic
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := clitest.Run(t, caranalyze(append(args, "-resume")...))
		out := string(stdout) + string(stderr)
		if code == 0 {
			t.Fatalf("-resume of a version-%d checkpoint succeeded:\n%s", version, out)
		}
		for _, want := range []string{fmt.Sprintf("unsupported snapshot version %d (want 5;", version), "re-run from the input"} {
			if !strings.Contains(out, want) {
				t.Errorf("-resume of a version-%d checkpoint does not say %q:\n%s", version, want, out)
			}
		}
	}
}

// TestProgressFlags drives -progress and -progress-every. On a binary
// file with quarantined rows the last progress line counts every row of
// the file, bad ones included, against the total its size gives: the
// run ends at 100.0%. Over a FIFO whose writer pauses half a second
// mid-stream, lines 100 ms apart print during the pause, where the
// 5 s default prints none before the final line.
func TestProgressFlags(t *testing.T) {
	dir := t.TempDir()
	records := cdrRecords(20_000)
	for i := 0; i < len(records); i += 500 { // 40 rows starting in 2030, quarantined as out of range
		records[i].Start = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	data := clitest.EncodeCDR(t, records, true)
	file := filepath.Join(dir, "cars.cdr")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	progress := func(stderr []byte) []string {
		var lines []string
		for _, ln := range strings.Split(string(stderr), "\n") {
			if strings.HasPrefix(ln, "progress: ") {
				lines = append(lines, ln)
			}
		}
		return lines
	}
	args := []string{"-days", "13", "-progress", "-progress-every", "100ms"}

	stdout, stderr, code := clitest.Run(t, caranalyze(append([]string{"-in", file}, args...)...))
	if code != 0 || !bytes.Contains(stdout, []byte("(40 quarantined)")) {
		t.Fatalf("exit %d, want 0 with 40 rows quarantined:\n%s\nstderr: %s", code, stdout, stderr)
	}
	lines := progress(stderr)
	if len(lines) == 0 {
		t.Fatalf("no progress lines on stderr:\n%s", stderr)
	}
	if want := fmt.Sprintf("progress: %d/%d records (100.0%%) |", len(records), len(records)); !strings.HasPrefix(lines[len(lines)-1], want) {
		t.Errorf("last progress line %q, want it to start %q", lines[len(lines)-1], want)
	}

	fifo := filepath.Join(dir, "pipe.cdr")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	cmd := caranalyze(append([]string{"-in", fifo, "-stream"}, args...)...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	proc := clitest.Start(t, cmd)
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0) // blocks until the child opens the read end
	if err != nil {
		t.Fatal(err)
	}
	half := 8 + len(records)/2*28 // the magic header and half the 28-byte records
	if _, err := w.Write(data[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if _, err := w.Write(data[half:]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := proc.Wait(); err != nil {
		t.Fatalf("FIFO run: %v\nstderr: %s", err, errBuf.String())
	}
	if lines := progress(errBuf.Bytes()); len(lines) < 3 {
		t.Errorf("%d progress lines over a run that paused 500 ms at -progress-every 100ms, want at least 3:\n%s", len(lines), errBuf.String())
	}
}
