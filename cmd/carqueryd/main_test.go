package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clitest"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
)

func TestMain(m *testing.M) { clitest.Main(m, mainEnv, main) }

// mainEnv set makes the test binary the real carqueryd, so the e2e
// tests drive main() end to end — flag parsing, HTTP serving, signal
// handling, exit codes — without building a separate binary.
const mainEnv = "CARQUERYD_MAIN"

func carqueryd(args ...string) *exec.Cmd { return clitest.Command(mainEnv, args...) }

// e2eRecords builds a deterministic workload satisfying the ordered
// fold's exactness precondition: every car's records form a
// non-overlapping chain, and the stream is sorted by start time. Gap
// choices straddle both sessionizer thresholds, and a sprinkle of
// ghost-length records exercises the drop path.
func e2eRecords(n int) []cdr.Record { return e2eRecordsOver(n, 1) }

// e2eRecordsOver spreads the e2eRecords chains over several days, by
// way of an occasional long silence.
func e2eRecordsOver(n, days int) []cdr.Record {
	start := time.Date(2017, 3, 6, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(days) * 24 * time.Hour)
	rng := rand.New(rand.NewPCG(11, 23))
	gaps := []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second, 2 * time.Minute,
		5 * time.Minute, 10 * time.Minute, 20 * time.Minute, 2 * time.Hour}
	if days > 1 {
		gaps = append(gaps, time.Duration(days-1)*6*time.Hour)
	}
	next := make(map[cdr.CarID]time.Time)
	var recs []cdr.Record
	for attempts := 0; len(recs) < n && attempts < 20*n; attempts++ {
		car := cdr.CarID(rng.Uint64N(120))
		at, ok := next[car]
		if !ok {
			at = start.Add(time.Duration(rng.Uint64N(3600)) * time.Second)
		}
		if !at.Before(end) {
			continue
		}
		dur := time.Duration(10+rng.Uint64N(590)) * time.Second
		if rng.Uint64N(200) == 0 {
			dur = 90 * time.Minute // ghost: dropped by every stage, still counted raw
		}
		if at.Add(dur).After(end) {
			next[car] = end
			continue
		}
		recs = append(recs, cdr.Record{
			Car: car,
			Cell: radio.MakeCellKey(
				radio.BSID(rng.Uint64N(30)),
				radio.SectorID(rng.Uint64N(3)),
				radio.C1+radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers)))),
			Start:    at,
			Duration: dur,
		})
		next[car] = at.Add(dur + gaps[rng.Uint64N(uint64(len(gaps)))])
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	return recs
}

// daemon wraps one carqueryd child process. Its stdout is a stream of
// JSON log records; the harness collects every line and locates the
// bound address from the "listening" record.
type daemon struct {
	*clitest.Child
	addr string

	mu  sync.Mutex
	out []string
	eof chan struct{}
}

// startDaemon starts carqueryd through clitest.Start: a test that stops
// before terminate — a t.Fatal, a timeout — fails with "child left
// running" instead of leaving the daemon waiting for a signal that never
// comes.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := carqueryd(args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{Child: clitest.Start(t, cmd), eof: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			d.mu.Lock()
			d.out = append(d.out, sc.Text())
			d.mu.Unlock()
		}
		close(d.eof)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for d.addr == "" {
		for _, rec := range d.records(t) {
			if rec["msg"] == "listening" {
				addr, _ := rec["addr"].(string)
				d.addr = addr
			}
		}
		if d.addr != "" {
			break
		}
		select {
		case <-d.eof:
			d.Wait()
			t.Fatalf("carqueryd exited before listening; output:\n%s", strings.Join(d.lines(), "\n"))
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for carqueryd to listen")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return d
}

// lines returns a snapshot of the stdout lines seen so far.
func (d *daemon) lines() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.out...)
}

// records parses every stdout line as a JSON log record — the daemon's
// structured-logging contract: anything unparsable fails the test.
func (d *daemon) records(t *testing.T) []map[string]any {
	t.Helper()
	lns := d.lines()
	recs := make([]map[string]any, len(lns))
	for i, ln := range lns {
		if err := json.Unmarshal([]byte(ln), &recs[i]); err != nil {
			t.Fatalf("stdout line %d is not a JSON log record: %v\n%s", i+1, err, ln)
		}
	}
	return recs
}

// record returns the first log record with the given msg, or nil.
func (d *daemon) record(t *testing.T, msg string) map[string]any {
	t.Helper()
	for _, rec := range d.records(t) {
		if rec["msg"] == msg {
			return rec
		}
	}
	return nil
}

// terminate sends SIGTERM and expects a graceful zero exit.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// All stdout read into d.out first: Wait closes the pipe, and a
	// read still pending then loses the last lines.
	<-d.eof
	if err := d.Wait(); err != nil {
		t.Fatalf("carqueryd did not exit cleanly on SIGTERM: %v", err)
	}
}

func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// statsBody mirrors the /stats JSON shape the tests care about.
type statsBody struct {
	Records      int64            `json:"records"`
	Buckets      int              `json:"buckets"`
	LiveBuckets  int              `json:"live_buckets"`
	Rollups      int              `json:"rollups"`
	FoldOverlaps map[string]int64 `json:"fold_overlaps"`
	Freshness    struct {
		WatermarkAgeSeconds float64 `json:"watermark_age_seconds"`
		RestoredWatermark   int64   `json:"restored_watermark"`
		TailReplayRecords   int64   `json:"tail_replay_records"`
		LastCutSeq          uint64  `json:"last_cut_seq"`
		LastCutAgeSeconds   float64 `json:"last_cut_age_seconds"`
		LastCutSeconds      float64 `json:"last_cut_seconds"`
	} `json:"freshness"`
}

func (d *daemon) stats(t *testing.T) statsBody {
	t.Helper()
	code, body := d.get(t, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	var st statsBody
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad /stats body: %v\n%s", err, body)
	}
	return st
}

// waitDrained polls /stats until the ingest watermark reaches want,
// returning the stats snapshot that reached it.
func (d *daemon) waitDrained(t *testing.T, want int64) statsBody {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := d.stats(t)
		if st.Records == want {
			return st
		}
		if st.Records > want {
			t.Fatalf("/stats records %d, want at most %d", st.Records, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %d ingested records", want)
	return statsBody{}
}

// TestServedReportBitIdenticalToBatch is the tentpole acceptance test:
// a window report served over HTTP must be byte-identical to a
// caranalyze batch run over the same records — before AND after a
// SIGTERM kill plus warm restart from the snapshot directory with a
// tail of new input replayed on top. The 24h case folds hourly buckets
// alone; the 7d case crosses days the live index has passed, so its
// window is folded from sealed buckets and day roll-ups, which the
// restarted daemon has to rebuild.
func TestServedReportBitIdenticalToBatch(t *testing.T) {
	for _, tc := range []struct {
		window string
		days   int
	}{{"24h", 1}, {"7d", 7}} {
		t.Run(tc.window, func(t *testing.T) { servedVsBatch(t, tc.window, tc.days) })
	}
}

func servedVsBatch(t *testing.T, window string, days int) {
	dir := t.TempDir()
	recs := e2eRecordsOver(5000, days)
	if len(recs) < 4000 {
		t.Fatalf("workload generator produced only %d records", len(recs))
	}
	if span := recs[len(recs)-1].Start.Sub(recs[0].Start); span < time.Duration(days)*20*time.Hour {
		t.Fatalf("workload spans %v of a %d-day study", span, days)
	}
	cut := 2 * len(recs) / 3
	all := filepath.Join(dir, "all.cdr")
	part1 := filepath.Join(dir, "part1.cdr")
	part2 := filepath.Join(dir, "part2.cdr")
	clitest.WriteCDR(t, all, recs)
	clitest.WriteCDR(t, part1, recs[:cut])
	clitest.WriteCDR(t, part2, recs[cut:])

	study := []string{"-start", "2017-03-06", "-days", strconv.Itoa(days), "-tz", "-5", "-seed", "1"}
	// A built caranalyze, so the comparison is cross-binary: served bytes
	// against its -json stdout, not two calls into the same process.
	bin := clitest.Build(t, dir, "caranalyze")
	wantFull := clitest.Output(t, exec.Command(bin, append([]string{"-json", "-in", all}, study...)...))
	wantPart := clitest.Output(t, exec.Command(bin, append([]string{"-json", "-in", part1}, study...)...))

	snaps := filepath.Join(dir, "snaps")
	daemonArgs := func(inputs ...string) []string {
		args := append([]string{"-listen", "127.0.0.1:0", "-bucket", "1h", "-windows", window,
			"-snapshots", snaps, "-snapshot-every", "1500"}, study...)
		return append(args, inputs...)
	}
	report := "/report/full?window=" + window
	// checkShape: the window was folded inside the exact regime, and
	// over a multi-day feed from a store that is mostly bytes.
	checkShape := func(d *daemon, when string) {
		st := d.stats(t)
		if n := st.FoldOverlaps[window]; n != 0 {
			t.Fatalf("%s: %d overlap witnesses on a conforming feed", when, n)
		}
		if days > 1 && (st.Rollups == 0 || st.LiveBuckets > st.Buckets/4) {
			t.Fatalf("%s: %d roll-ups, %d of %d buckets live; the %s window should cross sealed, rolled-up days",
				when, st.Rollups, st.LiveBuckets, st.Buckets, window)
		}
	}

	// Run 1: ingest the first two thirds, check the served report
	// against batch over the same partial input, then kill -TERM.
	d := startDaemon(t, daemonArgs(part1)...)
	if code, body := d.get(t, "/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	d.waitDrained(t, int64(cut))
	if code, body := d.get(t, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after drain: %d %q", code, body)
	}
	if code, got := d.get(t, report); code != http.StatusOK {
		t.Fatalf("%s: %d", report, code)
	} else if !bytes.Equal(got, wantPart) {
		t.Fatalf("served partial report differs from caranalyze -json over part1\nserved %d bytes, batch %d bytes\n%s",
			len(got), len(wantPart), firstDiff(got, wantPart))
	}
	checkShape(d, "before the restart")
	d.terminate(t)

	cuts, err := filepath.Glob(filepath.Join(snaps, "cut-*.snap"))
	if err != nil || len(cuts) == 0 {
		t.Fatalf("no cuts in snapshot dir after SIGTERM (err %v)", err)
	}

	// Run 2: warm restart from the snapshot, replay only the tail of
	// part1 (nothing — it is fully covered by the watermark) plus
	// part2, and serve the full-input answer.
	d = startDaemon(t, daemonArgs(part1, part2)...)
	warm := d.record(t, "warm restart")
	if warm == nil {
		t.Fatalf("restarted daemon logged no warm restart; output:\n%s", strings.Join(d.lines(), "\n"))
	}
	if wm, _ := warm["watermark"].(float64); int64(wm) != int64(cut) {
		t.Fatalf("warm restart watermark %v, want %d", warm["watermark"], cut)
	}
	d.waitDrained(t, int64(len(recs)))
	if st := d.stats(t); st.Rollups != 0 {
		t.Fatalf("restarted daemon holds %d roll-ups before any query; they are not in a cut", st.Rollups)
	}
	code, got := d.get(t, report)
	if code != http.StatusOK {
		t.Fatalf("%s after restart: %d", report, code)
	}
	if !bytes.Equal(got, wantFull) {
		t.Fatalf("served report after warm restart differs from caranalyze -json over all records\nserved %d bytes, batch %d bytes\n%s",
			len(got), len(wantFull), firstDiff(got, wantFull))
	}
	checkShape(d, "after the restart")

	// The obs surface rides along on the same listener.
	if code, body := d.get(t, "/metrics"); code != http.StatusOK ||
		!strings.Contains(string(body), "cellcars_query_records_total") {
		t.Fatalf("/metrics missing query counters: %d", code)
	}
	d.terminate(t)
}

// TestDrainedDaemonCutsItsLastStateOnce: when the input's last record
// lands on a -snapshot-every boundary, the periodic cut, the cut at EOF
// and the cut on SIGTERM are one state. It is written once, /stats and
// the shutdown line name that cut, and a restart warms from it to the
// byte-identical full report.
func TestDrainedDaemonCutsItsLastStateOnce(t *testing.T) {
	dir := t.TempDir()
	recs := e2eRecords(4500)
	const every = 1500
	recs = recs[:len(recs)/every*every]
	if len(recs) < 2*every {
		t.Fatalf("workload generator produced only %d records", len(recs))
	}
	in := filepath.Join(dir, "all.cdr")
	clitest.WriteCDR(t, in, recs)
	snaps := filepath.Join(dir, "snaps")
	args := []string{"-listen", "127.0.0.1:0", "-bucket", "1h", "-windows", "24h", "-keep", "8",
		"-snapshots", snaps, "-snapshot-every", strconv.Itoa(every),
		"-start", "2017-03-06", "-days", "1", "-tz", "-5", "-seed", "1", in}
	const report = "/report/full?window=24h"
	lastCut := uint64(len(recs) / every)
	cutFiles := func() []string {
		cuts, err := filepath.Glob(filepath.Join(snaps, "cut-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		return cuts
	}

	d := startDaemon(t, args...)
	d.waitDrained(t, int64(len(recs)))
	for d.record(t, "drained") == nil { // the cut at EOF has been asked for
		time.Sleep(10 * time.Millisecond)
	}
	code, want := d.get(t, report)
	if code != http.StatusOK {
		t.Fatalf("%s: %d", report, code)
	}
	if st := d.stats(t); st.Freshness.LastCutSeq != lastCut || st.Freshness.LastCutAgeSeconds < 0 {
		t.Fatalf("after the drain: freshness %+v, want cut %d", st.Freshness, lastCut)
	}
	d.terminate(t)
	if cuts := cutFiles(); uint64(len(cuts)) != lastCut {
		t.Fatalf("drain and SIGTERM left %d cuts, want %d: one per %d records and none twice\n%s",
			len(cuts), lastCut, every, strings.Join(cuts, "\n"))
	}
	term := d.record(t, "terminated")
	if seq, _ := term["cut_seq"].(float64); term == nil || uint64(seq) != lastCut {
		t.Fatalf("shutdown line %v, want cut_seq %d", term, lastCut)
	}

	d = startDaemon(t, args...)
	warm := d.record(t, "warm restart")
	if wm, _ := warm["watermark"].(float64); warm == nil || int64(wm) != int64(len(recs)) {
		t.Fatalf("restart: %v, want a warm restart at watermark %d", warm, len(recs))
	}
	d.waitDrained(t, int64(len(recs)))
	if code, got := d.get(t, report); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("%s after the restart: %d, %d bytes; before it %d bytes\n%s", report, code, len(got), len(want), firstDiff(got, want))
	}
	// A restored store has written no cut of its own: it cuts once, at
	// EOF, and not again on SIGTERM.
	d.terminate(t)
	if cuts := cutFiles(); uint64(len(cuts)) != lastCut+1 {
		t.Fatalf("restart, drain and SIGTERM left %d cuts, want %d", len(cuts), lastCut+1)
	}
}

// TestObservabilityContract drives the full observability story over a
// FIFO with chaos-injected ingest: request telemetry and cache
// counters on /metrics, freshness SLIs on /stats, a named health rule
// degrading /readyz during an ingest stall and recovering after,
// structured JSON on every stdout line with one correlated run id, a
// span trace on disk, and — after a SIGTERM and warm restart — the
// watermark age shrinking and the tail-replay SLI counting exactly the
// replayed records.
func TestObservabilityContract(t *testing.T) {
	dir := t.TempDir()
	recs := e2eRecords(900)
	if len(recs) < 700 {
		t.Fatalf("workload generator produced only %d records", len(recs))
	}
	cut := 600
	partA, tail := recs[:cut], recs[cut:]
	fifo := filepath.Join(dir, "in.cdr")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatalf("mkfifo: %v", err)
	}
	snaps := filepath.Join(dir, "snaps")
	tracePath := filepath.Join(dir, "trace.jsonl")
	study := []string{"-start", "2017-03-06", "-days", "1", "-tz", "-5", "-seed", "1"}
	base := append([]string{"-listen", "127.0.0.1:0", "-bucket", "1h", "-windows", "24h",
		"-snapshots", snaps, "-snapshot-every", "0", "-budget", "5",
		"-stall-after", "400ms"}, study...)

	d := startDaemon(t, append(append([]string(nil), base...), "-trace", tracePath, fifo)...)

	// The open blocks until the daemon's reader attaches to the FIFO.
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open fifo for write: %v", err)
	}
	feed := func(b []byte) {
		t.Helper()
		if _, err := w.Write(b); err != nil {
			t.Fatalf("write fifo: %v", err)
		}
	}

	// Batch 1 with chaos: three well-formed records dated far outside
	// the study window, which resilient ingest must quarantine as
	// time-range failures without desyncing the stream.
	chaos := make([]cdr.Record, 3)
	for i := range chaos {
		chaos[i] = cdr.Record{
			Car:      cdr.CarID(i + 1),
			Cell:     radio.MakeCellKey(1, 0, radio.C1),
			Start:    time.Date(2030, 1, 1, i, 0, 0, 0, time.UTC),
			Duration: time.Minute,
		}
	}
	feed(clitest.EncodeCDR(t, partA[:300], true))
	feed(clitest.EncodeCDR(t, chaos, false))
	feed(clitest.EncodeCDR(t, partA[300:550], false))
	d.waitDrained(t, 550)

	// Request telemetry: two identical report queries — the second is a
	// cache hit — must show up as latency timings, status-class
	// counters and cache counters on /metrics.
	if code, _ := d.get(t, "/report/full?window=24h"); code != http.StatusOK {
		t.Fatalf("/report/full: %d", code)
	}
	if code, _ := d.get(t, "/report/full?window=24h"); code != http.StatusOK {
		t.Fatalf("/report/full (cached): %d", code)
	}
	_, mb := d.get(t, "/metrics")
	metrics := string(mb)
	for _, want := range []string{
		`cellcars_http_request_seconds{endpoint="report/full",quantile="0.5",window="24h"}`,
		`cellcars_http_responses_total{class="2xx",endpoint="report/full"} 2`,
		`cellcars_ingest_quarantined_total{class="time-range"} 3`,
		`cellcars_query_cache_hits_total 1`,
		`cellcars_query_watermark_age_seconds`,
		`cellcars_query_tail_replay_records`,
		`cellcars_query_live_buckets`,
		`cellcars_query_sealed_bytes`,
		// The 24h miss folded the day so far into its one roll-up.
		`cellcars_query_rollups 1`,
		`cellcars_query_rollup_builds_total 1`,
		`cellcars_query_rollup_extends_total 0`,
		`cellcars_query_rollup_invalidations_total 0`,
		`cellcars_query_thaws_total 0`,
		`cellcars_query_fold_overlaps{window="24h"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Ingest stall: with the FIFO idle past -stall-after, the
	// ingest_stalled health rule must degrade /readyz to 503 and name
	// itself in the body.
	var degraded bool
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		code, body := d.get(t, "/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(string(body), "rule ingest_stalled:") {
			degraded = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !degraded {
		t.Fatal("/readyz never degraded with the ingest_stalled rule during the stall")
	}
	if v := promGauge(t, d, "cellcars_health_rule_failing", `rule="ingest_stalled"`); v != 1 {
		t.Fatalf("failing-rule gauge = %v during stall, want 1", v)
	}
	time.Sleep(500 * time.Millisecond) // let the stalled watermark age grow past any replay latency
	stalledAge := d.stats(t).Freshness.WatermarkAgeSeconds
	if stalledAge <= 0.4 {
		t.Fatalf("stalled watermark age %v, want > stall threshold", stalledAge)
	}

	// Recovery: more records arrive, the rule passes again.
	feed(clitest.EncodeCDR(t, partA[550:cut], false))
	d.waitDrained(t, int64(cut))
	recovered := false
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if code, _ := d.get(t, "/readyz"); code == http.StatusOK {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("/readyz never recovered after ingest resumed")
	}

	// EOF → cut at EOF → drained record; then a graceful SIGTERM.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for d.record(t, "drained") == nil {
		if time.Now().After(deadline) {
			t.Fatal("daemon never logged the drained record after FIFO EOF")
		}
		time.Sleep(50 * time.Millisecond)
	}
	d.terminate(t)

	// Every stdout line is structured JSON under one run id, and the
	// request logs carry correlated request ids.
	runIDs := map[string]bool{}
	sawRequestLog := false
	for _, rec := range d.records(t) {
		if rec["component"] != "carqueryd" {
			t.Fatalf("log record with component %v, want carqueryd: %v", rec["component"], rec)
		}
		id, _ := rec["run_id"].(string)
		if id == "" {
			t.Fatalf("log record missing run_id: %v", rec)
		}
		runIDs[id] = true
		if rec["msg"] == "http request" {
			sawRequestLog = true
			if rid, _ := rec["request_id"].(string); rid == "" {
				t.Fatalf("http request log without request_id: %v", rec)
			}
			if _, ok := rec["endpoint"]; !ok {
				t.Fatalf("http request log without endpoint: %v", rec)
			}
		}
	}
	if len(runIDs) != 1 {
		t.Fatalf("log records carry %d distinct run ids, want 1: %v", len(runIDs), runIDs)
	}
	if !sawRequestLog {
		t.Fatal("no http request log records")
	}

	// The span trace on disk is JSONL covering ingest, snapshot cuts
	// and window composes.
	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for i, ln := range strings.Split(strings.TrimSpace(string(tb)), "\n") {
		var span struct {
			Span string `json:"span"`
		}
		if err := json.Unmarshal([]byte(ln), &span); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", i+1, err, ln)
		}
		spans[span.Span] = true
	}
	for _, want := range []string{"ingest", "cut", "compose:full/24h"} {
		if !spans[want] {
			t.Fatalf("trace missing span %q; saw %v", want, spans)
		}
	}

	// Warm restart from the final cut with a tail of new records: the
	// tail-replay SLI counts exactly the new records and the watermark
	// age collapses from the stalled value to fresh.
	goodA := filepath.Join(dir, "goodA.cdr")
	tailF := filepath.Join(dir, "tail.cdr")
	clitest.WriteCDR(t, goodA, partA)
	clitest.WriteCDR(t, tailF, tail)
	d = startDaemon(t, append(append([]string(nil), base...), goodA, tailF)...)
	warm := d.record(t, "warm restart")
	if warm == nil {
		t.Fatalf("no warm restart after chaos run; output:\n%s", strings.Join(d.lines(), "\n"))
	}
	st := d.waitDrained(t, int64(len(recs)))
	if st.Freshness.RestoredWatermark != int64(cut) {
		t.Fatalf("restored watermark SLI %d, want %d", st.Freshness.RestoredWatermark, cut)
	}
	if st.Freshness.TailReplayRecords != int64(len(tail)) {
		t.Fatalf("tail replay SLI %d, want %d", st.Freshness.TailReplayRecords, len(tail))
	}
	if st.Freshness.WatermarkAgeSeconds >= stalledAge {
		t.Fatalf("watermark age %v after replay, want below the stalled %v", st.Freshness.WatermarkAgeSeconds, stalledAge)
	}
	// The daemon takes its EOF cut after counting the last record, so
	// /stats can show every record drained a moment before the cut.
	for deadline := time.Now().Add(10 * time.Second); st.Freshness.LastCutSeq == 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		st = d.stats(t)
	}
	if st.Freshness.LastCutSeq == 0 || st.Freshness.LastCutAgeSeconds < 0 {
		t.Fatalf("cut SLIs not populated after EOF cut: %+v", st.Freshness)
	}
	d.terminate(t)
}

// promGauge scrapes /metrics and returns the value of one gauge series
// identified by name and a label-pair substring.
func promGauge(t *testing.T, d *daemon, name, label string) float64 {
	t.Helper()
	_, body := d.get(t, "/metrics")
	for _, ln := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(ln, name) && strings.Contains(ln, label) {
			fields := strings.Fields(ln)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad gauge line %q: %v", ln, err)
			}
			return v
		}
	}
	t.Fatalf("no series %s{%s} on /metrics", name, label)
	return 0
}

// TestMetricsExpositionUnderLoad hammers a live daemon from concurrent
// clients while scraping /metrics, and validates that every scrape is
// well-formed Prometheus text format and every metric name passes the
// cellcars_<area>_<name> lint. Run under -race this also exercises the
// registry, middleware, health and freshness paths for data races.
func TestMetricsExpositionUnderLoad(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.cdr")
	recs := e2eRecords(3000)
	clitest.WriteCDR(t, in, recs)
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-bucket", "1h", "-windows", "24h,6h",
		"-start", "2017-03-06", "-days", "1", "-tz", "-5", in)
	d.waitDrained(t, int64(len(recs)))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{
		"/report/full?window=24h", "/report/full?window=6h", "/report/presence?window=24h",
		"/stats", "/windows", "/healthz", "/readyz", "/nope", "/report/bogus?window=24h",
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get("http://" + d.addr + paths[(i+j)%len(paths)])
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i)
	}
	for i := 0; i < 25; i++ {
		code, body := d.get(t, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics scrape %d: status %d", i, code)
		}
		validatePromText(t, string(body))
	}
	close(stop)
	wg.Wait()
	d.terminate(t)
}

var (
	promTypeRE   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
	promLabelRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"$`)
)

// validatePromText checks one /metrics body against the Prometheus
// text exposition format and the repo metric-name convention.
func validatePromText(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for n, ln := range strings.Split(body, "\n") {
		if ln == "" {
			continue
		}
		if strings.HasPrefix(ln, "#") {
			m := promTypeRE.FindStringSubmatch(ln)
			if m == nil {
				t.Fatalf("metrics line %d: malformed comment %q", n+1, ln)
			}
			typed[m[1]] = true
			continue
		}
		m := promSampleRE.FindStringSubmatch(ln)
		if m == nil {
			t.Fatalf("metrics line %d: malformed sample %q", n+1, ln)
		}
		name := m[1]
		// Summary series reuse their base name (quantiles) or append
		// _sum/_count; the base must have a preceding # TYPE line and
		// pass the naming lint.
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("metrics line %d: sample %q before its # TYPE line", n+1, name)
		}
		if !obs.ValidName(base) {
			t.Fatalf("metrics line %d: name %q violates the cellcars_<area>_<name> convention", n+1, base)
		}
		if m[2] != "" {
			for _, pair := range strings.Split(m[2], ",") {
				if !promLabelRE.MatchString(pair) {
					t.Fatalf("metrics line %d: malformed label %q", n+1, pair)
				}
			}
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("metrics line %d: bad value in %q: %v", n+1, ln, err)
		}
	}
}

// TestDaemonRejectsBadFlags covers the fail-fast paths: they must
// exit non-zero with a diagnostic, not serve garbage.
func TestDaemonRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.cdr")
	clitest.WriteCDR(t, in, e2eRecords(10))
	for _, tc := range [][]string{
		{},                          // no inputs
		{"-bucket", "nope", in},     // bad bucket
		{"-windows", "90m", in},     // window not a multiple of the bucket
		{"-start", "back-then", in}, // bad date
	} {
		if stdout, stderr, code := clitest.Run(t, carqueryd(tc...)); code == 0 {
			t.Fatalf("carqueryd %v exited zero; output:\n%s%s", tc, stdout, stderr)
		}
	}
}

// firstDiff renders the first few differing lines of two JSON bodies,
// so a mismatch failure is debuggable.
func firstDiff(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first diff at line %d:\n  served: %s\n  batch:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("bodies diverge in length: %d vs %d lines", len(al), len(bl))
}

// TestQuarantineFileSurvivesShutdown: the -quarantine sink is
// buffered, and every exit from the daemon is an os.Exit — a deferred
// flush never ran, so a graceful SIGTERM left the audit file at zero
// bytes while the log said "quarantined":2. The shutdown path must
// flush and close it.
func TestQuarantineFileSurvivesShutdown(t *testing.T) {
	dir := t.TempDir()
	var csv bytes.Buffer
	w := cdr.NewCSVWriter(&csv)
	recs := e2eRecords(400)
	if err := cdr.WriteAll(w, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(csv.String(), "\n")
	lines[100] = "not,a,record\n"
	lines[300] = "7,oops," + lines[300]
	in := filepath.Join(dir, "dirty.csv")
	if err := os.WriteFile(in, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	q := filepath.Join(dir, "q.tsv")
	d := startDaemon(t, "-listen", "127.0.0.1:0", "-start", "2017-03-06", "-days", "1",
		"-windows", "24h", "-budget", "5", "-quarantine", q, in)
	d.waitDrained(t, int64(len(recs)-2))
	// The watermark is served a moment before the drain is logged.
	var drained map[string]any
	for deadline := time.Now().Add(10 * time.Second); drained == nil && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		drained = d.record(t, "drained")
	}
	if drained == nil || drained["quarantined"] != float64(2) {
		t.Fatalf("drained record = %v, want quarantined 2", drained)
	}
	d.terminate(t)

	got, err := os.ReadFile(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(got), "\n"); n != 2 {
		t.Fatalf("quarantine file holds %d lines after a graceful shutdown, want 2:\n%s", n, got)
	}
}

// TestVersion1CutsColdStart: cuts written before snapshot version 5,
// version 1, 2, 3 or 4, cannot be warmed from. The restarted daemon logs one warning per cut,
// carrying that cut's error, replays its inputs from record 0 and serves
// what a cold daemon serves.
func TestVersion1CutsColdStart(t *testing.T) {
	dir := t.TempDir()
	recs := e2eRecords(4500)
	in := filepath.Join(dir, "all.cdr")
	clitest.WriteCDR(t, in, recs)
	snaps := filepath.Join(dir, "snaps")
	args := []string{"-listen", "127.0.0.1:0", "-bucket", "1h", "-windows", "24h", "-keep", "8",
		"-snapshots", snaps, "-snapshot-every", "1000",
		"-start", "2017-03-06", "-days", "1", "-tz", "-5", "-seed", "1", in}
	const report = "/report/full?window=24h"

	d := startDaemon(t, args...)
	d.waitDrained(t, int64(len(recs)))
	code, cold := d.get(t, report)
	if code != http.StatusOK {
		t.Fatalf("%s: %d", report, code)
	}
	d.terminate(t)

	cuts, err := filepath.Glob(filepath.Join(snaps, "cut-*.snap"))
	if err != nil || len(cuts) < 4 {
		t.Fatalf("cuts %v (err %v); want one per old version", cuts, err)
	}
	version := make(map[string]int) // each cut's, 1, 2, 3 and 4 in turn
	for i, cut := range cuts {
		data, err := os.ReadFile(cut)
		if err != nil {
			t.Fatal(err)
		}
		version[cut] = 1 + i%4
		data[len("CCARSNAP")] = byte(version[cut]) // the version uvarint behind the magic
		if err := os.WriteFile(cut, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d = startDaemon(t, args...)
	d.waitDrained(t, int64(len(recs)))
	if warm := d.record(t, "warm restart"); warm != nil {
		t.Fatalf("warm restart from version-1 to -4 cuts: %v", warm)
	}
	var skipped []string
	for _, rec := range d.records(t) {
		if rec["msg"] != "skipped snapshot cut" {
			continue
		}
		msg, _ := rec["err"].(string)
		if rec["level"] != "WARN" || !strings.Contains(msg, "re-run from the input") {
			t.Errorf("skipped-cut record %v does not name the remedy", rec)
		}
		skipped = append(skipped, msg)
	}
	if len(skipped) != len(cuts) {
		t.Errorf("%d skipped-cut warnings for %d old cuts:\n%s", len(skipped), len(cuts), strings.Join(skipped, "\n"))
	}
	for _, cut := range cuts {
		want := fmt.Sprintf("unsupported snapshot version %d (want 5;", version[cut])
		if !slices.ContainsFunc(skipped, func(msg string) bool { return strings.Contains(msg, cut) && strings.Contains(msg, want) }) {
			t.Errorf("no skipped-cut warning names %s and says %q", cut, want)
		}
	}
	if code, got := d.get(t, report); code != http.StatusOK || !bytes.Equal(got, cold) {
		t.Fatalf("%s after a cold start over version-1, -2 and -3 cuts: %d, %d bytes; a cold daemon's %d bytes\n%s",
			report, code, len(got), len(cold), firstDiff(got, cold))
	}
	d.terminate(t)
}
