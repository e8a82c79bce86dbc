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
	"strings"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clitest"
	"cellcars/internal/drive"
	"cellcars/internal/radio"
)

func TestMain(m *testing.M) { clitest.Main(m, mainEnv, main) }

// mainEnv set makes the test binary the real cardrive.
const mainEnv = "CARDRIVE_MAIN"

func cardrive(args ...string) *exec.Cmd { return clitest.Command(mainEnv, args...) }

// workload is n deterministic records: 400 cars over the 7 days from
// 2017-01-02 on a small radio grid.
func workload(n int) []cdr.Record {
	rng := rand.New(rand.NewPCG(3, 9))
	start := time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)
	out := make([]cdr.Record, n)
	for i := range out {
		out[i] = cdr.Record{
			Car: cdr.CarID(rng.Uint64N(400)),
			Cell: radio.MakeCellKey(
				radio.BSID(rng.Uint64N(40)),
				radio.SectorID(rng.Uint64N(3)),
				radio.C1+radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers)))),
			Start:    start.Add(time.Duration(rng.Uint64N(7*24*3600)) * time.Second),
			Duration: time.Duration(10+rng.Uint64N(900)) * time.Second,
		}
	}
	return out
}

// scanAddr reads stderr JSON records until one with the given msg
// appears, returns its "addr" field, and drains the rest of the pipe
// in the background. Every stderr line must parse as a JSON record —
// the structured-logging contract for the coordinator.
func scanAddr(t *testing.T, stderr io.Reader, msg string) string {
	t.Helper()
	var seen []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		ln := sc.Text()
		seen = append(seen, ln)
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("stderr line is not a JSON record: %q: %v", ln, err)
		}
		if rec["component"] != "cardrive" {
			t.Fatalf("record missing component=cardrive: %q", ln)
		}
		if rid, _ := rec["run_id"].(string); rid == "" {
			t.Fatalf("record missing run_id: %q", ln)
		}
		if rec["msg"] == msg {
			go io.Copy(io.Discard, stderr)
			addr, _ := rec["addr"].(string)
			return addr
		}
	}
	t.Fatalf("no %q record on stderr:\n%s", msg, strings.Join(seen, "\n"))
	return ""
}

// TestDebugAddrServesMetrics pins the coordinator's -debug-addr parity
// with caranalyze: while a distributed run is in flight, the announced
// address must serve Prometheus metrics, and the run must still finish
// cleanly with a report on stdout.
func TestDebugAddrServesMetrics(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(120_000))

	cmd := cardrive("-shards", "4", "-parallel", "2", "-worker", worker,
		"-workdir", filepath.Join(dir, "work"), "-days", "7", "-q",
		"-debug-addr", "127.0.0.1:0", in)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	proc := clitest.Start(t, cmd)

	// The listening record goes to stderr before shard planning starts,
	// so the run is guaranteed to still be in flight when we probe it.
	addr := scanAddr(t, stderr, "debug server listening")
	if addr == "" {
		proc.Wait()
		t.Fatal("debug-server record has no addr field")
	}

	// The server comes up before the coordinator registers its metrics,
	// so poll until the registry is populated (still while the run is in
	// flight — the run itself takes far longer than registration).
	client := &http.Client{Timeout: 5 * time.Second}
	var body []byte
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics while run in flight: %v", err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: status %d, body:\n%s", resp.StatusCode, body)
		}
		if strings.Contains(string(body), "cellcars_") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed cellcars_ metrics; last body:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := proc.Wait(); err != nil {
		t.Fatalf("cardrive run failed: %v\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "== Preprocessing") {
		t.Fatalf("no report on stdout:\n%s", stdout.String())
	}
}

// TestStatusEndpointShowsRetriedShard drives a chaos run with a live
// -status-addr and proves the /status state machine exposes a retried
// shard's attempt timeline mid-run: an attempt with outcome "crash"
// followed by a later attempt on the same shard. The run must still
// complete with a report despite the injected kills.
func TestStatusEndpointShowsRetriedShard(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(120_000))

	// Chaos is deterministic per (seed, shard, attempt): with seed 5
	// every shard's first attempt draws a kill, and n=2000 keeps the
	// kill offset inside each shard's record stream so the kill always
	// fires. -max-attempts 10 keeps quarantine out of reach so the run
	// still ends cleanly.
	cmd := cardrive("-shards", "4", "-parallel", "2", "-worker", worker,
		"-workdir", filepath.Join(dir, "work"), "-days", "7", "-q",
		"-chaos", "kill=0.5,n=2000,seed=5", "-max-attempts", "10", "-backoff", "50ms",
		"-status-addr", "127.0.0.1:0", in)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	proc := clitest.Start(t, cmd)
	addr := scanAddr(t, stderr, "status server listening")
	if addr == "" {
		proc.Wait()
		t.Fatal("status-server record has no addr field")
	}

	exited := make(chan error, 1)
	go func() { exited <- proc.Wait() }()

	// Poll /status until a retried shard's timeline shows the crash.
	// Once a retry launches the pattern persists until process exit, so
	// polling cannot miss it unless the contract is broken.
	client := &http.Client{Timeout: 2 * time.Second}
	var found bool
	var last drive.Status
	for !found {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("cardrive chaos run failed: %v\nstdout:\n%s", err, stdout.String())
			}
			b, _ := json.MarshalIndent(last, "", "  ")
			t.Fatalf("run finished before /status showed a retried shard; last status:\n%s", b)
		default:
		}
		resp, err := client.Get("http://" + addr + "/status")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var st drive.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /status: %v", err)
		}
		last = st
		for _, sh := range st.Shards {
			if len(sh.Attempts) >= 2 && sh.Attempts[0].Outcome == "crash" {
				found = true
				if sh.Attempts[0].Seconds < 0 {
					t.Fatalf("crash attempt has negative duration: %+v", sh.Attempts[0])
				}
				if sh.Attempts[0].Err == "" {
					t.Fatalf("crash attempt carries no error detail: %+v", sh.Attempts[0])
				}
			}
		}
		if st.Phase == "" || st.UpdatedAt.IsZero() {
			t.Fatalf("status missing phase/updated_at: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := <-exited; err != nil {
		t.Fatalf("cardrive chaos run failed: %v\nstdout:\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "== Preprocessing") {
		t.Fatalf("no report on stdout:\n%s", stdout.String())
	}
}

// reportBody cuts a binary's stdout down to what the three must agree
// on: everything from the first section on, without the Pipeline
// profile block (timings; only an observed run has one) and without
// the Data Quality block (each binary accounts its own ingest).
func reportBody(t *testing.T, stdout []byte) string {
	t.Helper()
	s := string(stdout)
	i := strings.Index(s, "== Preprocessing")
	if i < 0 {
		t.Fatalf("no report on stdout:\n%s", s)
	}
	s = s[i:]
	if q := strings.Index(s, "== Data Quality =="); q >= 0 {
		s = s[:q]
	}
	if p := strings.Index(s, "== Pipeline profile =="); p >= 0 {
		end := strings.Index(s[p:], "\n\n")
		if end < 0 {
			t.Fatalf("unterminated Pipeline profile block:\n%s", s[p:])
		}
		s = s[:p] + s[p+end+2:]
	}
	return s
}

// TestOneReportOneText: the single process, the hand-run map-reduce and
// the coordinator analyze the same file into the same Report, and since
// all three print it through report.Text, into the same bytes — the
// reducers used to print a hand-copied subset of the sections.
func TestOneReportOneText(t *testing.T) {
	dir := t.TempDir()
	caranalyze := clitest.Build(t, dir, "caranalyze")
	carmerge := clitest.Build(t, dir, "carmerge")
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(60_000))

	single := reportBody(t, clitest.Output(t, exec.Command(caranalyze, "-stream", "-days", "7", in)))

	var snaps []string
	for i := 0; i < 3; i++ {
		snap := filepath.Join(dir, fmt.Sprintf("s%d.snap", i))
		clitest.Output(t, exec.Command(caranalyze, "-partial", snap, "-shard", fmt.Sprintf("%d/3", i), "-days", "7", in))
		snaps = append(snaps, snap)
	}
	merged := reportBody(t, clitest.Output(t, exec.Command(carmerge, append([]string{"-q"}, snaps...)...)))

	driven := reportBody(t, clitest.Output(t, cardrive("-shards", "3", "-worker", caranalyze,
		"-workdir", filepath.Join(dir, "work"), "-days", "7", "-q", in)))

	for _, want := range []string{"== Figure 2 / Table 1", "== Figure 3", "== Figure 4", "== Fleet usage",
		"== Figure 6", "== Figure 9", "== §4.5", "== Table 3"} {
		if !strings.Contains(single, want) {
			t.Errorf("report lacks %q:\n%s", want, single)
		}
	}
	if merged != single {
		t.Errorf("caranalyze -partial x3 + carmerge prints a different report than caranalyze -stream\n--- carmerge ---\n%s\n--- caranalyze -stream ---\n%s", merged, single)
	}
	if driven != single {
		t.Errorf("cardrive -shards 3 prints a different report than caranalyze -stream\n--- cardrive ---\n%s\n--- caranalyze -stream ---\n%s", driven, single)
	}
}

// workloadCSV renders workload's records as CSV and returns the lines,
// header first, for a test to plant faults in.
func workloadCSV(t *testing.T, n int) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	w := cdr.NewCSVWriter(&buf)
	if err := cdr.WriteAll(w, workload(n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(buf.Bytes(), []byte("\n"))
}

// journalEvents decodes a work directory's journal.
func journalEvents(t *testing.T, workdir string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(workdir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestStrictRefusalAbortsTheRun: -strict means abort on the first
// malformed record. The shard that owns the row refuses it once — no
// retry, no backoff, no quarantined shard and degraded report — and the
// run fails naming the shard, the class and the line in the file.
func TestStrictRefusalAbortsTheRun(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	lines := workloadCSV(t, 4000)
	const badLine = 2501 // 1-based, the header being line 1
	car := lines[badLine-1][:bytes.IndexByte(lines[badLine-1], ',')]
	lines[badLine-1] = bytes.Replace(lines[badLine-1], []byte(","), []byte(",x"), 1)
	in := filepath.Join(dir, "cars.csv")
	if err := os.WriteFile(in, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var id uint64
	fmt.Sscan(string(car), &id)
	owner := cdr.ShardOfCar(cdr.CarID(id), 4)

	work := filepath.Join(dir, "work")
	start := time.Now()
	stdout, stderr, code := clitest.Run(t, cardrive("-shards", "4", "-parallel", "1", "-worker", worker,
		"-workdir", work, "-days", "7", "-q", "-strict", "-backoff", "10s", in))
	if code != 1 {
		t.Fatalf("cardrive -strict over a bad row: exit %d, want exit 1\nstderr:\n%s", code, stderr)
	}
	if time.Since(start) > 8*time.Second {
		t.Fatalf("the run took %s: it waited out a retry backoff", time.Since(start))
	}
	if bytes.Contains(stdout, []byte("== Preprocessing")) {
		t.Fatalf("a refused input still printed a report:\n%s", stdout)
	}
	for _, want := range []string{fmt.Sprintf("shard %d ", owner), "input", fmt.Sprintf("cars.csv: line %d:", badLine)} {
		if !strings.Contains(string(stderr), want) {
			t.Fatalf("stderr does not name %q:\n%s", want, stderr)
		}
	}
	attempts, fails := 0, 0
	for _, ev := range journalEvents(t, work) {
		switch ev["event"] {
		case "attempt":
			if int(ev["shard"].(float64)) == owner {
				attempts++
			}
		case "fail":
			fails++
			if ev["class"] != "input" || int(ev["shard"].(float64)) != owner ||
				!strings.Contains(ev["error"].(string), fmt.Sprintf("line %d", badLine)) {
				t.Fatalf("journaled failure %v, want class input on shard %d naming line %d", ev, owner, badLine)
			}
		case "quarantine", "merged":
			t.Fatalf("journal records %v after an input refusal", ev)
		}
	}
	if attempts != 1 || fails != 1 {
		t.Fatalf("shard %d: %d attempts, %d failures journaled; want one of each", owner, attempts, fails)
	}
}

// TestBudgetJudgedByOwningShards: within the budget the same kind of
// input passes, each bad row counted once by the shard that owns it, and
// the coordinator's Data Quality block breaks the total down by class
// in the lines a single caranalyze prints — as does -resume, from the
// journal.
func TestBudgetJudgedByOwningShards(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	lines := workloadCSV(t, 4000)
	for i := 100; i < len(lines)-1; i += 100 {
		switch (i / 100) % 3 {
		case 0:
			lines[i] = bytes.Replace(lines[i], []byte(","), []byte(",x"), 1)
		case 1:
			lines[i] = append(bytes.Clone(lines[i][:bytes.LastIndexByte(lines[i], ',')]), '\n')
		default:
			f := bytes.Split(lines[i], []byte(","))
			f[2] = []byte("2114035200")
			lines[i] = bytes.Join(f, []byte(","))
		}
	}
	in := filepath.Join(dir, "cars.csv")
	if err := os.WriteFile(in, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	quality := func(stdout []byte) string {
		t.Helper()
		i := bytes.Index(stdout, []byte("== Data Quality =="))
		if i < 0 {
			t.Fatalf("no Data Quality block:\n%s", stdout)
		}
		return string(stdout[i:])
	}
	single := quality(clitest.Output(t, exec.Command(worker, "-stream", "-days", "7", "-budget", "5", in)))
	for _, want := range []string{"quarantined 40,", "quarantined bad-field", "quarantined time-range"} {
		if !strings.Contains(single, want) {
			t.Fatalf("the single run's Data Quality lacks %q:\n%s", want, single)
		}
	}
	work := filepath.Join(dir, "work")
	args := []string{"-shards", "4", "-worker", worker, "-workdir", work, "-days", "7", "-q", "-budget", "5", "-keep-partials"}
	driven := quality(clitest.Output(t, cardrive(append(args, in)...)))
	if driven != single {
		t.Fatalf("cardrive's Data Quality differs from the single run's\n--- cardrive ---\n%s\n--- caranalyze -stream ---\n%s", driven, single)
	}
	if resumed := quality(clitest.Output(t, cardrive(append(args, "-resume", in)...))); resumed != single {
		t.Fatalf("-resume's Data Quality differs from the single run's\n--- cardrive -resume ---\n%s\n--- caranalyze -stream ---\n%s", resumed, single)
	}
}

// TestResumeReplansVersion1Partial: a done shard whose partial was
// written before snapshot version 5 — version 1 in shard 0, version 2 in
// shard 1, version 3 in shard 2, then version 4 in shard 0 again — is
// not merged on -resume: the
// coordinator sorts it as bad-snapshot, naming the version, runs the
// shard again and prints the report a fresh run prints.
func TestResumeReplansVersion1Partial(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(20_000))
	work := filepath.Join(dir, "work")
	args := []string{"-shards", "3", "-worker", worker, "-workdir", work, "-days", "7", "-keep-partials"}
	fresh := clitest.Output(t, cardrive(append(args, in)...))

	for _, version := range []int{1, 2, 3, 4} {
		shard := (version - 1) % 3
		partial := filepath.Join(work, fmt.Sprintf("shard%04d.snap", shard))
		data, err := os.ReadFile(partial)
		if err != nil {
			t.Fatal(err)
		}
		data[len("CCARSNAP")] = byte(version) // the version uvarint behind the magic
		if err := os.WriteFile(partial, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := len(journalEvents(t, work))

		resumed, stderr, code := clitest.Run(t, cardrive(append(args, "-resume", in)...))
		if code != 0 {
			t.Fatalf("-resume: exit %d\nstderr:\n%s", code, stderr)
		}
		var sorted bool
		for _, ln := range strings.Split(strings.TrimSpace(string(stderr)), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("stderr line is not a JSON record: %q: %v", ln, err)
			}
			msg, _ := rec["err"].(string)
			if rec["level"] == "WARN" && rec["shard"] == float64(shard) && rec["class"] == "bad-snapshot" &&
				strings.Contains(msg, fmt.Sprintf("unsupported snapshot version %d (want 5;", version)) {
				sorted = true
			}
		}
		if !sorted {
			t.Errorf("-resume did not sort shard %d's version-%d partial as bad-snapshot:\n%s", shard, version, stderr)
		}
		var reran []string
		for _, ev := range journalEvents(t, work)[before:] {
			if ev["event"] == "attempt" || ev["event"] == "done" {
				reran = append(reran, fmt.Sprintf("%v shard %v", ev["event"], ev["shard"]))
			}
		}
		if want := []string{fmt.Sprintf("attempt shard %d", shard), fmt.Sprintf("done shard %d", shard)}; !slices.Equal(reran, want) {
			t.Errorf("-resume journaled %v; want shard %d, and only shard %d, run again", reran, shard, shard)
		}
		if got, want := reportBody(t, resumed), reportBody(t, fresh); got != want {
			t.Errorf("-resume prints a different report than the fresh run\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
		}
	}
}

// settled lists a work directory's journaled attempt outcomes in order,
// as "fail S.A class" and "done S.A".
func settled(t *testing.T, workdir string) []string {
	t.Helper()
	var out []string
	for _, ev := range journalEvents(t, workdir) {
		shard, attempt := ev["shard"], ev["attempt"]
		if attempt == nil {
			attempt = 0.0 // omitted when zero
		}
		switch ev["event"] {
		case "fail":
			out = append(out, fmt.Sprintf("fail %v.%v %v", shard, attempt, ev["class"]))
		case "done":
			out = append(out, fmt.Sprintf("done %v.%v", shard, attempt))
		}
	}
	return out
}

// TestAttemptTimeoutKillsAHungAttempt: with chaos seed 6 the one
// shard's first attempt hangs after at most 50 records and its second
// draws no fault. -attempt-timeout kills the hung attempt, the journal
// records it as a timeout, and the retry completes the run.
func TestAttemptTimeoutKillsAHungAttempt(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(5_000))
	work := filepath.Join(dir, "work")
	stdout := clitest.Output(t, cardrive("-shards", "1", "-worker", worker, "-workdir", work, "-days", "7", "-q",
		"-chaos", "hang=0.5,n=50,seed=6", "-attempt-timeout", "1s", "-backoff", "10ms", in))
	if got, want := settled(t, work), []string{"fail 0.0 timeout", "done 0.1"}; !slices.Equal(got, want) {
		t.Fatalf("journaled outcomes %q, want %q", got, want)
	}
	if !strings.Contains(string(stdout), "2 attempts (1 retries") {
		t.Fatalf("summary does not count the retry:\n%s", stdout)
	}
}

// TestRefusesOutOfRangeFlags: a value drive.New would swap for its
// default is refused with exit 1, naming the flag, before the work
// directory is made; the zeros the usage documents run.
func TestRefusesOutOfRangeFlags(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(2_000))
	for _, args := range [][]string{
		{"-shards", "-1"},
		{"-parallel", "-2"},
		{"-max-attempts", "0"},
		{"-speculate-min", "-2"},
		{"-speculate-min", "0"},
		{"-backoff", "-1s"},
		{"-backoff", "0s"},
		{"-max-backoff", "0s"},
		{"-attempt-timeout", "-1s"},
		{"-speculate", "-1"},
		{"-speculate", "NaN"},
	} {
		work := filepath.Join(dir, "work")
		_, stderr, code := clitest.Run(t, cardrive(append(args, "-workdir", work, "-days", "7", in)...))
		if code != 1 || !strings.Contains(string(stderr), `"bad `+args[0]+`"`) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming %s", args, code, stderr, args[0])
		}
		if _, err := os.Stat(work); !os.IsNotExist(err) {
			t.Errorf("%v: refused only after making the work directory (stat: %v)", args, err)
		}
	}
	worker := clitest.Build(t, dir, "caranalyze")
	clitest.Output(t, cardrive("-shards", "0", "-parallel", "0", "-attempt-timeout", "0", "-speculate", "0",
		"-worker", worker, "-workdir", filepath.Join(dir, "zeros"), "-days", "7", "-q", in))
}

// TestMaxBackoffCapsTheRetryWait: chaos seed 6 kills the one shard's
// first attempt and spares its second. The retry waits -backoff 30s
// capped by -max-backoff 20ms — at most 30 ms with the jitter — so the
// run ends long before 30 s.
func TestMaxBackoffCapsTheRetryWait(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(5_000))
	work := filepath.Join(dir, "work")
	start := time.Now()
	clitest.Output(t, cardrive("-shards", "1", "-worker", worker, "-workdir", work, "-days", "7", "-q",
		"-chaos", "kill=0.5,n=50,seed=6", "-backoff", "30s", "-max-backoff", "20ms", in))
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("the run took %s: the retry waited -backoff, not -max-backoff", took)
	}
	if got, want := settled(t, work), []string{"fail 0.0 crash", "done 0.1"}; !slices.Equal(got, want) {
		t.Fatalf("journaled outcomes %q, want %q", got, want)
	}
}

// TestSpeculateMinHoldsSpeculationBack: chaos seed 2 hangs the first
// attempt of exactly one of four shards, and the other three complete.
// At the default -speculate-min 3 those completions are enough for the
// straggler to get a speculative duplicate, which wins; at
// -speculate-min 4 they are not, so nothing speculates and the hung
// attempt ends only at -attempt-timeout, to be retried.
func TestSpeculateMinHoldsSpeculationBack(t *testing.T) {
	dir := t.TempDir()
	worker := clitest.Build(t, dir, "caranalyze")
	in := filepath.Join(dir, "cars.cdr")
	clitest.WriteCDR(t, in, workload(20_000))
	speculative := regexp.MustCompile(`(\d+) speculative, (\d+) spec wins`)
	for _, tc := range []struct {
		extra []string
		want  string // speculative launches and wins
	}{
		{nil, "1 1"},
		{[]string{"-speculate-min", "4"}, "0 0"},
	} {
		args := append([]string{"-shards", "4", "-parallel", "4", "-worker", worker,
			"-workdir", filepath.Join(t.TempDir(), "work"), "-days", "7", "-q",
			"-chaos", "hang=0.25,n=50,seed=2", "-attempt-timeout", "3s", "-backoff", "10ms"}, tc.extra...)
		stdout := clitest.Output(t, cardrive(append(args, in)...))
		m := speculative.FindSubmatch(stdout)
		if m == nil || string(m[1])+" "+string(m[2]) != tc.want {
			t.Fatalf("cardrive %v: speculative launches and wins %q, want %q:\n%s", tc.extra, m, tc.want, stdout)
		}
	}
}
