package query

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cellcars/internal/obs"
	"cellcars/internal/snapshot"
)

// cut is the reference's serial cut at a watermark: every bucket's
// Streaming.SnapshotTo, in index order, framed by writeCut.
func (r *refStore) cut(t *testing.T, watermark int64) []byte {
	t.Helper()
	st := &cutState{watermark: watermark, live: r.live}
	for idx := range r.buckets {
		st.idxs = append(st.idxs, idx)
	}
	sort.Ints(st.idxs)
	for _, idx := range st.idxs {
		var buf bytes.Buffer
		if err := r.buckets[idx].SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		st.encs = append(st.encs, buf.Bytes())
	}
	var out bytes.Buffer
	if err := r.s.writeCut(&out, st); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestCutBytesDoNotDependOnParallelism: a store cut at several
// watermarks — one of them with only the live bucket dirty — under
// GOMAXPROCS 1 (the inline encode), 2 and 4 writes the same files, and
// each is the serial reference cut; the windows served after each cut
// are the never-sealed reference's.
func TestCutBytesDoNotDependOnParallelism(t *testing.T) {
	const days = 8
	records := queryWorkload(4000, days)
	windows := []Window{{"24h", 24 * time.Hour}, {"7d", 7 * 24 * time.Hour}, {"full", days * 24 * time.Hour}}
	probe, err := New(Config{Ctx: queryCtx(days), Windows: windows})
	if err != nil {
		t.Fatal(err)
	}
	// live is a cut point whose next record stays in the live bucket:
	// the cut after that record finds that bucket alone dirty.
	live := len(records) / 2
	for probe.bucketIndex(records[live].Start) != probe.bucketIndex(records[live-1].Start) {
		live++
	}
	cuts := []int{len(records) / 5, live, live + 1, len(records) * 4 / 5, len(records)}

	run := func(procs int) [][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: len(cuts)}
		s, err := New(Config{Ctx: queryCtx(days), Windows: windows, Snapshots: dir})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefStore(s)
		var files [][]byte
		fed := 0
		for _, at := range cuts {
			for ; fed < at; fed++ {
				s.Add(records[fed])
				ref.add(records[fed])
			}
			if at == live+1 {
				s.mu.Lock()
				var dirty []int
				for idx, b := range s.buckets {
					if b.dirty {
						dirty = append(dirty, idx)
					}
				}
				s.mu.Unlock()
				if len(dirty) != 1 || dirty[0] != ref.live {
					t.Fatalf("GOMAXPROCS %d: dirty buckets %v before the cut at %d, want the live bucket %d alone", procs, dirty, at, ref.live)
				}
			}
			seq, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(dir.CutPath(seq))
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.cut(t, int64(at)); !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d: cut at %d is %d bytes, the serial reference %d", procs, at, len(got), len(want))
			}
			files = append(files, got)
			compareWindows(t, s, ref, fmt.Sprintf("GOMAXPROCS %d, after the cut at %d", procs, at))
		}
		return files
	}
	one := run(1)
	for _, procs := range []int{2, 4} {
		for i, file := range run(procs) {
			if !bytes.Equal(file, one[i]) {
				t.Fatalf("cut %d differs between GOMAXPROCS 1 and %d", i+1, procs)
			}
		}
	}
}

var errInjected = errors.New("injected fault")

// faultyFile is a real file whose named step fails.
type faultyFile struct {
	*os.File
	failAt string
}

func (f faultyFile) Write(p []byte) (int, error) {
	if f.failAt == "write" {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f faultyFile) Sync() error {
	if f.failAt == "fsync" {
		return errInjected
	}
	return f.File.Sync()
}

func (f faultyFile) Close() error {
	err := f.File.Close()
	if f.failAt == "close" {
		return errInjected
	}
	return err
}

// failStep makes every durable write fail at one step until the
// returned func puts snapshot.FS back.
func failStep(step string) (restore func()) {
	orig := snapshot.FS
	switch step {
	case "create":
		snapshot.FS.Create = func(string) (snapshot.File, error) { return nil, errInjected }
	case "rename":
		snapshot.FS.Rename = func(string, string) error { return errInjected }
	default:
		snapshot.FS.Create = func(name string) (snapshot.File, error) {
			f, err := os.Create(name)
			return faultyFile{f, step}, err
		}
	}
	return func() { snapshot.FS = orig }
}

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCheckpointBehindFaults fails each step of a cut written behind
// ingest. The failure is in the SLIs, the failure counter and /readyz
// (through the daemon's snapshot_cuts rule) as soon as the write lands,
// before anything joins it; no temp file is left and the directory's
// newest valid cut is the previous one. The next CheckpointBehind
// returns the error and writes the state in full, which clears it.
func TestCheckpointBehindFaults(t *testing.T) {
	records := queryWorkload(3000, 2)
	for _, step := range []string{"create", "write", "fsync", "close", "rename"} {
		t.Run(step, func(t *testing.T) {
			dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 8}
			reg := obs.New()
			cfg := Config{Ctx: queryCtx(2), Snapshots: dir, Obs: reg, Windows: []Window{{Name: "48h", Span: 48 * time.Hour}}}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			health := obs.NewHealth(reg)
			health.Rule("snapshot_cuts", func() (bool, string) {
				if f := s.Freshness(); f.LastCutError != "" {
					return false, "last cut failed: " + f.LastCutError
				}
				return true, ""
			})
			srv := NewServerWithOptions(s, reg, ServerOptions{Health: health})
			srv.SetReady(true)
			readyz := func() (int, string) {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
				return rec.Code, rec.Body.String()
			}
			failures := reg.Counter("cellcars_query_cut_failures_total")
			recoveryPoint := func() int64 {
				t.Helper()
				if tmps, _ := filepath.Glob(filepath.Join(dir.Path, "cut-*.tmp")); len(tmps) != 0 {
					t.Fatalf("temp files left: %v", tmps)
				}
				rcfg := cfg
				rcfg.Obs = nil
				fresh, err := New(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				wm, ok, err := fresh.Restore()
				if err != nil || !ok {
					t.Fatalf("restore: ok=%v err=%v", ok, err)
				}
				return wm
			}

			feed(t, s, records[:1000])
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			feed(t, s, records[1000:2000])
			restore := failStep(step)
			if err := s.CheckpointBehind(); err != nil {
				t.Fatalf("a cut that joined nothing returned %v", err)
			}
			// The write lands failed with nothing joining it; reading the
			// SLI under the store mutex orders the write's last use of
			// snapshot.FS before the restore below.
			waitUntil(t, "the failed write to land", func() bool { return s.Freshness().LastCutError != "" })
			restore()
			if n := failures.Value(); n != 1 {
				t.Fatalf("cut_failures_total %d as the write landed, want 1", n)
			}
			if code, body := readyz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "rule snapshot_cuts:") {
				t.Fatalf("/readyz after the failed cut: %d %q", code, body)
			}
			if seqs, _ := dir.Cuts(); len(seqs) != 1 {
				t.Fatalf("cuts %v after the failed write, want the first alone", seqs)
			}
			if wm := recoveryPoint(); wm != 1000 {
				t.Fatalf("recovery point %d after the failed write, want the previous cut's 1000", wm)
			}

			if err := s.CheckpointBehind(); !errors.Is(err, errInjected) {
				t.Fatalf("the next cut returned %v, want the injected fault it joined", err)
			}
			seq, err := s.Checkpoint()
			if err != nil || seq != 2 {
				t.Fatalf("Checkpoint after the retry = %d, %v; want the retry's cut 2", seq, err)
			}
			if f := s.Freshness(); f.LastCutError != "" || f.LastCutSeq != 2 {
				t.Fatalf("after the retry: freshness %+v", f)
			}
			if code, _ := readyz(); code != http.StatusOK {
				t.Fatalf("/readyz after the retry: %d", code)
			}
			if wm := recoveryPoint(); wm != 2000 {
				t.Fatalf("recovery point %d after the retry, want 2000", wm)
			}
			if n := failures.Value(); n != 1 {
				t.Fatalf("cut_failures_total %d after the retry, want 1", n)
			}
		})
	}
}

// TestCheckpointJoinsTheCutBehind holds a cut's rename until released:
// CheckpointBehind returns with it in flight and ingest goes on;
// Checkpoint — what the daemon's EOF and SIGTERM cuts call — waits for
// it, then writes nothing when no record came in meanwhile and the new
// state when one did. One file per state, and no goroutine outlives the
// Checkpoint.
func TestCheckpointJoinsTheCutBehind(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	records := queryWorkload(3000, 2)
	dir := &snapshot.Dir{Path: filepath.Join(t.TempDir(), "cuts"), Keep: 8}
	s, err := New(Config{Ctx: queryCtx(2), Snapshots: dir, Windows: []Window{{Name: "48h", Span: 48 * time.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	renaming, release := make(chan struct{}), make(chan struct{})
	orig := snapshot.FS
	snapshot.FS.Rename = func(oldpath, newpath string) error {
		renaming <- struct{}{}
		<-release
		return os.Rename(oldpath, newpath)
	}
	checkpoint := func() <-chan string {
		done := make(chan string, 1)
		go func() {
			seq, err := s.Checkpoint()
			done <- fmt.Sprint(seq, err)
		}()
		select {
		case got := <-done:
			t.Fatalf("Checkpoint returned %s with a cut in flight", got)
		case <-time.After(20 * time.Millisecond):
		}
		return done
	}
	files := func() int {
		seqs, err := dir.Cuts()
		if err != nil {
			t.Fatal(err)
		}
		return len(seqs)
	}

	feed(t, s, records[:1000])
	if err := s.CheckpointBehind(); err != nil {
		t.Fatal(err)
	}
	<-renaming
	done := checkpoint()
	release <- struct{}{}
	if got := <-done; got != "1 <nil>" {
		t.Fatalf("Checkpoint of the state in flight = %s, want 1 <nil>", got)
	}
	if n := files(); n != 1 {
		t.Fatalf("%d cut files for one state", n)
	}

	feed(t, s, records[1000:2000])
	if err := s.CheckpointBehind(); err != nil {
		t.Fatal(err)
	}
	<-renaming
	feed(t, s, records[2000:]) // ingest does not wait for the write
	done = checkpoint()
	release <- struct{}{} // the cut behind
	<-renaming
	release <- struct{}{} // Checkpoint's own
	if got := <-done; got != "3 <nil>" {
		t.Fatalf("Checkpoint after more records = %s, want 3 <nil>", got)
	}
	snapshot.FS = orig
	if n, f := files(), s.Freshness(); n != 3 || f.LastCutSeq != 3 {
		t.Fatalf("%d cut files, last cut %d; want 3 and 3", n, f.LastCutSeq)
	}
	waitUntil(t, "the cut goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// BenchmarkStoreColdIngest is the daemon's cold drain of the serve
// fleet in-process: every record through Store.Add, a CheckpointBehind
// at each quarter and a Checkpoint at the end, into a fresh snapshot
// directory. It reports ns per record, the store mutex each cut holds
// (stall-ms/cut) and B/op.
func BenchmarkStoreColdIngest(b *testing.B) {
	ctx, records := serveFleet(b)
	base := b.TempDir()
	quarter := max(len(records)/4, 1)
	var stall float64
	var cuts int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.New()
		dir := &snapshot.Dir{Path: filepath.Join(base, strconv.Itoa(i)), Keep: 3}
		s, err := New(Config{Ctx: ctx, Windows: []Window{{Name: "14d", Span: 14 * 24 * time.Hour}}, Snapshots: dir, Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		for n, r := range records {
			s.Add(r)
			if (n+1)%quarter == 0 {
				if err := s.CheckpointBehind(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		timing := reg.Timing("cellcars_query_cut_stall_seconds")
		stall += timing.Sum()
		cuts += timing.Count()
		if err := os.RemoveAll(dir.Path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(records)), "ns/rec")
	b.ReportMetric(stall*1e3/float64(max(cuts, 1)), "stall-ms/cut")
}
