package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/snapshot"
)

// This file tests the engine's cuts (cutter in checkpoint.go): workers
// encoding their own sets, the commit running behind dispatch, and what
// the run does when a commit fails. The tests stub snapshot.FS and must
// not run in parallel.

// noGoroutineLeft fails the test if goroutines started since before was
// taken are still running a little later.
func noGoroutineLeft(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d still there after it", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func noTempFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind (stat err %v)", err)
	}
}

// watermarkOf restores the checkpoint at path and returns its
// watermark. It reports a file that does not restore with t.Error: the
// stubs call it on the goroutine a commit runs on.
func watermarkOf(t *testing.T, path string) int64 {
	t.Helper()
	p, err := ReadPartialFile(path)
	if err != nil {
		t.Errorf("checkpoint does not restore: %v", err)
		return -1
	}
	return p.Header.Watermark
}

// TestEngineCheckpointCutBytesMatchSerialEncode: for one worker and for
// several, at a cut per record, one inside a dispatch batch and one
// every few batches, every file a run commits is byte for byte the
// serial writeSnapshotStream of sets that took the same records — the
// encoder every cut went through before workers encoded their own, and
// still the one behind Streaming and Partial. The commits run behind
// dispatch; each file is read as its rename is asked for.
func TestEngineCheckpointCutBytesMatchSerialEncode(t *testing.T) {
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}
	all := engineWorkload(20000)
	for _, workers := range []int{1, 2, 3, 5} {
		for _, every := range []int{1, 1000, 4096} {
			t.Run(fmt.Sprintf("workers=%d/every=%d", workers, every), func(t *testing.T) {
				records := all[:min(len(all), 48*every)]
				eopts := EngineOptions{RunOptions: opts, Workers: workers}

				// The arbiter: the same records into the same sets, by hand.
				e := NewEngine(ctx, eopts)
				sets := make([]*accumSet, workers)
				for i := range sets {
					sets[i] = newAccumSet(ctx, e.opts, i)
				}
				var want [][]byte
				for i, rec := range records {
					sets[cdr.ShardOfCar(rec.Car, workers)].add(rec)
					if read := int64(i + 1); read%int64(every) == 0 {
						var buf bytes.Buffer
						if err := writeSnapshotStream(&buf, headerFor(ctx, e.opts, read), sets); err != nil {
							t.Fatal(err)
						}
						want = append(want, bytes.Clone(buf.Bytes()))
					}
				}

				var mu sync.Mutex
				var got [][]byte
				stubCheckpointIO(t, nil, func(oldpath, newpath string) error {
					data, err := os.ReadFile(oldpath)
					if err != nil {
						return err
					}
					mu.Lock()
					got = append(got, data)
					mu.Unlock()
					return os.Rename(oldpath, newpath)
				})
				path := filepath.Join(t.TempDir(), "cut.snap")
				before := runtime.NumGoroutine()
				if _, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records),
					CheckpointConfig{Path: path, Every: int64(every)}); err != nil {
					t.Fatal(err)
				}
				noGoroutineLeft(t, before)
				noTempFile(t, path)
				if len(got) != len(want) {
					t.Fatalf("%d cuts committed, want %d", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("cut %d (%d bytes) differs from the serial encode of the same sets (%d bytes)", i+1, len(got[i]), len(want[i]))
					}
				}
				if last, err := os.ReadFile(path); err != nil || !bytes.Equal(last, want[len(want)-1]) {
					t.Fatalf("the file left behind is not the last cut (%v)", err)
				}
			})
		}
	}
}

// commitFault makes one step of one durable write fail: the fsync or
// close of the nth file created, or the nth rename. It also records
// what the checkpoint path held when each temp file was created — the
// recovery point while that cut was being written.
type commitFault struct {
	t    *testing.T
	path string
	step string // "fsync", "close" or "rename"
	nth  int
	err  error

	mu        sync.Mutex
	creates   int
	renames   int
	recovery  []int64 // watermark at path when create n was called, -1 for none
	committed []int64 // watermark of each file renamed into place
}

type faultFile struct {
	*os.File
	failSync, failClose error
}

func (f faultFile) Sync() error {
	if f.failSync != nil {
		return f.failSync
	}
	return f.File.Sync()
}

func (f faultFile) Close() error {
	err := f.File.Close()
	if f.failClose != nil {
		return f.failClose
	}
	return err
}

func (c *commitFault) install() {
	stubCheckpointIO(c.t, func(name string) (snapshot.File, error) {
		c.mu.Lock()
		c.creates++
		n := c.creates
		c.mu.Unlock()
		at := int64(-1)
		if _, err := os.Stat(c.path); err == nil {
			at = watermarkOf(c.t, c.path)
		}
		c.mu.Lock()
		c.recovery = append(c.recovery, at)
		c.mu.Unlock()
		f, err := os.Create(name)
		if err != nil {
			return nil, err
		}
		ff := faultFile{File: f}
		if n == c.nth {
			switch c.step {
			case "fsync":
				ff.failSync = c.err
			case "close":
				ff.failClose = c.err
			}
		}
		return ff, nil
	}, func(oldpath, newpath string) error {
		c.mu.Lock()
		c.renames++
		n := c.renames
		c.mu.Unlock()
		if c.step == "rename" && n == c.nth {
			return c.err
		}
		if err := os.Rename(oldpath, newpath); err != nil {
			return err
		}
		at := watermarkOf(c.t, newpath)
		c.mu.Lock()
		c.committed = append(c.committed, at)
		c.mu.Unlock()
		return nil
	})
}

// triggerAfter closes a trigger as the batch holding the record after
// the first n is read, so that a run stops at a known watermark: the end
// of that batch, where the dispatcher polls next. Its batches are the
// dispatcher's: 512 records, clipped at each periodic cut.
type triggerAfter struct {
	r    cdr.Reader
	n    int
	trig chan struct{}
}

func (r *triggerAfter) Read() (cdr.Record, error) {
	var one [1]cdr.Record
	if n, err := r.ReadBatch(one[:]); n == 0 {
		return cdr.Record{}, err
	}
	return one[0], nil
}

func (r *triggerAfter) ReadBatch(dst []cdr.Record) (int, error) {
	k, err := cdr.ReadBatch(r.r, dst)
	if 0 <= r.n && r.n < k {
		close(r.trig)
	}
	r.n -= k
	return k, err
}

// TestEngineCheckpointCommitFaults fails the fsync, the close and the
// rename of one cut's commit — a periodic cut in mid-run, the last one
// before end of input, the one before a trigger stop and the trigger
// cut itself — with a permanent error, and with EAGAIN, the errno a
// classifier would call transient. Either fails the run where the
// commit is joined, at its first attempt: the path holds the complete
// cut before it the whole time, and no temp file and no goroutine is
// left.
func TestEngineCheckpointCommitFaults(t *testing.T) {
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 3}
	records := engineWorkload(10500)
	const every = 1000 // cuts 1..10 at 1 000..10 000, then 500 records to end of input
	faults := []struct {
		name string
		err  error
	}{{"transient", syscall.EAGAIN}, {"permanent", errors.New("disk on fire")}}

	type outcome struct {
		watermark int64   // what path restores to afterwards
		recovery  []int64 // path's watermark as each temp file was created
	}
	// ramp is the recovery points of n undisturbed cuts: nothing, then
	// each cut the one before it.
	ramp := func(n int) []int64 {
		out := []int64{-1}
		for i := 1; i < n; i++ {
			out = append(out, int64(i*every))
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		nth     int // the cut whose commit fails
		trigger int // records before the trigger fires; 0 for none
		want    outcome
	}{
		// Cut 3 fails: the run fails joining it as cut 4 begins.
		{"periodic", 3, 0, outcome{2000, ramp(3)}},
		// Cut 10 fails and no cut follows: the run fails at end of input.
		{"last", 10, 0, outcome{9000, ramp(10)}},
		// Cut 4 fails and the trigger stops the run at 4 512, the end of
		// the batch after cut 4: the run fails before the trigger cut.
		{"before-trigger", 4, 4090, outcome{3000, ramp(4)}},
		// The trigger cut itself (the fifth file) is written and committed
		// in one piece.
		{"trigger", 5, 4090, outcome{4000, ramp(5)}},
	} {
		for _, f := range faults {
			for _, step := range []string{"fsync", "close", "rename"} {
				t.Run(tc.name+"/"+f.name+"/"+step, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "run.snap")
					fault := &commitFault{t: t, path: path, step: step, nth: tc.nth, err: f.err}
					fault.install()
					reg := obs.New()
					opts := eopts
					opts.Obs = reg
					cfg := CheckpointConfig{Path: path, Every: every}
					var src cdr.Reader = cdr.NewSliceReader(records)
					if tc.trigger > 0 {
						trig := make(chan struct{})
						cfg.Trigger = trig
						src = &triggerAfter{r: src, n: tc.trigger, trig: trig}
					}
					before := runtime.NumGoroutine()
					_, err := NewEngine(ctx, opts).RunReaderCheckpointed(src, cfg)
					noGoroutineLeft(t, before)
					noTempFile(t, path)
					if !errors.Is(err, f.err) {
						t.Fatalf("run returned %v, want %v", err, f.err)
					}
					if got := watermarkOf(t, path); got != tc.want.watermark {
						t.Fatalf("path restores to watermark %d, want %d", got, tc.want.watermark)
					}
					if !reflect.DeepEqual(fault.recovery, tc.want.recovery) {
						t.Fatalf("recovery point as each cut was written: %v, want %v", fault.recovery, tc.want.recovery)
					}
					if writes := reg.Counter("cellcars_checkpoint_writes_total").Value(); writes != int64(len(fault.committed)) {
						t.Fatalf("%d writes counted, %d files renamed into place", writes, len(fault.committed))
					}
				})
			}
		}
	}
}

// TestEngineTriggerStopIsCommitted: when ErrCheckpointStop comes back
// the file is the trigger cut, renamed into place — not a commit still
// in flight — and the cuts before it were each committed before the
// next began.
func TestEngineTriggerStopIsCommitted(t *testing.T) {
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 4}
	records := engineWorkload(9000)
	path := filepath.Join(t.TempDir(), "run.snap")
	fault := &commitFault{t: t, path: path}
	fault.install()
	trig := make(chan struct{})
	before := runtime.NumGoroutine()
	_, err := NewEngine(ctx, eopts).RunReaderCheckpointed(
		&triggerAfter{r: cdr.NewSliceReader(records), n: 5000, trig: trig},
		CheckpointConfig{Path: path, Every: 700, Trigger: trig})
	if !errors.Is(err, ErrCheckpointStop) {
		t.Fatalf("want ErrCheckpointStop, got %v", err)
	}
	noGoroutineLeft(t, before)
	noTempFile(t, path)
	// Record 5 001 is read in the batch from 4 900 to 5 412.
	wantCommitted := []int64{700, 1400, 2100, 2800, 3500, 4200, 4900, 5412}
	if !reflect.DeepEqual(fault.committed, wantCommitted) {
		t.Fatalf("cuts committed at %v, want %v", fault.committed, wantCommitted)
	}
	if got := watermarkOf(t, path); got != 5412 {
		t.Fatalf("path restores to watermark %d, want the trigger cut's 5412", got)
	}
	got, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), CheckpointConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pushReference(ctx, eopts.RunOptions, records), got) {
		t.Fatal("run resumed from the trigger cut differs from an uninterrupted one")
	}
}

// TestEngineKillBetweenWriteAndCommitThenResume kills a run between the
// two halves of a cut: cut 3's temp file is written, its rename hangs,
// the dispatcher goes on for over a batch of records, and there the
// process dies — the rename never happens, and a torn temp file stays
// behind. What is on disk is cut 2; a -resume from it reproduces the
// uninterrupted report and leaves no temp file.
func TestEngineKillBetweenWriteAndCommitThenResume(t *testing.T) {
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 3}
	records := engineWorkload(20000)
	want, err := NewEngine(ctx, eopts).RunReader(cdr.NewSliceReader(records))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.snap")
	cfg := CheckpointConfig{Path: path, Every: 3000}

	var renames atomic.Int64
	hung := make(chan struct{})    // closed when cut 3's rename is asked for
	release := make(chan struct{}) // closed when the process "dies"
	stubCheckpointIO(t, nil, func(oldpath, newpath string) error {
		if renames.Add(1) == 3 {
			close(hung)
			<-release
			return errKilled
		}
		return os.Rename(oldpath, newpath)
	})
	// Just past cut 3 the reader waits for the rename to hang, then serves
	// 700 records more — over a dispatch batch, handed out with cut 3
	// written and not committed — and dies.
	src := &killAfterHang{r: cdr.NewSliceReader(records), hung: hung, release: release, waitAt: 9100, extra: 700}
	before := runtime.NumGoroutine()
	_, err = NewEngine(ctx, eopts).RunReaderCheckpointed(src, cfg)
	if !errors.Is(err, errKilled) {
		t.Fatalf("want the simulated crash, got %v", err)
	}
	noGoroutineLeft(t, before)
	if src.served != 9100+700 {
		t.Fatalf("the run read %d records; dispatch did not go on behind the hanging commit", src.served)
	}
	if got := watermarkOf(t, path); got != 6000 {
		t.Fatalf("on disk after the kill: watermark %d, want cut 2's 6000", got)
	}
	// What a real crash leaves where the engine's cleanup ran here.
	if err := os.WriteFile(path+".tmp", []byte("CCARSNAP torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	snapshot.FS.Rename = os.Rename
	cfg.Resume = true
	got, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("run resumed after a kill between write and commit differs from the uninterrupted one")
	}
	noTempFile(t, path)
	if got := watermarkOf(t, path); got != 18000 {
		t.Fatalf("after the resumed run: watermark %d, want the last cut's 18000", got)
	}
}

// killAfterHang serves waitAt records, waits for hung, serves extra
// more, then lets the hanging rename go and fails.
type killAfterHang struct {
	r             cdr.Reader
	hung          <-chan struct{}
	release       chan<- struct{}
	waitAt, extra int
	served        int
}

func (k *killAfterHang) Read() (cdr.Record, error) {
	switch k.served {
	case k.waitAt:
		<-k.hung
	case k.waitAt + k.extra:
		close(k.release)
		return cdr.Record{}, errKilled
	}
	k.served++
	return k.r.Read()
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResumeFirstCutAllocatesLikeSteadyState: restored sets know how
// long their frames were, so the first cut after a -resume sizes its
// buffers as a steady-state cut does instead of doubling its way up from
// nothing — for the set the dispatcher streams a frame at a time and for
// one a worker encodes whole — and allocates no more than a later cut of
// the same state plus the eighth of slack.
func TestResumeFirstCutAllocatesLikeSteadyState(t *testing.T) {
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 2}
	path := filepath.Join(t.TempDir(), "run.snap")
	if _, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(engineWorkload(60000)),
		CheckpointConfig{Path: path, Every: 50000}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, sets, err := restoreSets(bytes.NewBuffer(data), ctx, NewEngine(ctx, eopts).opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sink := range []struct {
		name   string
		set    int
		encode func() error
	}{
		{"streamed", 0, func() error {
			var fb snapshot.Frames
			return encodeSet(&fb, 0, sets[0], snapshot.NewWriter(io.Discard))
		}},
		{"whole", 1, func() error { return encodeSet(new(snapshot.Frames), 1, sets[1], nil) }},
	} {
		var err error
		first := allocatedBy(func() { err = sink.encode() })
		if err != nil {
			t.Fatal(err)
		}
		steady := allocatedBy(func() { err = sink.encode() })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: first cut after the restore allocates %d bytes, the next %d", sink.name, first, steady)
		if first > steady+steady/8 {
			t.Errorf("%s: first cut after a restore allocates %d bytes, a steady-state cut %d: the restored hint is missing", sink.name, first, steady)
		}
	}
}

// TestEngineCheckpointProfileReconciles: an observed run that cut says
// so in its report — as many cuts as it took, as many bytes as
// cellcars_checkpoint_bytes_total counted, a stall that is the sum of
// cellcars_checkpoint_stall_seconds, one observation per cut — and
// cellcars_checkpoint_write_seconds has every durable write, the last
// one included, by the time the run returns. An unobserved run, and one
// that never cut, report nothing.
func TestEngineCheckpointProfileReconciles(t *testing.T) {
	ctx := engineCtx()
	records := engineWorkload(9500)
	for _, workers := range []int{1, 3} {
		reg := obs.New()
		eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells(), Obs: reg}, Workers: workers}
		path := filepath.Join(t.TempDir(), "run.snap")
		rep, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), CheckpointConfig{Path: path, Every: 1000})
		if err != nil {
			t.Fatal(err)
		}
		ck := rep.ProfileCheckpoints
		stall := reg.Timing("cellcars_checkpoint_stall_seconds")
		writes := reg.Timing("cellcars_checkpoint_write_seconds")
		if ck.Cuts != 9 || stall.Count() != 9 || writes.Count() != 9 ||
			reg.Counter("cellcars_checkpoint_writes_total").Value() != 9 {
			t.Fatalf("workers=%d: report says %d cuts, %d stalls and %d writes observed, %d counted; want 9 of each",
				workers, ck.Cuts, stall.Count(), writes.Count(), reg.Counter("cellcars_checkpoint_writes_total").Value())
		}
		if ck.StallSeconds <= 0 || ck.StallSeconds < stall.Sum()*0.999 || ck.StallSeconds > stall.Sum()*1.001 {
			t.Fatalf("workers=%d: report says cuts stalled ingest %.6f s, the metric sums to %.6f", workers, ck.StallSeconds, stall.Sum())
		}
		if got := reg.Counter("cellcars_checkpoint_bytes_total").Value(); ck.Bytes != got || got == 0 {
			t.Fatalf("workers=%d: report says %d bytes written, the metric %d", workers, ck.Bytes, got)
		}

		eopts.Obs = nil
		rep, err = NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), CheckpointConfig{Path: path, Every: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ProfileCheckpoints != (CheckpointProfile{}) {
			t.Fatalf("workers=%d: unobserved run reports checkpoints %+v", workers, rep.ProfileCheckpoints)
		}
		eopts.Obs = obs.New()
		rep, err = NewEngine(ctx, eopts).RunReader(cdr.NewSliceReader(records))
		if err != nil {
			t.Fatal(err)
		}
		if rep.ProfileCheckpoints != (CheckpointProfile{}) {
			t.Fatalf("workers=%d: a run without cuts reports checkpoints %+v", workers, rep.ProfileCheckpoints)
		}
	}
}

// pauseAfter sleeps once n records have been read and every n after.
type pauseAfter struct {
	r     cdr.Reader
	n     int
	read  int
	pause time.Duration
}

func (p *pauseAfter) Read() (cdr.Record, error) {
	if p.read > 0 && p.read%p.n == 0 {
		time.Sleep(p.pause)
	}
	p.read++
	return p.r.Read()
}

// TestEngineCheckpointWriteSecondsIsCreateToRename: a cut's commit is
// joined an interval after it landed, and
// cellcars_checkpoint_write_seconds must not stretch to there: it is
// the time from creating the temp file to renaming it, as it was when
// the write was synchronous. The input stalls 100 ms after every cut, so
// a duration taken at the join would read that much too long.
func TestEngineCheckpointWriteSecondsIsCreateToRename(t *testing.T) {
	ctx := engineCtx()
	reg := obs.New()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells(), Obs: reg}, Workers: 2}
	var mu sync.Mutex
	var created time.Time
	var onDisk time.Duration
	stubCheckpointIO(t, func(name string) (snapshot.File, error) {
		mu.Lock()
		created = time.Now()
		mu.Unlock()
		return os.Create(name)
	}, func(oldpath, newpath string) error {
		err := os.Rename(oldpath, newpath)
		mu.Lock()
		onDisk += time.Since(created)
		mu.Unlock()
		return err
	})
	const pause = 100 * time.Millisecond
	src := &pauseAfter{r: cdr.NewSliceReader(engineWorkload(3500)), n: 1000, pause: pause}
	path := filepath.Join(t.TempDir(), "run.snap")
	if _, err := NewEngine(ctx, eopts).RunReaderCheckpointed(src, CheckpointConfig{Path: path, Every: 1000}); err != nil {
		t.Fatal(err)
	}
	writes := reg.Timing("cellcars_checkpoint_write_seconds")
	got := time.Duration(writes.Sum() * float64(time.Second))
	if writes.Count() != 3 || got < onDisk || got > onDisk+3*pause/2 {
		t.Fatalf("write_seconds sums to %v over %d writes; create → rename took %v over 3", got, writes.Count(), onDisk)
	}
}
