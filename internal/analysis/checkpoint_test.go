package analysis

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
)

// cleanAccepted filters a raw workload the way accumSet.add does — the
// records stage accumulators actually observe.
func cleanAccepted(ctx Context, records []cdr.Record) []cdr.Record {
	out := make([]cdr.Record, 0, len(records))
	for _, r := range records {
		if Admits(ctx.Period, r) {
			out = append(out, r)
		}
	}
	return out
}

// TestAccumulatorSnapshotRoundTrip is the per-stage property
// Restore(Snapshot(a)) ≡ a, proven by merge-equivalence: feed half the
// workload, snapshot, restore into a fresh accumulator, feed the other
// half to both, and demand identical finalized reports. It also pins
// snapshot determinism: the restored accumulator re-encodes to the
// exact bytes it was restored from.
func TestAccumulatorSnapshotRoundTrip(t *testing.T) {
	ctx := engineCtx()
	records := cleanAccepted(ctx, engineWorkload(20000))
	half := len(records) / 2
	opts := EngineOptions{
		RunOptions: RunOptions{RareDays: []int{2, 5}, Seed: 1, BusyCells: engineBusyCells()},
		Workers:    1,
	}
	for i, st := range stageTable {
		i, name := i, st.name
		t.Run(name, func(t *testing.T) {
			set := newAccumSet(ctx, opts, 0)
			a, aCars := set.stages[i], &set.cars
			if a == nil {
				t.Fatalf("stage %s not enabled by test context", name)
			}
			if a.Stage() != name {
				t.Fatalf("table row %q builds the %q accumulator", name, a.Stage())
			}
			addRecords(a, aCars, ctx.Period, records[:half]...)
			var buf bytes.Buffer
			if err := a.SnapshotTo(&buf); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if st.over != nil {
				// A derived stage keeps no state: there is nothing to
				// round-trip, and it has no frame.
				if buf.Len() != 0 {
					t.Fatalf("stage %s keeps no state but wrote %d bytes", name, buf.Len())
				}
				return
			}
			var bCars carTable
			b := stageTable[i].build(ctx, opts, &bCars)
			if err := b.RestoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("restore: %v", err)
			}
			var again bytes.Buffer
			if err := b.SnapshotTo(&again); err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatal("restored state does not re-encode to identical bytes")
			}
			addRecords(a, aCars, ctx.Period, records[half:]...)
			addRecords(b, &bCars, ctx.Period, records[half:]...)
			repA, repB := &Report{}, &Report{}
			if err := a.Finalize(repA); err != nil {
				t.Fatalf("finalize original: %v", err)
			}
			if err := b.Finalize(repB); err != nil {
				t.Fatalf("finalize restored: %v", err)
			}
			if !reflect.DeepEqual(repA, repB) {
				t.Fatalf("reports diverge after restore:\n%+v\nvs\n%+v", repA, repB)
			}
		})
	}
}

// addRecords feeds records to one stage in a batch, as its set would.
func addRecords(acc Accumulator, cars *carTable, period simtime.Period, recs ...cdr.Record) {
	var b batch
	for _, r := range recs {
		b.push(r, cars.intern(r.Car), period.DayIndex(r.Start))
	}
	acc.Add(&b)
}

// faultReader simulates a crash: it serves n records and then fails.
type faultReader struct {
	r   cdr.Reader
	n   int
	err error
}

func (f *faultReader) Read() (cdr.Record, error) {
	if f.n <= 0 {
		return cdr.Record{}, f.err
	}
	f.n--
	return f.r.Read()
}

var errKilled = errors.New("simulated crash")

// TestSingleWorkerKillAndResume kills a checkpointed one-worker run at
// awkward offsets (between checkpoints), resumes from the snapshot
// file, and demands the final report be bit-identical with an
// uninterrupted push-path run. Run under -race this also proves the
// checkpoint write path is data-race free.
func TestSingleWorkerKillAndResume(t *testing.T) {
	records := engineWorkload(20000)
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 1}
	want := pushReference(ctx, eopts.RunOptions, records)

	for _, kill := range []int{1, 1500, 7777, 19999} {
		path := filepath.Join(t.TempDir(), "stream.snap")
		cfg := CheckpointConfig{Path: path, Every: 1500}
		_, err := NewEngine(ctx, eopts).RunReaderCheckpointed(
			&faultReader{r: cdr.NewSliceReader(records), n: kill, err: errKilled}, cfg)
		if !errors.Is(err, errKilled) {
			t.Fatalf("kill=%d: want simulated crash, got %v", kill, err)
		}

		// New process: restore from the last checkpoint and replay the
		// stream from the start; the watermark skip realigns it.
		cfg.Resume = true
		got, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), cfg)
		if err != nil {
			t.Fatalf("kill=%d resume: %v", kill, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("kill=%d: resumed report differs from uninterrupted run", kill)
		}
		if got.RawRecords != len(records) {
			t.Fatalf("kill=%d: consumed %d records, want %d", kill, got.RawRecords, len(records))
		}
	}
}

// TestSingleWorkerTriggerCheckpoint covers the SIGTERM path: a fired
// trigger makes the run write a final checkpoint and stop with
// ErrCheckpointStop, and that checkpoint resumes cleanly.
func TestSingleWorkerTriggerCheckpoint(t *testing.T) {
	records := engineWorkload(5000)
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 1}
	path := filepath.Join(t.TempDir(), "stream.snap")

	trig := make(chan struct{})
	close(trig)
	_, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), CheckpointConfig{Path: path, Trigger: trig})
	if !errors.Is(err, ErrCheckpointStop) {
		t.Fatalf("want ErrCheckpointStop, got %v", err)
	}

	got, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), CheckpointConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pushReference(ctx, eopts.RunOptions, records), got) {
		t.Fatal("trigger-checkpointed run differs from uninterrupted run")
	}
}

// TestResumeNeedsPath: Resume without a Path used to skip the restore
// and silently re-analyze from record zero; it is refused.
func TestResumeNeedsPath(t *testing.T) {
	_, err := NewEngine(engineCtx(), EngineOptions{}).
		RunReaderCheckpointed(cdr.NewSliceReader(engineWorkload(10)), CheckpointConfig{Resume: true})
	if err == nil {
		t.Fatal("Resume with an empty Path accepted")
	}
}

// TestEngineKillAndResume is the multi-worker acceptance criterion:
// a 4-worker checkpointed engine run killed mid-stream (twice) and
// resumed produces a report bit-identical with an uninterrupted run.
// The checkpoint barrier and snapshot write run under -race in CI.
func TestEngineKillAndResume(t *testing.T) {
	records := engineWorkload(40000)
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 4}

	want, err := NewEngine(ctx, eopts).RunReader(cdr.NewSliceReader(records))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "engine.snap")
	cfg := CheckpointConfig{Path: path, Every: 3000}
	for i, kill := range []int{9500, 26111} {
		e := NewEngine(ctx, eopts)
		cfg.Resume = i > 0
		_, err := e.RunReaderCheckpointed(
			&faultReader{r: cdr.NewSliceReader(records), n: kill, err: errKilled}, cfg)
		if !errors.Is(err, errKilled) {
			t.Fatalf("kill=%d: want simulated crash, got %v", kill, err)
		}
	}

	cfg.Resume = true
	got, err := NewEngine(ctx, eopts).RunReaderCheckpointed(cdr.NewSliceReader(records), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed engine report differs from uninterrupted run")
	}

	// Worker-count mismatch is refused, not silently re-sharded.
	_, err = NewEngine(ctx, EngineOptions{RunOptions: eopts.RunOptions, Workers: 2}).
		RunReaderCheckpointed(cdr.NewSliceReader(records), CheckpointConfig{Path: path, Resume: true})
	if err == nil {
		t.Fatal("resume with different worker count accepted")
	}
}

// shardByFilter splits records into n car-disjoint shards the way
// drive.RunWorker takes its shard: FilterFunc over ShardOfCar.
func shardByFilter(t *testing.T, records []cdr.Record, n int) [][]cdr.Record {
	t.Helper()
	shards := make([][]cdr.Record, n)
	for i := range shards {
		i := i
		var err error
		shards[i], err = cdr.ReadAll(cdr.FilterFunc(cdr.NewSliceReader(records), func(r cdr.Record) bool {
			return cdr.ShardOfCar(r.Car, n) == i
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	return shards
}

// TestPartialMergeEquivalence is the map-reduce acceptance criterion:
// for N ∈ {1, 3, 8}, per-shard partials written by independent
// streaming runs and merged equal the single-process report.
func TestPartialMergeEquivalence(t *testing.T) {
	records := engineWorkload(40000)
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}

	want, err := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: 1}).Run(records)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			shards := shardByFilter(t, records, n)
			var partials []*Partial
			for _, shard := range shards {
				s := NewStreamingWithOptions(ctx, opts)
				if err := s.AddAll(cdr.NewSliceReader(shard)); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := s.SnapshotTo(&buf); err != nil {
					t.Fatal(err)
				}
				p, err := ReadPartial(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				partials = append(partials, p)
			}
			root := partials[0]
			for _, p := range partials[1:] {
				if err := root.Merge(p, false); err != nil {
					t.Fatal(err)
				}
			}
			if got := root.Finalize(); !reflect.DeepEqual(want, got) {
				t.Fatal("merged partial report differs from single-process run")
			}
			if root.Records() != int64(len(records)) {
				t.Fatalf("merged partial absorbed %d records, want %d", root.Records(), len(records))
			}
		})
	}
}

// TestPartialMergeGuards covers the merge refusals: overlapping car
// shards need allow-overlap, and partials from a different study
// configuration are rejected outright.
func TestPartialMergeGuards(t *testing.T) {
	records := engineWorkload(5000)
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}

	partial := func(recs []cdr.Record, o RunOptions) *Partial {
		t.Helper()
		s := NewStreamingWithOptions(ctx, o)
		if err := s.AddAll(cdr.NewSliceReader(recs)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := ReadPartial(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// The same records twice share every car.
	a, b := partial(records, opts), partial(records, opts)
	if err := a.Merge(b, false); err == nil {
		t.Fatal("overlapping partials merged without allow-overlap")
	}
	if err := a.Merge(b, true); err != nil {
		t.Fatalf("allow-overlap merge refused: %v", err)
	}

	// A different clustering seed is a different study configuration.
	seeded := opts
	seeded.Seed = 99
	c := partial(records, seeded)
	if err := partial(records, opts).Merge(c, true); err == nil {
		t.Fatal("partials with different seeds merged")
	}
}

// TestPartialFileRoundTrip pins the file workflow carmerge uses:
// write, read, merge, re-write merged, read again, finalize.
func TestPartialFileRoundTrip(t *testing.T) {
	records := engineWorkload(8000)
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}
	dir := t.TempDir()

	shards := shardByFilter(t, records, 2)
	paths := make([]string, 2)
	for i, shard := range shards {
		s := NewStreamingWithOptions(ctx, opts)
		if err := s.AddAll(cdr.NewSliceReader(shard)); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.snap", i))
		if err := s.WriteSnapshot(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	a, err := ReadPartialFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadPartialFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b, false); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.snap")
	if err := a.WriteSnapshot(merged); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPartialFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: 1}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Finalize(); !reflect.DeepEqual(want, got) {
		t.Fatal("file round-tripped merged partial differs from single-process run")
	}
}

// TestSnapshotDeterministicBytes: the same state serializes to the
// same bytes, including across a restore cycle.
func TestSnapshotDeterministicBytes(t *testing.T) {
	records := engineWorkload(5000)
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}
	s := NewStreamingWithOptions(ctx, opts)
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	var one, two bytes.Buffer
	if err := s.SnapshotTo(&one); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapshotTo(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("same state encoded differently twice")
	}
	p, err := ReadPartial(bytes.NewReader(one.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var three bytes.Buffer
	if err := p.SnapshotTo(&three); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), three.Bytes()) {
		t.Fatal("restored state re-encoded differently")
	}
}

// TestSnapshotFrameOrder pins the snapshot layout: header, then per
// worker its frame followed by one frame per live stage in the order
// below. The names are spelled out here, not read from stageTable, so
// a reordered or renamed table row cannot change the format unnoticed.
func TestSnapshotFrameOrder(t *testing.T) {
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 2}
	path := filepath.Join(t.TempDir(), "order.snap")
	_, err := NewEngine(ctx, eopts).RunReaderCheckpointed(
		cdr.NewSliceReader(engineWorkload(500)), CheckpointConfig{Path: path, Every: 250})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		name, _, err := sr.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, name)
	}
	worker := []string{"worker",
		"stage:presence", "stage:connected",
		"stage:durations", "stage:handovers", "stage:carriers", "stage:usage", "stage:clusters"}
	want := append(append([]string{"header"}, worker...), worker...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame sequence\n got %v\nwant %v", got, want)
	}
}

// TestAnalysisSnapshotTruncation: every strict prefix of a valid
// analysis snapshot is a detected ErrBadSnapshot, never a partial
// success or a panic.
func TestAnalysisSnapshotTruncation(t *testing.T) {
	records := engineWorkload(60)
	ctx := engineCtx()
	s := NewStreamingWithOptions(ctx, RunOptions{BusyCells: engineBusyCells()})
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadPartial(bytes.NewReader(data[:cut])); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Fatalf("truncation at %d/%d: got %v", cut, len(data), err)
		}
	}
}

// TestCheckpointCutGolden pins the bytes of a cut: the SHA-256 below
// was recorded when snapshot version 5 dropped the days, segments and
// busy frames and put the busy/total split in the presence frame, whose
// reports TestEngineBusyExact, TestEngineSegmentsExact and
// TestEnginePerCarStagesExact hold to naive oracles; every other frame
// is byte for byte version 4's. A deliberate format change bumps
// snapshot.Version and this hash together; anything else that moves it
// is a bug.
func TestCheckpointCutGolden(t *testing.T) {
	const want = "89b39934d27d5b0e283b9d7c1a2bfb4d298f6a6cc8e94d0df2d7a21cf473c37c"
	ctx := engineCtx()
	eopts := EngineOptions{RunOptions: RunOptions{BusyCells: engineBusyCells()}, Workers: 1}
	path := filepath.Join(t.TempDir(), "golden.snap")
	_, err := NewEngine(ctx, eopts).RunReaderCheckpointed(
		cdr.NewSliceReader(engineWorkload(60000)), CheckpointConfig{Path: path, Every: 25000})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("cut of the fixed fleet hashes to %s (%d bytes), want %s", got, len(data), want)
	}
}

// TestTrackHeadsCutGolden is TestCheckpointCutGolden for the form a
// carqueryd bucket is sealed in: one TrackHeads set, whose stashed head
// sessions are written beside the open ones. The SHA-256 was recorded
// at snapshot version 5, as TestCheckpointCutGolden's was.
func TestTrackHeadsCutGolden(t *testing.T) {
	const want = "0a66756f3da1d4983dc3a21c64eeca31cf23744594b7a02b21969f9a77bb27a9"
	s := NewStreamingWithOptions(engineCtx(), RunOptions{BusyCells: engineBusyCells(), TrackHeads: true})
	if err := s.AddAll(cdr.NewSliceReader(engineWorkload(60000))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("TrackHeads cut of the fixed fleet hashes to %s (%d bytes), want %s", got, buf.Len(), want)
	}
}

// TestZeroOptionsWriteOneHeader: the three ways of building an
// accumulator set fill the zero RunOptions through one helper, so what
// an Engine checkpoints, what a Streaming snapshots and what a Partial
// restored from either writes back carry the same header — the
// precondition for merging them with each other.
func TestZeroOptionsWriteOneHeader(t *testing.T) {
	ctx := Context{Period: simtime.NewPeriod(t0, 7)}
	records := []cdr.Record{rec(1, cell(1), time.Hour, time.Minute)}

	path := filepath.Join(t.TempDir(), "engine.snap")
	cfg := CheckpointConfig{Path: path, Every: 1}
	if _, err := NewEngine(ctx, EngineOptions{}).RunReaderCheckpointed(cdr.NewSliceReader(records), cfg); err != nil {
		t.Fatal(err)
	}
	fromEngine, err := ReadPartialFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s := NewStreamingWithOptions(ctx, RunOptions{})
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	var streamed, again bytes.Buffer
	if err := s.SnapshotTo(&streamed); err != nil {
		t.Fatal(err)
	}
	fromStreaming, err := ReadPartial(bytes.NewReader(streamed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := fromStreaming.SnapshotTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), again.Bytes()) {
		t.Fatal("a restored Partial re-encodes to different bytes than it was restored from")
	}
	rewritten, err := ReadPartial(&again)
	if err != nil {
		t.Fatal(err)
	}

	want := SnapshotHeader{
		PeriodStart: t0, PeriodDays: 7,
		Seed: 1, RareDays: []int{10, 30},
		Workers: 1, Watermark: 1,
	}
	for name, got := range map[string]SnapshotHeader{
		"Engine": fromEngine.Header, "Streaming": fromStreaming.Header, "Partial": rewritten.Header,
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s wrote header %+v, want %+v", name, got, want)
		}
	}
	if got := fromEngine.opts.RunOptions; !reflect.DeepEqual(got, s.opts.RunOptions) {
		t.Errorf("restored Partial runs under %+v, the Streaming it came from under %+v", got, s.opts.RunOptions)
	}
}

// BenchmarkSnapshotEncode times one full-state Streaming.SnapshotTo at
// the state the benchmark's checkpoint workload cuts: a generated
// 1 600-car, 14-day fleet (≈ 320 k records) fully ingested — in file
// mode, as that workload runs, and under benchLoad, with the
// load-dependent stages. Beside the total it reports each stage frame's
// payload bytes (B/stage:<name>), so the stage that holds the bytes is
// named. Profile it with
// `go test -run '^$' -bench SnapshotEncode/file -cpuprofile cpu.out ./internal/analysis`.
func BenchmarkSnapshotEncode(b *testing.B) {
	period, records := benchFleet(b)
	for _, bc := range []struct {
		name string
		ctx  Context
	}{{"file", Context{Period: period}}, {"load", benchLoad(period, records)}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewStreamingWithOptions(bc.ctx, RunOptions{})
			if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
				b.Fatal(err)
			}
			var sized bytes.Buffer
			if err := s.SnapshotTo(&sized); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SnapshotTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/encode")
			b.ReportMetric(float64(sized.Len()), "bytes/encode")
			r, err := snapshot.NewReader(&sized)
			if err != nil {
				b.Fatal(err)
			}
			for {
				name, payload, err := r.NextFrame()
				if err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				if strings.HasPrefix(name, "stage:") {
					b.ReportMetric(float64(len(payload)), "B/"+name)
				}
			}
		})
	}
}

// fullStateSnapshot is the main fleet fully ingested and encoded: what
// BenchmarkSnapshotEncode writes and the restore tests read back.
func fullStateSnapshot(tb testing.TB) (Context, []byte, int) {
	period, records := benchFleet(tb)
	ctx := Context{Period: period}
	s := NewStreamingWithOptions(ctx, RunOptions{})
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return ctx, buf.Bytes(), len(s.set.cars.ids)
}

// BenchmarkSnapshotRestore is the mirror of BenchmarkSnapshotEncode:
// one RestoreStreaming of that full state from memory, the call a
// window miss makes per operand and -resume makes once.
func BenchmarkSnapshotRestore(b *testing.B) {
	ctx, snap, _ := fullStateSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreStreaming(ctx, RunOptions{}, bytes.NewBuffer(snap)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/restore")
}

// TestRestoreAllocatesLittlePerCar bounds what restoring the full state
// allocates per car in it: 6.8 objects, the per-car stages' pointers,
// bitmaps and map buckets. Sessions add a fraction of one because their
// spans are cut from chunks and the open-session column adopts them; a
// restore that copied each session again read 10.8 (two sessionizers, a
// struct and a span array each), and the decoder that read fixed-width
// values through io.ReadFull read 57.6.
func TestRestoreAllocatesLittlePerCar(t *testing.T) {
	ctx, snap, cars := fullStateSnapshot(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := RestoreStreaming(ctx, RunOptions{}, bytes.NewBuffer(snap)); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(cars)
	t.Logf("%.2f allocations per restored car over %d cars", per, cars)
	if per > 8 {
		t.Fatalf("restore allocates %.2f objects per car over %d cars, want ≤ 8", per, cars)
	}
}
