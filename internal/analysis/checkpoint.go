package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
)

// This file is the durable-state layer over the accumulator engine:
// it frames every worker's partial stage state into a versioned
// snapshot file (package snapshot), writes it with atomic write-rename
// and a record-offset watermark (the engine's dispatcher in engine.go
// decides when), restores it — restoreSets is the one resume routine,
// behind both Engine resume and RestoreStreaming — and implements the
// map-reduce workflow: per-shard partials (caranalyze -partial) merged
// and finalized by carmerge. Because the accumulators merge by
// car-disjoint union, a resumed or merged run finalizes to a report
// bit-identical with an uninterrupted single-process run.
//
// Snapshot file layout (inside the snapshot container):
//
//	"header"  study configuration + worker count + watermark
//	"worker"  one per worker set: index, ingest counters, stage errors
//	"stage:X" one per live stage of the preceding worker that keeps
//	          state (not days, segments or busy, which are derived from
//	          presence), in stageTable order, payload = the
//	          accumulator's SnapshotTo
//
// The header pins everything that must match for two snapshots to be
// mergeable or for a checkpoint to be resumable: study period, time
// zone, rare-day thresholds, clustering seed and cell set, and whether
// the load-dependent stages ran. The watermark is the count of raw
// records consumed; resuming skips exactly that many records of the
// re-opened stream.

// ErrCheckpointStop reports that a checkpointed run stopped on its
// trigger after writing a final checkpoint, rather than reaching the
// end of its input.
var ErrCheckpointStop = errors.New("analysis: run stopped at checkpoint trigger")

// CheckpointConfig configures periodic state snapshots of a run.
type CheckpointConfig struct {
	// Path is the snapshot file. Checkpoints replace it atomically
	// (write to Path+".tmp", fsync, rename). Empty disables writes.
	Path string
	// Every writes a checkpoint after each N raw records consumed.
	// Zero means no periodic checkpoints (trigger-only).
	Every int64
	// Trigger, when it becomes readable, makes the run write a final
	// checkpoint and stop with ErrCheckpointStop — the SIGTERM hook.
	Trigger <-chan struct{}
	// Resume restores state from Path before consuming the input and
	// skips the watermark's worth of records. A missing file starts a
	// fresh run, so a crash-restart loop needs no first-run special
	// case; an empty Path is an error.
	Resume bool
}

// SnapshotHeader is the study configuration a snapshot was produced
// under, plus its progress watermark. Two snapshots are mergeable, and
// a checkpoint resumable, only when the configuration fields agree.
type SnapshotHeader struct {
	PeriodStart     time.Time
	PeriodDays      int
	TZOffsetSeconds int
	Seed            uint64
	RareDays        []int
	BusyCells       []radio.CellKey
	// Workers is the accumulator-set count stored in the file.
	Workers int
	// Watermark counts raw input records consumed when the snapshot
	// was taken.
	Watermark int64
	// HasLoad records whether the load-dependent stages (segments,
	// busy, clusters) were running.
	HasLoad bool
}

// Period reconstructs the study period the snapshot was taken under.
func (h SnapshotHeader) Period() simtime.Period {
	return simtime.NewPeriod(h.PeriodStart, h.PeriodDays)
}

// SameStudy reports whether two snapshots were produced under the same
// study configuration — the precondition for merging them.
func (h SnapshotHeader) SameStudy(o SnapshotHeader) error {
	switch {
	case !h.PeriodStart.Equal(o.PeriodStart) || h.PeriodDays != o.PeriodDays:
		return fmt.Errorf("analysis: study periods differ (%s+%dd vs %s+%dd)",
			h.PeriodStart.Format("2006-01-02"), h.PeriodDays,
			o.PeriodStart.Format("2006-01-02"), o.PeriodDays)
	case h.TZOffsetSeconds != o.TZOffsetSeconds:
		return fmt.Errorf("analysis: time-zone offsets differ (%d vs %d)", h.TZOffsetSeconds, o.TZOffsetSeconds)
	case h.Seed != o.Seed:
		return fmt.Errorf("analysis: clustering seeds differ (%d vs %d)", h.Seed, o.Seed)
	case !slices.Equal(h.RareDays, o.RareDays):
		return fmt.Errorf("analysis: rare-day thresholds differ (%v vs %v)", h.RareDays, o.RareDays)
	case !slices.Equal(h.BusyCells, o.BusyCells):
		return fmt.Errorf("analysis: busy-cell sets differ (%d vs %d cells)", len(h.BusyCells), len(o.BusyCells))
	case h.HasLoad != o.HasLoad:
		return fmt.Errorf("analysis: load-dependent stages ran in one snapshot but not the other")
	}
	return nil
}

func headerFor(ctx Context, opts EngineOptions, watermark int64) SnapshotHeader {
	return SnapshotHeader{
		PeriodStart:     ctx.Period.Start(),
		PeriodDays:      ctx.Period.Days(),
		TZOffsetSeconds: ctx.TZOffsetSeconds,
		Seed:            opts.Seed,
		RareDays:        opts.RareDays,
		BusyCells:       opts.BusyCells,
		Workers:         opts.Workers,
		Watermark:       watermark,
		HasLoad:         ctx.Load != nil,
	}
}

const (
	maxHeaderDays    = 36500
	maxHeaderWorkers = 1 << 12
	maxHeaderRare    = 1024
	maxHeaderCells   = 1 << 20
	// maxStageErrLen truncates stored stage-error messages to fit the
	// codec's string limit.
	maxStageErrLen = 200
	// frameOverhead is at most what a frame adds to its name and payload:
	// two length prefixes and the checksum.
	frameOverhead = 16
)

func encodeHeader(e *snapshot.Encoder, h SnapshotHeader) {
	e.Varint(h.PeriodStart.Unix())
	e.Uvarint(uint64(h.PeriodDays))
	e.Varint(int64(h.TZOffsetSeconds))
	e.Uvarint(h.Seed)
	e.Uvarint(uint64(len(h.RareDays)))
	for _, rd := range h.RareDays {
		e.Varint(int64(rd))
	}
	e.Uvarint(uint64(len(h.BusyCells)))
	for _, c := range h.BusyCells {
		e.Uvarint(uint64(c))
	}
	e.Uvarint(uint64(h.Workers))
	e.Varint(h.Watermark)
	e.Bool(h.HasLoad)
}

func decodeHeader(payload []byte) (SnapshotHeader, error) {
	d := snapshot.NewDecoderBytes(payload)
	var h SnapshotHeader
	h.PeriodStart = time.Unix(d.Varint(), 0).UTC()
	h.PeriodDays = d.Len(maxHeaderDays)
	h.TZOffsetSeconds = int(d.Varint())
	h.Seed = d.Uvarint()
	nr := d.Len(maxHeaderRare)
	for i := 0; i < nr && d.Err() == nil; i++ {
		h.RareDays = append(h.RareDays, int(d.Varint()))
	}
	ncells := d.Len(maxHeaderCells)
	for i := 0; i < ncells && d.Err() == nil; i++ {
		h.BusyCells = append(h.BusyCells, radio.CellKey(d.Uvarint()))
	}
	h.Workers = d.Len(maxHeaderWorkers)
	h.Watermark = d.Varint()
	h.HasLoad = d.Bool()
	if d.Err() != nil {
		return h, d.Err()
	}
	if err := simtime.CheckPeriod(h.PeriodStart, h.PeriodDays); err != nil {
		d.Failf("header period: %v", err)
	}
	if h.Workers < 1 {
		d.Failf("header worker count %d", h.Workers)
	}
	if h.Watermark < 0 {
		d.Failf("header watermark %d negative", h.Watermark)
	}
	return h, d.Err()
}

// ---------------------------------------------------------------------------
// Snapshot writing

// writeSnapshotStream frames the header and every worker set into w.
func writeSnapshotStream(w io.Writer, hdr SnapshotHeader, sets []*accumSet) error {
	return writeSnapshotCut(w, hdr, sets, nil)
}

// writeSnapshotCut is writeSnapshotStream for a cut some of whose sets
// their workers have encoded already: frames(i) returns set i's frames,
// or nil for a set to encode here, one frame at a time, as every set is
// without it.
func writeSnapshotCut(w io.Writer, hdr SnapshotHeader, sets []*accumSet, frames func(i int) (*snapshot.Frames, error)) error {
	sw := snapshot.NewWriter(w)
	enc := sw.Begin("header")
	encodeHeader(enc, hdr)
	sw.End()
	for i, set := range sets {
		var encoded *snapshot.Frames
		if frames != nil {
			var err error
			if encoded, err = frames(i); err != nil {
				return err
			}
		}
		if encoded != nil {
			sw.Append(encoded)
			continue
		}
		// One buffer per set and cut, dropped with the cut: one kept alive
		// between cuts is a megabyte the collector counts live when it sets
		// the heap goal (DESIGN §2.1 has the measurement).
		var fb snapshot.Frames
		if err := encodeSet(&fb, i, set, sw); err != nil {
			return err
		}
	}
	return sw.Close()
}

// encodeSet appends set i's frames — "worker", then one "stage:X" per
// live stage that keeps state — to fb, each payload encoded in place. It
// is the one walk of a set's frames, for both of a cut's sinks: with a
// stream, every finished frame moves on to sw and fb holds one frame at
// a time (the dispatcher's set, a Streaming, a Partial); without, fb
// ends up holding the whole set, for the stream to take later (a worker
// encoding its own set at a barrier). Either way fb starts at the size
// the set filled it to last time plus an eighth: a buffer grown from
// nothing doubles its way there every cut (≈ 2 MB of garbage and 1 MB of
// copying per cut of a 1 600-car fleet). The set's cars are sorted once,
// for every stage to write in that order, and the order is dropped with
// the cut.
func encodeSet(fb *snapshot.Frames, i int, set *accumSet, sw *snapshot.Writer) error {
	set.flush()
	set.cars.sorted()
	defer func() { set.cars.order = nil }()
	hint := &set.framesHint
	if sw != nil {
		hint = &set.frameHint
	}
	fb.Grow(*hint + *hint/8)
	// done closes the open frame and, streaming, hands it on.
	done := func() {
		fb.End()
		*hint = max(*hint, fb.Len())
		if sw != nil {
			sw.Append(fb)
			fb.Reset()
		}
	}
	enc := fb.Begin("worker")
	enc.Uvarint(uint64(i))
	enc.Varint(set.raw)
	enc.Varint(set.ghosts)
	enc.Varint(set.outOfPeriod)
	enc.Varint(set.accepted)
	enc.Uvarint(uint64(len(set.errs)))
	for _, se := range set.errs {
		msg := se.Err
		if len(msg) > maxStageErrLen {
			msg = msg[:maxStageErrLen]
		}
		enc.String(se.Stage)
		enc.String(msg)
	}
	done()
	for j, acc := range set.stages {
		if acc == nil || stageTable[j].over != nil {
			continue
		}
		name := stageTable[j].name
		fb.Begin("stage:" + name)
		if err := acc.SnapshotTo(fb); err != nil {
			return fmt.Errorf("analysis: snapshot stage %s: %w", name, err)
		}
		done()
	}
	return fb.Err()
}

// A checkpoint write that fails with a transient error
// (cdr.IsTransient) is repeated up to checkpointRetryAttempts more
// times, sleeping checkpointRetryBackoff, doubled each time, in
// between; any other error, and the last transient one, fails the
// write. A checkpoint landing on flaky storage (NFS hiccup, throttled
// volume) should cost a retry, not the run.
const (
	checkpointRetryAttempts = 3
	checkpointRetryBackoff  = 5 * time.Millisecond
)

// checkpointSleep is stubbed by tests to skip the wall-clock backoff.
var checkpointSleep = time.Sleep

// retryTransient runs attempt under the policy above, counting each
// retry in cellcars_checkpoint_retries_total of a non-nil registry.
func retryTransient(reg *obs.Registry, attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		if err == nil || !cdr.IsTransient(err) || n >= checkpointRetryAttempts {
			return err
		}
		countCheckpointRetry(reg)
		checkpointSleep(checkpointRetryBackoff << n)
	}
}

func countCheckpointRetry(reg *obs.Registry) {
	if reg != nil {
		reg.Counter("cellcars_checkpoint_retries_total").Inc()
	}
}

// observeCheckpointWrite records one durable write that landed: its
// count, byte size and the wall time it took from creating the temp
// file to the rename, under the checkpoint metrics
// (cellcars_checkpoint_writes_total and kin) of a non-nil registry.
func observeCheckpointWrite(reg *obs.Registry, n int64, took time.Duration) {
	if reg != nil {
		reg.Counter("cellcars_checkpoint_writes_total").Inc()
		reg.Counter("cellcars_checkpoint_bytes_total").Add(n)
		reg.Timing("cellcars_checkpoint_write_seconds").Observe(took)
	}
}

// writeSnapshotFile writes a snapshot atomically through
// snapshot.WriteFile — both halves of the durable write, back to back —
// so a crash mid-checkpoint leaves the previous checkpoint intact,
// under the retry policy above; each failed attempt removes its own
// temp file, so retries never leak. Returns the file's size.
func writeSnapshotFile(path string, hdr SnapshotHeader, sets []*accumSet, reg *obs.Registry) (int64, error) {
	t0 := time.Now()
	var n int64
	err := retryTransient(reg, func() (err error) {
		n, err = snapshot.WriteFile(path, func(w io.Writer) error {
			return writeSnapshotStream(w, hdr, sets)
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	observeCheckpointWrite(reg, n, time.Since(t0))
	return n, nil
}

// ---------------------------------------------------------------------------
// The engine's cuts

// cutter takes an engine run's checkpoints. A cut costs ingest the
// encoding of its slowest set and no more:
//
//   - Sets are encoded by their owners. The barrier has every worker
//     flush its set, and every worker past the first encode its own into
//     one buffer (encodeSet) while the dispatcher streams the header and
//     set 0 to the temp file; the other sets' buffers follow in set order
//     and are dropped. One worker: the dispatcher's stream is all there is.
//   - The durable half leaves the critical path. Once the temp file is
//     written (snapshot.WriteTemp) the sets may move again, so dispatch
//     resumes while a goroutine fsyncs, closes and renames
//     (Temp.Commit). That commit is joined before the next cut creates
//     its temp file, before a trigger stop returns and after the workers
//     stop at end of input: path is always a complete fsynced cut, no
//     goroutine or temp file outlives the run, and after a crash the
//     recovery point is the last committed cut, at most one interval
//     older than the last one taken.
//
// A transient failure of the write half repeats the attempt under
// retryTransient (the workers' buffers are still held: they are sent
// again, not encoded again). A commit that failed is seen at its join,
// where the sets are quiescent again: transient, it is counted as a
// retry and the cut now due is the retry — at a trigger or at end of
// input, one synchronous writeSnapshotFile — and more than
// checkpointRetryAttempts in a row fail the run; any other error fails
// it at the join, with path still the last committed cut.
type cutter struct {
	path string
	sets []*accumSet
	reg  *obs.Registry
	// send queues msg for worker i behind the records dispatched so far.
	send func(i int, msg workerMsg)

	// acks[i] is worker i's, buffered so that a worker never waits on
	// it; frames[i], once acked[i], holds worker i's encoded set for the
	// cut being taken (none for worker 0, whose set the dispatcher
	// streams).
	acks   []chan struct{}
	acked  []bool
	frames []setFrames

	// commit delivers the result of the commit in flight; nil when there
	// is none. failed counts commits that failed transiently in a row.
	commit chan commitResult
	failed int

	profile CheckpointProfile
}

// commitResult is how a background Temp.Commit ended: the bytes it made
// durable and how long the write took, temp file created to renamed.
type commitResult struct {
	n    int64
	took time.Duration
	err  error
}

func newCutter(path string, sets []*accumSet, reg *obs.Registry, send func(int, workerMsg)) *cutter {
	c := &cutter{
		path: path, sets: sets, reg: reg, send: send,
		acks:   make([]chan struct{}, len(sets)),
		acked:  make([]bool, len(sets)),
		frames: make([]setFrames, len(sets)),
	}
	for i := range c.acks {
		c.acks[i] = make(chan struct{}, 1)
	}
	return c
}

// barrier asks every worker to flush its set and ack, and — encode —
// every worker past the first to encode its set before it does.
func (c *cutter) barrier(encode bool) {
	for i := range c.sets {
		msg := workerMsg{ack: c.acks[i]}
		if encode && i > 0 {
			msg.encode = &c.frames[i]
		}
		c.send(i, msg)
	}
}

// encoded returns the frames worker i encoded for the cut being taken,
// waiting for them the first time; nil for set 0.
func (c *cutter) encoded(i int) (*snapshot.Frames, error) {
	if i == 0 {
		return nil, nil
	}
	if !c.acked[i] {
		<-c.acks[i]
		c.acked[i] = true
	}
	return c.frames[i].fb, c.frames[i].err
}

// periodic takes one cut at hdr's watermark and returns once its temp
// file is written; the commit is left running.
func (c *cutter) periodic(hdr SnapshotHeader) error {
	t0 := time.Now()
	c.barrier(true)
	if _, err := c.join(); err != nil {
		return err
	}
	<-c.acks[0]
	created := time.Now()
	var tmp *snapshot.Temp
	err := retryTransient(c.reg, func() (err error) {
		tmp, err = snapshot.WriteTemp(c.path, func(w io.Writer) error {
			return writeSnapshotCut(w, hdr, c.sets, c.encoded)
		})
		return err
	})
	if err != nil {
		return err
	}
	clear(c.acked)
	clear(c.frames)
	commit := make(chan commitResult, 1)
	go func() {
		n, err := tmp.Commit()
		commit <- commitResult{n: n, took: time.Since(created), err: err}
	}()
	c.commit = commit
	c.stalled(t0)
	return nil
}

// final takes the cut a trigger stop leaves behind: committed when it
// returns.
func (c *cutter) final(hdr SnapshotHeader) error {
	t0 := time.Now()
	c.barrier(false)
	for _, ack := range c.acks {
		<-ack
	}
	if _, err := c.join(); err != nil {
		return err
	}
	if err := c.writeNow(hdr); err != nil {
		return err
	}
	c.stalled(t0)
	return nil
}

// finish joins the last commit once the workers have stopped. If it
// failed transiently and the run itself is sound, the state at end of
// input is written in its place.
func (c *cutter) finish(hdr SnapshotHeader, sound bool) error {
	retry, err := c.join()
	if err != nil || !retry || !sound {
		return err
	}
	return c.writeNow(hdr)
}

// writeNow is one synchronous durable write of the quiescent sets.
func (c *cutter) writeNow(hdr SnapshotHeader) error {
	n, err := writeSnapshotFile(c.path, hdr, c.sets, c.reg)
	c.profile.Bytes += n
	return err
}

// join waits for the commit in flight, if there is one, and accounts
// for it. retry reports a transient failure within the budget: the
// caller's next durable write makes up for it.
func (c *cutter) join() (retry bool, err error) {
	if c.commit == nil {
		return false, nil
	}
	res := <-c.commit
	c.commit = nil
	switch {
	case res.err == nil:
		c.failed = 0
		c.profile.Bytes += res.n
		observeCheckpointWrite(c.reg, res.n, res.took)
		return false, nil
	case cdr.IsTransient(res.err) && c.failed < checkpointRetryAttempts:
		c.failed++
		countCheckpointRetry(c.reg)
		return true, nil
	}
	return false, res.err
}

// stalled records what one cut cost ingest: from the barrier going out
// at t0 to dispatch resuming now.
func (c *cutter) stalled(t0 time.Time) {
	d := time.Since(t0)
	c.profile.Cuts++
	c.profile.StallSeconds += d.Seconds()
	if c.reg != nil {
		c.reg.Timing("cellcars_checkpoint_stall_seconds").Observe(d)
	}
}

// ---------------------------------------------------------------------------
// Snapshot reading

// readSnapshotSets parses a snapshot stream and restores its worker
// sets. The config callback sees the decoded header and returns the
// context and options to build accumulators under — derived from the
// header itself (merge path) or validated against a live run's own
// configuration (resume path).
func readSnapshotSets(r io.Reader, config func(SnapshotHeader) (Context, EngineOptions, error)) (SnapshotHeader, []*accumSet, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return SnapshotHeader{}, nil, err
	}
	name, payload, err := sr.NextFrame()
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = badSnapf("snapshot has no header frame")
		}
		return SnapshotHeader{}, nil, err
	}
	if name != "header" {
		return SnapshotHeader{}, nil, badSnapf("first frame is %q, not the header", name)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return SnapshotHeader{}, nil, err
	}
	ctx, opts, err := config(hdr)
	if err != nil {
		return hdr, nil, err
	}

	// Restore demands a state frame or a recorded failure for exactly
	// the stages the snapshot's configuration enables and that keep
	// state; the derived ones are built over the restored presence.
	expected := func(i int) bool { return stageTable[i].enabled(hdr.HasLoad, len(hdr.BusyCells)) }
	var sets []*accumSet
	var cur *accumSet
	finishWorker := func() error {
		if cur == nil {
			return nil
		}
		for i, st := range stageTable {
			switch {
			case !expected(i) || cur.stages[i] != nil || cur.hasError(st.name):
			case st.over != nil:
				cur.build(i, ctx, opts)
			default:
				return badSnapf("worker %d missing stage %s", len(sets)-1, st.name)
			}
		}
		cur.met.creditRestored(cur)
		return nil
	}
	for {
		name, payload, err := sr.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return hdr, nil, err
		}
		switch {
		case name == "worker":
			if err := finishWorker(); err != nil {
				return hdr, nil, err
			}
			d := snapshot.NewDecoderBytes(payload)
			idx := d.Len(maxHeaderWorkers)
			if d.Err() == nil && idx != len(sets) {
				return hdr, nil, badSnapf("worker frame %d out of order (want %d)", idx, len(sets))
			}
			// A resumed observed run keeps instrumenting; the restored
			// counts are credited into the shared series once the
			// worker's stage frames are in (see finishWorker).
			cur = emptyAccumSet(ctx, opts, idx)
			cur.raw = d.Varint()
			cur.ghosts = d.Varint()
			cur.outOfPeriod = d.Varint()
			cur.accepted = d.Varint()
			nerrs := d.Len(len(stageTable))
			for i := 0; i < nerrs && d.Err() == nil; i++ {
				se := StageError{Stage: d.String(), Err: d.String()}
				if stageIndex(se.Stage) < 0 {
					d.Failf("unknown failed stage %q", se.Stage)
					break
				}
				if cur.hasError(se.Stage) {
					d.Failf("duplicate failed stage %q", se.Stage)
					break
				}
				cur.errs = append(cur.errs, se)
			}
			if d.Err() != nil {
				return hdr, nil, d.Err()
			}
			if cur.ghosts < 0 || cur.outOfPeriod < 0 || cur.accepted < 0 ||
				cur.ghosts+cur.outOfPeriod+cur.accepted != cur.raw {
				return hdr, nil, badSnapf("worker %d counters inconsistent (raw=%d ghosts=%d oop=%d accepted=%d)",
					idx, cur.raw, cur.ghosts, cur.outOfPeriod, cur.accepted)
			}
			sets = append(sets, cur)
		case strings.HasPrefix(name, "stage:"):
			stage := strings.TrimPrefix(name, "stage:")
			if cur == nil {
				return hdr, nil, badSnapf("stage frame %q before any worker frame", stage)
			}
			i := stageIndex(stage)
			if i < 0 || !expected(i) {
				return hdr, nil, badSnapf("stage %q not enabled by the snapshot's configuration", stage)
			}
			if stageTable[i].over != nil {
				return hdr, nil, badSnapf("stage %q keeps no state of its own", stage)
			}
			if cur.stages[i] != nil {
				return hdr, nil, badSnapf("duplicate stage frame %q", stage)
			}
			if cur.hasError(stage) {
				return hdr, nil, badSnapf("stage %q has both a failure record and a state frame", stage)
			}
			// The set's first cut sizes its buffer from what was read, as
			// every later one does from the cut before (see encodeSet).
			frame := len(name) + len(payload) + frameOverhead
			cur.frameHint = max(cur.frameHint, frame)
			cur.framesHint += frame
			acc := stageTable[i].build(ctx, opts, &cur.cars)
			if err := acc.RestoreFrom(bytes.NewBuffer(payload)); err != nil {
				return hdr, nil, fmt.Errorf("analysis: restore stage %s: %w", stage, err)
			}
			cur.stages[i] = acc
		default:
			return hdr, nil, badSnapf("unknown frame %q", name)
		}
	}
	if err := finishWorker(); err != nil {
		return hdr, nil, err
	}
	if len(sets) != hdr.Workers {
		return hdr, nil, badSnapf("snapshot holds %d worker sets, header says %d", len(sets), hdr.Workers)
	}
	var raw int64
	for _, s := range sets {
		raw += s.raw
	}
	if raw != hdr.Watermark {
		return hdr, nil, badSnapf("worker raw counts sum to %d, watermark is %d", raw, hdr.Watermark)
	}
	return hdr, sets, nil
}

func badSnapf(format string, args ...any) error {
	return fmt.Errorf("analysis: "+format+": %w", append(args, snapshot.ErrBadSnapshot)...)
}

// restoreSets is the resume routine: it restores the worker sets of a
// snapshot a run under (ctx, opts) wrote, refusing one from a different
// study configuration or worker count — records are sharded by worker
// count, so the sets of another count cannot continue this run. A zero
// opts.Workers (an auto engine) names no count and takes the snapshot's.
func restoreSets(r io.Reader, ctx Context, opts EngineOptions) (SnapshotHeader, []*accumSet, error) {
	want := headerFor(ctx, opts, 0)
	return readSnapshotSets(r, func(h SnapshotHeader) (Context, EngineOptions, error) {
		if err := want.SameStudy(h); err != nil {
			return Context{}, EngineOptions{}, err
		}
		if opts.Workers != 0 && h.Workers != opts.Workers {
			return Context{}, EngineOptions{}, fmt.Errorf("analysis: checkpoint has %d workers, run has %d (resume with -workers %d, or with none to take the checkpoint's)",
				h.Workers, opts.Workers, h.Workers)
		}
		return ctx, opts, nil
	})
}

// ---------------------------------------------------------------------------
// Partials: the map-reduce workflow

// Partial is the restored partial state of an analysis run — the unit
// carmerge works on. Partials produced under the same study
// configuration over car-disjoint record shards merge into exactly the
// state a single process would have accumulated over the union.
type Partial struct {
	Header SnapshotHeader

	ctx  Context
	opts EngineOptions
	set  *accumSet
}

// ReadPartial restores a partial from a snapshot stream, folding the
// stored worker sets into one. No load source is needed: merging and
// finalizing never re-observe records.
func ReadPartial(r io.Reader) (*Partial, error) {
	var pctx Context
	var popts EngineOptions
	hdr, sets, err := readSnapshotSets(r, func(h SnapshotHeader) (Context, EngineOptions, error) {
		pctx = Context{Period: h.Period(), TZOffsetSeconds: h.TZOffsetSeconds}
		popts = EngineOptions{
			RunOptions: RunOptions{RareDays: h.RareDays, BusyCells: h.BusyCells, Seed: h.Seed}.withDefaults(),
			Workers:    h.Workers,
		}
		return pctx, popts, nil
	})
	if err != nil {
		return nil, err
	}
	root := sets[0]
	root.mergeAll(sets[1:], false)
	hdr.Workers = 1
	return &Partial{Header: hdr, ctx: pctx, opts: popts, set: root}, nil
}

// ReadPartialFile restores a partial from a snapshot file.
func ReadPartialFile(path string) (*Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ReadPartial(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Records returns the raw record count the partial has absorbed.
func (p *Partial) Records() int64 { return p.set.raw }

// SharedCars counts cars present in both partials, read off their sets'
// car tables: every stage that keeps cars numbers them there, so the
// count holds whichever stage failed.
func (p *Partial) SharedCars(o *Partial) (n int) {
	a, b := &p.set.cars, &o.set.cars
	if len(b.ids) < len(a.ids) {
		a, b = b, a
	}
	for _, car := range a.ids {
		if _, hit := b.idx[car]; hit {
			n++
		}
	}
	return n
}

// Merge folds another partial into p. It refuses partials from a
// different study configuration, and — unless allowOverlap — partials
// whose car sets intersect, since the mergeable-accumulator contract
// requires car-disjoint shards for exact results. o is left as it was.
func (p *Partial) Merge(o *Partial, allowOverlap bool) error {
	if err := p.Header.SameStudy(o.Header); err != nil {
		return err
	}
	if !allowOverlap {
		if n := p.SharedCars(o); n > 0 {
			return fmt.Errorf("analysis: partials share %d cars; shard inputs by car, or force with allow-overlap", n)
		}
	}
	p.set.merge(o.set, false)
	p.Header.Watermark += o.Header.Watermark
	return nil
}

// Finalize computes the merged report. Like every accumulator
// finalize, it is repeatable.
func (p *Partial) Finalize() *Report { return p.set.finalize() }

// SnapshotTo re-serializes the (possibly merged) partial.
func (p *Partial) SnapshotTo(w io.Writer) error {
	return writeSnapshotStream(w, p.Header, []*accumSet{p.set})
}

// WriteSnapshot writes the partial to a file atomically.
func (p *Partial) WriteSnapshot(path string) error {
	_, err := writeSnapshotFile(path, p.Header, []*accumSet{p.set}, p.opts.Obs)
	return err
}

// ---------------------------------------------------------------------------
// Streaming snapshots

// Watermark returns the raw record count consumed so far — the number
// of records a resumed run must skip on the re-opened stream.
func (s *Streaming) Watermark() int64 { return s.set.raw }

func (s *Streaming) header() SnapshotHeader {
	return headerFor(s.ctx, s.opts, s.set.raw)
}

// SnapshotTo serializes the accumulator's full partial state,
// producing a stream readable by both RestoreStreaming and ReadPartial.
func (s *Streaming) SnapshotTo(w io.Writer) error {
	return writeSnapshotStream(w, s.header(), []*accumSet{s.set})
}

// WriteSnapshot writes the state to a file atomically.
func (s *Streaming) WriteSnapshot(path string) error {
	_, err := writeSnapshotFile(path, s.header(), []*accumSet{s.set}, s.opts.Obs)
	return err
}

// RestoreStreaming restores a streaming accumulator from a snapshot
// stream written under the same context and options. The caller must
// advance its input past the restored Watermark (cdr.Skip) before
// feeding more records.
func RestoreStreaming(ctx Context, opts RunOptions, r io.Reader) (*Streaming, error) {
	s := NewStreamingWithOptions(ctx, opts)
	_, sets, err := restoreSets(r, s.ctx, s.opts)
	if err != nil {
		return nil, err
	}
	s.set = sets[0]
	return s, nil
}
