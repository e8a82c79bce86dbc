package analysis

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
)

// This file is the accumulator engine. Records reach an accumSet — one
// worker's full set of stage accumulators — in exactly two ways:
//
//   - pushed into one set: Streaming.Add / AddAll (stream.go). The
//     query service's hourly buckets and the cardrive shard workers
//     each own a single set and feed it themselves, no goroutines.
//   - pulled into N ≥ 1 sets: Engine.RunReaderCheckpointed below, the
//     one dispatcher. It reads a cdr.Reader, shards records by car
//     hash across worker goroutines and, when asked, cuts consistent
//     checkpoints through an ack barrier. Run and RunReader are that
//     same loop over a slice reader and with a zero CheckpointConfig;
//     there is no separate in-memory or single-worker path.
//
// Both end in the same merge (car-disjoint union, in shard order, the
// stages side by side) and the same finalize, and every per-stage walk
// — build, restore, snapshot, merge, finalize, metrics — goes over
// stageTable.

// Engine executes the full §4 analysis pipeline over a CDR source by
// sharding the stream by car hash across workers, running one complete
// accumulator set per shard, and merging the partials into a Report.
// Because shards are car-disjoint and every accumulator merges by
// union, the report is bit-identical for any worker count.
//
// Record handling policy, shared by Streaming and every Engine run
// (Run, RunReader, RunReaderCheckpointed): exactly-one-hour ghosts are
// dropped (§3), and records starting outside the study period are
// excluded from every analysis and counted in Report.OutOfPeriod —
// admitDay is the one rule. Every number the report publishes comes
// from an accumSet behind it; no stage is reached another way.
type Engine struct {
	ctx  Context
	opts EngineOptions
}

// EngineOptions configures an Engine run.
type EngineOptions struct {
	RunOptions
	// Workers is the shard/goroutine count. Zero (or less) is auto: one
	// per CPU the process may use, at most maxAutoWorkers, and on resume
	// whatever count the checkpoint was cut with.
	Workers int
}

// maxAutoWorkers caps the automatic worker count. One dispatcher feeds
// every worker: decode, the resilient checks and the car hash cost it
// ≈ 100 ns a record, a worker's Add ≈ 650 ns (BenchmarkEngineRun), so
// past 650 ÷ 100 ≈ 6–8 workers the dispatcher is the critical path and
// another worker only waits on its queue. An explicit count may exceed
// the cap.
const maxAutoWorkers = 8

// autoWorkers is the worker count of a fresh run that did not name one.
func autoWorkers() int {
	return min(runtime.GOMAXPROCS(0), maxAutoWorkers)
}

// NewEngine returns an engine over the context. Zero-value options
// take RunOptions' defaults; Workers below 1 means auto (see
// EngineOptions).
func NewEngine(ctx Context, opts EngineOptions) *Engine {
	opts.RunOptions = opts.RunOptions.withDefaults()
	opts.Workers = max(opts.Workers, 0)
	return &Engine{ctx: ctx, opts: opts}
}

// Run analyzes an in-memory record slice. The input is not modified.
func (e *Engine) Run(records []cdr.Record) (*Report, error) {
	return e.RunReader(cdr.NewSliceReader(records))
}

// RunReader analyzes a streaming source without materializing it. A
// source read error aborts the run.
func (e *Engine) RunReader(r cdr.Reader) (*Report, error) {
	return e.RunReaderCheckpointed(r, CheckpointConfig{})
}

// workerMsg is one dispatch to an engine worker: a record batch, or a
// barrier carrying an ack channel. At a barrier the worker flushes its
// set — and, asked to, encodes it — before it acks, and after acking
// does not touch the set until the next message arrives, which is what
// lets the dispatcher snapshot all sets race-free.
type workerMsg struct {
	batch []cdr.Record
	ack   chan<- struct{}
	// encode, on a barrier, has the worker encode its set's frames
	// before it acks.
	encode *setFrames
}

// setFrames is where a worker leaves its set, encoded, at a barrier.
type setFrames struct {
	fb  *snapshot.Frames
	err error
}

// engineDispatchBatch is a dispatcher read's size and its per-shard
// batch size; batching amortizes reads and channel synchronization.
// engineWorkerQueue is how many batches may wait on one worker.
const (
	engineDispatchBatch = 512
	engineWorkerQueue   = 4
)

// RunReaderCheckpointed is the engine's ingest loop: the dispatcher
// reads the stream and shards records by car across the workers. With
// a cfg.Path it also checkpoints: every cfg.Every records it runs an
// ack barrier so every worker's set is quiescent, then writes all
// partial state atomically to cfg.Path (see cutter: a cut is durable
// before the next one starts and before the call returns). On
// cfg.Trigger it writes a final checkpoint and returns
// ErrCheckpointStop. With cfg.Resume it restores from cfg.Path (same
// configuration and worker count required) and skips the watermark's
// worth of records; a resumed run's final report is bit-identical with
// an uninterrupted one.
func (e *Engine) RunReaderCheckpointed(r cdr.Reader, cfg CheckpointConfig) (*Report, error) {
	sets, read, err := e.startSets(r, cfg)
	if err != nil {
		return nil, err
	}
	// The run's worker count is the sets it starts with: the one asked
	// for, the machine's, or the one a resumed checkpoint was cut with.
	n := len(sets)
	opts := e.opts
	opts.Workers = n

	chans := make([]chan workerMsg, n)
	// Consumed batches come back to the dispatcher here rather than going
	// to the garbage collector, 28 KB every 512 records. Sized to every
	// batch that can exist at once — per worker the four queued, the one
	// being read and the one being filled — so a worker's return never
	// blocks; the dispatcher allocates only while the channel is empty,
	// which is what keeps the population at that bound.
	recycled := make(chan []cdr.Record, n*(engineWorkerQueue+2))
	var wg sync.WaitGroup
	for i := range chans {
		// A few batches of slack: the reader runs ahead of a briefly
		// slow worker without buffering the stream.
		chans[i] = make(chan workerMsg, engineWorkerQueue)
		wg.Add(1)
		go func(i int, set *accumSet, ch <-chan workerMsg) {
			defer wg.Done()
			for msg := range ch {
				set.addBatch(msg.batch)
				if msg.batch != nil {
					// addBatch copied every record out: nothing here
					// reads the batch again.
					recycled <- msg.batch[:0]
				}
				if msg.ack != nil {
					set.flush()
					if enc := msg.encode; enc != nil {
						enc.fb = new(snapshot.Frames)
						enc.err = encodeSet(enc.fb, i, set, nil)
					}
					msg.ack <- struct{}{}
				}
			}
		}(i, sets[i], chans[i])
	}

	newBatch := func() []cdr.Record {
		select {
		case b := <-recycled:
			return b
		default:
			return make([]cdr.Record, 0, engineDispatchBatch)
		}
	}
	bufs := make([][]cdr.Record, n)
	for i := range bufs {
		bufs[i] = newBatch()
	}
	flushShard := func(i int) {
		if len(bufs[i]) == 0 {
			return
		}
		chans[i] <- workerMsg{batch: bufs[i]}
		// The worker owns the sent batch until it hands it back; the
		// next starts empty at full capacity so appends never regrow it.
		bufs[i] = newBatch()
	}
	cut := newCutter(cfg.Path, sets, opts.Obs, func(i int, msg workerMsg) {
		flushShard(i)
		chans[i] <- msg
	})
	// Each read is clipped to end where the next periodic cut is due, so
	// cuts fall on the record counts they would a record at a time.
	periodic := cfg.Every > 0 && cfg.Path != ""
	scratch := make([]cdr.Record, engineDispatchBatch)
	dispatch := func() error {
		for {
			if cfg.Trigger != nil {
				select {
				case <-cfg.Trigger:
					if cfg.Path != "" {
						if err := cut.final(headerFor(e.ctx, opts, read)); err != nil {
							return err
						}
					}
					return ErrCheckpointStop
				default:
				}
			}
			want := scratch
			if periodic {
				want = scratch[:min(int64(len(scratch)), cfg.Every-read%cfg.Every)]
			}
			k, err := cdr.ReadBatch(r, want)
			for _, rec := range want[:k] {
				shard := cdr.ShardOfCar(rec.Car, n)
				bufs[shard] = append(bufs[shard], rec)
				if len(bufs[shard]) >= engineDispatchBatch {
					flushShard(shard)
				}
			}
			read += int64(k)
			if periodic && k > 0 && read%cfg.Every == 0 {
				if err := cut.periodic(headerFor(e.ctx, opts, read)); err != nil {
					return err
				}
			}
			if errors.Is(err, io.EOF) {
				for i := range bufs {
					flushShard(i)
				}
				return nil
			}
			if err != nil {
				return err
			}
		}
	}

	err = dispatch()
	for i := range chans {
		close(chans[i])
	}
	wg.Wait()
	// The last periodic cut may still be committing: no goroutine
	// outlives the run, and a commit that failed fails it.
	if jerr := cut.join(); err == nil {
		err = jerr
	}
	if err != nil {
		return nil, err
	}
	// Fold worker partials in shard order, for determinism.
	root := sets[0]
	root.mergeAll(sets[1:], false)
	rep := root.finalize()
	if root.met != nil {
		rep.ProfileWorkers = n
		rep.ProfileCheckpoints = cut.profile
	}
	return rep, nil
}

// startSets returns the accumulator sets a run begins with — one per
// worker — and the number of raw records they have already consumed:
// restored from cfg.Path, with r advanced past the watermark, when
// cfg.Resume finds a checkpoint there; fresh otherwise. Records are
// sharded by ShardOfCar(car, workers), so restored sets continue only
// under the count they were cut with: an auto engine takes it from the
// checkpoint's header, whatever the machine, and an explicit count that
// differs is refused (restoreSets).
func (e *Engine) startSets(r cdr.Reader, cfg CheckpointConfig) ([]*accumSet, int64, error) {
	if cfg.Resume {
		if cfg.Path == "" {
			return nil, 0, errors.New("analysis: CheckpointConfig.Resume needs a Path to resume from")
		}
		f, err := os.Open(cfg.Path)
		switch {
		case err == nil:
			defer f.Close()
			hdr, sets, err := restoreSets(f, e.ctx, e.opts)
			if err != nil {
				return nil, 0, fmt.Errorf("resume %s: %w", cfg.Path, err)
			}
			if err := cdr.Skip(r, hdr.Watermark); err != nil {
				return nil, 0, err
			}
			return sets, hdr.Watermark, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, 0, err
		}
		// No checkpoint yet: a fresh run, so a crash-restart loop needs
		// no first-run special case.
	}
	workers := e.opts.Workers
	if workers == 0 {
		workers = autoWorkers()
	}
	sets := make([]*accumSet, workers)
	for i := range sets {
		sets[i] = newAccumSet(e.ctx, e.opts, i)
	}
	return sets, 0, nil
}

// stageSpec is one row of the stage table.
type stageSpec struct {
	name string
	// enabled reports whether a study configuration runs the stage:
	// the load-dependent stages need a load source, clustering also at
	// least two busy cells. It takes the two facts rather than a
	// Context so that restore can ask it of a snapshot header.
	enabled func(hasLoad bool, busyCells int) bool
	// build returns the stage's empty accumulator. It never touches
	// ctx.Load: restore followed by Merge/Finalize never calls Add,
	// the only path that reads the load source — which is what lets
	// carmerge finalize partials without re-opening load data.
	build func(ctx Context, opts EngineOptions, cars *carTable) Accumulator
	// over, in place of build, makes a stage that keeps no state of its
	// own: a finalizer over its set's presence accumulator (derived).
	over func(p *presenceAcc, opts EngineOptions) Accumulator
}

func always(bool, int) bool                   { return true }
func needsLoad(hasLoad bool, _ int) bool      { return hasLoad }
func needsBusyCells(hasLoad bool, n int) bool { return hasLoad && n >= 2 }

// stageTable is the canonical stage sequence. Accumulator sets are
// built and restored from it, snapshots frame stages in its order,
// merge, finalize and the metrics walk it, and FailStage names its
// rows. Every stage of a set is built over the set's car table, and
// every derived stage over the set's presence, which comes first.
var stageTable = []stageSpec{
	{"presence", always, func(c Context, _ EngineOptions, cars *carTable) Accumulator { return newPresenceAcc(c, cars) }, nil},
	{"connected", always, func(c Context, _ EngineOptions, cars *carTable) Accumulator { return newConnectedAcc(c.Period, cars) }, nil},
	{"days", always, nil, func(p *presenceAcc, _ EngineOptions) Accumulator { return daysStage{derived{p}} }},
	{"segments", needsLoad, nil, func(p *presenceAcc, o EngineOptions) Accumulator { return segmentsStage{derived{p}, o.RareDays} }},
	{"busy", needsLoad, nil, func(p *presenceAcc, _ EngineOptions) Accumulator { return busyStage{derived{p}} }},
	{"durations", always, func(Context, EngineOptions, *carTable) Accumulator { return newDurationsAcc() }, nil},
	{"handovers", always, func(_ Context, o EngineOptions, cars *carTable) Accumulator {
		h := newHandoverAcc(cars)
		h.setTrackHeads(o.TrackHeads)
		return h
	}, nil},
	{"carriers", always, func(_ Context, _ EngineOptions, cars *carTable) Accumulator { return newCarriersAcc(cars) }, nil},
	{"usage", always, func(c Context, o EngineOptions, cars *carTable) Accumulator {
		u := newUsageAcc(c.TZOffsetSeconds, cars)
		u.setTrackHeads(o.TrackHeads)
		return u
	}, nil},
	{"clusters", needsBusyCells, func(c Context, o EngineOptions, _ *carTable) Accumulator {
		return newClustersAcc(c, o.BusyCells, o.Seed)
	}, nil},
}

// stageIndex returns a stage's row in stageTable, or -1.
func stageIndex(name string) int {
	for i := range stageTable {
		if stageTable[i].name == name {
			return i
		}
	}
	return -1
}

// accumSet is one worker's full set of stage accumulators plus the
// shared ingest counters. Stage isolation from the batch pipeline is
// preserved: a stage that panics while absorbing records is dropped
// from the set and recorded as a StageError; the other stages keep
// running.
type accumSet struct {
	period simtime.Period

	raw         int64
	ghosts      int64
	outOfPeriod int64
	accepted    int64

	// cars numbers every car whose records the set accepted: the one
	// lookup a record costs the set, shared by every stage.
	cars carTable

	// stages holds the live accumulators in stageTable positions; a
	// failed or disabled stage is nil.
	stages []Accumulator
	errs   []StageError

	// batch holds the admitted records the stages have not seen yet; it
	// grows to accumBatchSize and is reused from then on. A set restored
	// only to be merged or validated never allocates one.
	batch batch

	// frameHint is the longest frame the set has written to a snapshot,
	// framesHint the most all its frames came to together: what its next
	// cut's buffer starts at, by whether that holds one frame at a time or
	// the whole set (encodeSet).
	frameHint, framesHint int

	// met is the observability hook (nil when no registry was
	// configured): per-stage wall time and record counts, ingest
	// outcome counters, shard balance.
	met *setMetrics
}

// accumBatchSize bounds how many records one isolated stage Add call
// covers; one recover per (stage, batch) amortizes the defer cost.
const accumBatchSize = 1024

// emptyAccumSet returns a set with no live stages, for newAccumSet and
// snapshot restore to fill. worker indexes the set for the
// shard-balance metric when opts.Obs is configured.
func emptyAccumSet(ctx Context, opts EngineOptions, worker int) *accumSet {
	return &accumSet{
		period: ctx.Period,
		stages: make([]Accumulator, len(stageTable)),
		met:    newSetMetrics(opts.Obs, worker),
	}
}

// newAccumSet builds the accumulators a context supports. Load-less
// contexts skip the load-dependent stages; FailStage marks its stage
// failed up front.
func newAccumSet(ctx Context, opts EngineOptions, worker int) *accumSet {
	s := emptyAccumSet(ctx, opts, worker)
	for i, st := range stageTable {
		switch {
		case !st.enabled(ctx.Load != nil, len(opts.BusyCells)):
		case st.name == opts.FailStage:
			s.errs = append(s.errs, StageError{Stage: st.name, Err: "injected failure (FailStage)"})
		default:
			s.build(i, ctx, opts)
		}
	}
	return s
}

// build builds stage i of the set: an accumulator of its own, or a
// derived stage over the set's presence — failed instead, naming it, when
// presence has failed.
func (s *accumSet) build(i int, ctx Context, opts EngineOptions) {
	st := stageTable[i]
	switch p, ok := s.stages[0].(*presenceAcc); {
	case st.over == nil:
		s.stages[i] = st.build(ctx, opts, &s.cars)
	case ok:
		s.stages[i] = st.over(p, opts)
	default:
		s.errs = append(s.errs, StageError{Stage: st.name, Err: "input stage presence failed"})
	}
}

// fail drops live stage i, recording err, and with it every stage
// derived from it: a finalizer over half-kept facts is never run.
func (s *accumSet) fail(i int, err string) {
	in := s.stages[i]
	for j, st := range stageTable {
		d, ok := s.stages[j].(interface{ input() Accumulator })
		if j != i && (!ok || d.input() != in) {
			continue
		}
		s.stages[j] = nil
		s.errs = append(s.errs, StageError{Stage: st.name, Err: err})
		err = "input stage " + stageTable[i].name + " failed"
	}
}

// Admits reports whether a study over period analyzes r: §3 drops the
// one-hour ghosts, and a record starting outside the period is counted
// but observed by no stage. It is the one admission rule, of the engine
// and of whatever draws figures from the records themselves.
func Admits(period simtime.Period, r cdr.Record) bool {
	day, ghost := admitDay(period, r)
	return !ghost && day >= 0
}

// admitDay is Admits' rule with what it computed: whether r is a ghost,
// and else its study day, -1 for a start outside period.
func admitDay(period simtime.Period, r cdr.Record) (day int, ghost bool) {
	if r.Duration == clean.GhostDuration {
		return -1, true
	}
	return period.DayIndex(r.Start), false
}

// add is the set's one admission step, of Streaming.Add and addBatch
// alike: it buffers a raw record admitDay admits with its car number,
// study day and Unix-ns start, and flushes full batches into the stages.
func (s *accumSet) add(r cdr.Record) {
	s.raw++
	// Metrics sync happens at flush; this extra beat covers streams
	// dominated by filtered records, which never fill a batch, so the
	// live counters still advance.
	if s.met != nil && s.raw&1023 == 0 {
		s.met.sync(s)
	}
	day, ghost := admitDay(s.period, r)
	switch {
	case ghost:
		s.ghosts++
		return
	case day < 0:
		s.outOfPeriod++
		return
	}
	s.accepted++
	s.batch.push(r, s.cars.intern(r.Car), day)
	if len(s.batch.recs) >= accumBatchSize {
		s.flush()
	}
}

// addBatch adds raw records in order, each as add does.
func (s *accumSet) addBatch(recs []cdr.Record) {
	for _, r := range recs {
		s.add(r)
	}
}

// flush feeds the buffered batch to each live stage that keeps state,
// isolating each: one that panics is dropped and recorded, the rest go on.
// With metrics on, each stage's batch cost lands in its add timing —
// two clock reads per (stage, batch), amortized over accumBatchSize
// records.
func (s *accumSet) flush() {
	if len(s.batch.recs) == 0 {
		if s.met != nil {
			s.met.sync(s)
		}
		return
	}
	for i, acc := range s.stages {
		if acc == nil || stageTable[i].over != nil {
			continue // a derived stage reads its input's facts, not records
		}
		var t0 time.Time
		if s.met != nil {
			t0 = time.Now()
		}
		err := feedStage(acc, &s.batch)
		if s.met != nil {
			s.met.stageAdd[i].Observe(time.Since(t0))
			s.met.stageRecs[i].Add(int64(len(s.batch.recs)))
		}
		if err != nil {
			s.fail(i, err.Error())
		}
	}
	s.batch.reset()
	if s.met != nil {
		s.met.sync(s)
	}
}

// feedStage adds one batch to one accumulator, converting a panic into
// an error.
func feedStage(acc Accumulator, b *batch) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	acc.Add(b)
	return nil
}

// merge folds another set's partials into s: the one-operand case of
// mergeAll.
func (s *accumSet) merge(o *accumSet, ordered bool) {
	s.mergeAll([]*accumSet{o}, ordered)
}

// mergeAll folds other sets' partials into s, in list order. A stage
// failed in s or in any operand is failed in the result (first error
// wins). Plain folds assume car-disjoint sets; an ordered fold takes
// each operand as the time-adjacent later slice of the same cars and
// lets the session stages stitch the boundary (see ordered.go) — every
// other stage is order-insensitive and merges the same way in both.
//
// The fold is stage-major. Every operand is flushed, counted and has
// its cars numbered into s first, in list order: the only writes to s's
// car table. Each live stage then folds every operand in order, the
// stages pulled off a counter by min(GOMAXPROCS, stages) goroutines
// (inline at one). Stages share nothing but the car table, which they
// only read, and no merge writes its operand, so each stage ends as an
// operand-by-operand fold would leave it. A stage merge that panics
// does so on the caller, after the join.
func (s *accumSet) mergeAll(ops []*accumSet, ordered bool) {
	// Both sides flush: operands so their partial state is complete, s
	// so its unsynced tail reaches the metrics before rebase below
	// swallows the delta (the dispatcher does not flush worker sets at
	// end of stream).
	s.flush()
	remaps := make([][]int32, len(ops))
	for j, o := range ops {
		o.flush()
		s.raw += o.raw
		s.ghosts += o.ghosts
		s.outOfPeriod += o.outOfPeriod
		s.accepted += o.accepted
		for _, e := range o.errs {
			if !s.hasError(e.Stage) {
				s.errs = append(s.errs, e)
			}
		}
		// o's cars are numbered into s once, for every stage.
		remaps[j] = s.cars.remap(&o.cars)
	}
	// The session stages go first: stitching and cloning sessions makes
	// theirs the longest folds, and the join waits for the longest.
	var live, rest []int
	for i, acc := range s.stages {
		switch _, session := acc.(orderedMerger); {
		case s.hasError(stageTable[i].name):
			// An operand whose presence failed failed its derived stages
			// too, so they are dropped here with it.
			s.stages[i] = nil
		case session:
			live = append(live, i)
		case acc != nil && stageTable[i].over == nil:
			rest = append(rest, i)
		}
	}
	live = append(live, rest...)
	fold := func(i int) {
		var t0 time.Time
		if s.met != nil {
			t0 = time.Now()
		}
		acc := s.stages[i]
		om, _ := acc.(orderedMerger)
		for j, o := range ops {
			switch {
			case o.stages[i] == nil:
				// Stage disabled by context on this side.
			case ordered && om != nil:
				om.MergeOrdered(o.stages[i], remaps[j])
			default:
				acc.Merge(o.stages[i], remaps[j])
			}
		}
		if s.met != nil {
			s.met.stageMerge[i].Observe(time.Since(t0))
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(live)))
	if workers == 1 {
		for _, i := range live {
			fold(i)
		}
	} else {
		panics := make([]any, len(live))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < int64(len(live)); k = next.Add(1) - 1 {
					func() {
						defer func() { panics[k] = recover() }()
						fold(live[k])
					}()
				}
			}()
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	// The operands' records were already counted by their own metrics;
	// realign the watermarks so the folded-in values are not re-emitted.
	if s.met != nil {
		s.met.rebase(s)
	}
}

func (s *accumSet) hasError(stage string) bool {
	for i := range s.errs {
		if s.errs[i].Stage == stage {
			return true
		}
	}
	return false
}

// finalize produces the report, isolating each stage's Finalize like
// its Adds.
func (s *accumSet) finalize() *Report {
	s.flush()
	rep := &Report{
		RawRecords:   int(s.raw),
		CleanRecords: int(s.raw - s.ghosts),
		OutOfPeriod:  s.outOfPeriod,
	}
	rep.StageErrors = append(rep.StageErrors, s.errs...)
	for i, acc := range s.stages {
		if acc == nil {
			continue
		}
		var t0 time.Time
		if s.met != nil {
			t0 = time.Now()
		}
		err := finalizeStage(acc, rep)
		if s.met != nil {
			s.met.stageFinalize[i].Observe(time.Since(t0))
		}
		if err != nil {
			rep.StageErrors = append(rep.StageErrors, StageError{Stage: stageTable[i].name, Err: err.Error()})
		}
	}
	if s.met != nil {
		rep.Profile = s.met.profile(s)
		rep.ProfileWorkers = 1
	}
	return rep
}

func finalizeStage(acc Accumulator, rep *Report) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return acc.Finalize(rep)
}
