// Command layertrace times calls into each layer's public functions,
// from outside the layers, over the inputs carbench generated. It is
// the only part of the benchmark that compiles against the
// repository's packages, and it is a separate program so that a
// refactor which breaks it cannot break the end-to-end half.
//
// A layer's self time comes from differential passes over one input —
// decode alone, resilient(decode), AddAll(resilient(decode)) — never
// from a clock read per record. Each pass runs reps times; carbench
// takes the medians. Every span names the workload whose cost it
// explains. The output is one JSON object on stdout: samples
// by metric name, measurements skipped with the reason, and the spans
// of every pass.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cellcars/bench/span"
	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/radio"
	"cellcars/internal/report"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
)

// output is what carbench reads back.
type output struct {
	Samples map[string][]float64 `json:"samples"`
	Skipped map[string]string    `json:"skipped"`
	Spans   []span.Span          `json:"spans"`
}

// reps is how many times every pass runs: enough for a median, no
// more, since the passes attribute time and gate nothing.
const reps = 3

// The study carbench generates every input for (its studyStart and
// studyDays).
const (
	studyStart = "2017-01-02"
	studyDays  = 14
)

type ladder struct {
	rec     *span.Recorder
	root    int
	out     output
	ctx     analysis.Context
	opts    analysis.RunOptions
	ingest  cdr.ResilientConfig
	workDir string
}

func main() {
	var (
		mainPath  = flag.String("main", "", "clean binary CDR file of the main fleet")
		csvPath   = flag.String("csv", "", "the same records as CSV with seeded faults")
		servePath = flag.String("serve", "", "clean binary CDR file of the serve fleet")
		partials  = flag.String("partials", "", "directory of shard*.snap partials a cardrive run kept")
		seed      = flag.Uint64("seed", 1, "analysis seed")
		every     = flag.Int64("every", 25000, "records between checkpoint cuts")
		workDir   = flag.String("work", "", "scratch directory for checkpoint and cut files")
	)
	flag.Parse()
	startDay, err := time.Parse("2006-01-02", studyStart)
	if err != nil {
		fatal(err)
	}
	period := simtime.NewPeriod(startDay, studyDays)
	l := &ladder{
		rec: span.NewRecorder(),
		out: output{Samples: map[string][]float64{}, Skipped: map[string]string{}},
		// The configuration the binaries run files under: local time
		// five hours behind UTC, rare-day thresholds scaled to the
		// study length, a week of slack around the period.
		ctx:  analysis.Context{Period: period, TZOffsetSeconds: -5 * 3600},
		opts: analysis.RunOptions{Seed: *seed, RareDays: []int{max(1, studyDays/9), max(2, studyDays/3)}},
		ingest: cdr.ResilientConfig{MaxBadFrac: 0.05,
			MinStart: period.Start().AddDate(0, 0, -7), MaxStart: period.End().AddDate(0, 0, 7)},
		workDir: *workDir,
	}
	root := l.rec.Start("layertrace", 0)
	l.root = root.ID()
	l.rec.Under("batch")

	records, err := l.codec(*mainPath, *csvPath)
	if err != nil {
		fatal(err)
	}
	if err := l.engine(records, *every); err != nil {
		fatal(err)
	}
	if err := l.merge(*partials); err != nil {
		fatal(err)
	}
	if err := l.windows(*servePath); err != nil {
		fatal(err)
	}
	root.End(int64(len(records)))
	l.out.Spans = l.rec.Spans()
	if err := json.NewEncoder(os.Stdout).Encode(l.out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layertrace:", err)
	os.Exit(1)
}

// step is one named pass.
type step struct {
	name string
	fn   func() error
}

// passes runs the steps in turn, reps times over, each under its own
// span, and returns the seconds every repetition of every step took.
// Steps whose difference is a metric go through here together, so that
// both sides of the difference see the same minute of a shared box.
func (l *ladder) passes(records int, steps ...step) ([][]float64, error) {
	secs := make([][]float64, len(steps))
	for i := 0; i < reps; i++ {
		for j, st := range steps {
			sp := l.rec.Start(st.name, l.root)
			err := st.fn()
			secs[j] = append(secs[j], sp.End(int64(records)).Seconds())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", st.name, err)
			}
		}
	}
	return secs, nil
}

func (l *ladder) pass(name string, records int, fn func() error) ([]float64, error) {
	secs, err := l.passes(records, step{name, fn})
	if err != nil {
		return nil, err
	}
	return secs[0], nil
}

// put stores samples under a metric name after scaling each.
func (l *ladder) put(name string, xs []float64, scale float64) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * scale
	}
	l.out.Samples[name] = out
}

// diff is the per-repetition difference of two passes: the self time
// of whatever the second pass adds to the first.
func diff(outer, inner []float64) []float64 {
	return zip(outer, inner, func(o, i float64) float64 { return o - i })
}

func sum(a, b float64) float64 { return a + b }

// zip combines two passes repetition by repetition.
func zip(a, b []float64, f func(a, b float64) float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// drain reads r to the end and counts the records delivered; decode
// errors on single records are skipped, as a resilient reader would.
func drain(r cdr.Reader) (n int, err error) {
	for {
		_, err := r.Read()
		switch {
		case err == nil:
			n++
		case errors.Is(err, io.EOF):
			return n, nil
		case errors.Is(err, cdr.ErrBadRecord):
		default:
			return n, err
		}
	}
}

// allocs runs fn and returns the heap objects and bytes it allocated.
func allocs(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// codec measures the cdr and clean layers and the whole
// single-threaded pipeline they feed, and returns the main fleet's
// records for the passes that start from memory.
func (l *ladder) codec(mainPath, csvPath string) ([]cdr.Record, error) {
	open := func(path string, then func(cdr.Reader) error) func() error {
		return func() error {
			r, c, err := cdr.OpenFile(path)
			if err != nil {
				return err
			}
			defer c.Close()
			return then(r)
		}
	}
	justDrain := func(r cdr.Reader) error { _, err := drain(r); return err }

	var records []cdr.Record
	r, c, err := cdr.OpenFile(mainPath)
	if err != nil {
		return nil, err
	}
	records, err = cdr.ReadAll(r)
	c.Close()
	if err != nil {
		return nil, err
	}
	n := len(records)
	perRec := 1e9 / float64(n)

	bin, err := l.pass("cdr.decode_bin", n, open(mainPath, justDrain))
	if err != nil {
		return nil, err
	}
	l.put("cdr.decode_bin.ns_per_rec", bin, perRec)

	// Decode alone, decode under the resilient reader, and the whole
	// single-threaded pipeline caranalyze -stream runs on one worker:
	// the layer passes and the engine's Add and Finalize below must add
	// up to the last.
	var quarantined int64
	l.rec.Under("shards")
	csvPasses, err := l.passes(n,
		step{"cdr.decode_csv", open(csvPath, justDrain)},
		step{"cdr.resilient(decode_csv)", open(csvPath, func(r cdr.Reader) error {
			rr := cdr.NewResilientReader(r, l.ingest)
			_, err := drain(rr)
			st := rr.Stats()
			quarantined = st.QuarantinedTotal()
			return err
		})},
		step{"pipeline(csv)", open(csvPath, func(r cdr.Reader) error {
			s := analysis.NewStreamingWithOptions(l.ctx, l.opts)
			if err := s.AddAll(cdr.NewResilientReader(r, l.ingest)); err != nil {
				return err
			}
			s.Finalize()
			return nil
		})})
	if err != nil {
		return nil, err
	}
	csv, resilient, whole := csvPasses[0], csvPasses[1], csvPasses[2]
	l.put("cdr.decode_csv.ns_per_rec", csv, perRec)
	l.put("cdr.resilient.ns_per_rec", diff(resilient, csv), perRec)
	l.out.Samples["cdr.resilient.quarantined"] = []float64{float64(quarantined)}
	l.out.Samples["pipeline.wall_s"] = whole
	l.out.Samples["pipeline.codec_s"] = resilient

	shardPasses, err := l.passes(n,
		step{"cdr.slice", func() error { return justDrain(cdr.NewSliceReader(records)) }},
		step{"cdr.shard(slice)", func() error {
			return justDrain(cdr.FilterFunc(cdr.NewSliceReader(records), func(r cdr.Record) bool {
				return cdr.ShardOfCar(r.Car, 8) == 0
			}))
		}})
	if err != nil {
		return nil, err
	}
	l.put("cdr.shard.ns_per_rec", diff(shardPasses[1], shardPasses[0]), perRec)

	l.rec.Under("batch")
	var sessObjects float64
	sess, err := l.pass("clean.sessionize", n, func() error {
		sessObjects, _ = allocs(func() {
			z := clean.NewSessionizer(30 * time.Second)
			for _, r := range records {
				z.Add(r)
			}
			z.Flush()
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.put("clean.sessionize.ns_per_rec", sess, perRec)
	l.out.Samples["clean.sessionize.allocs_per_rec"] = []float64{sessObjects / float64(n)}

	return records, nil
}

// hashLoad is a cheap deterministic load source: utilization is a hash
// of (cell, bin). File-mode caranalyze has no load model, so the busy,
// segments and clusters stages run in no end-to-end workload; this is
// what lets the trace put a cost on them.
type hashLoad struct{}

func (hashLoad) Utilization(cell radio.CellKey, bin int) float64 {
	h := uint64(cell)*0x9E3779B97F4A7C15 + uint64(bin)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return float64(h%1000) / 1000
}

func (hashLoad) BusyThreshold() float64 { return 0.80 }

// busyCells picks the clustering population: the first few distinct
// cells of the stream.
func busyCells(records []cdr.Record, n int) []radio.CellKey {
	seen := map[radio.CellKey]bool{}
	var out []radio.CellKey
	for _, r := range records {
		if !seen[r.Cell] {
			seen[r.Cell] = true
			if out = append(out, r.Cell); len(out) == n {
				break
			}
		}
	}
	return out
}

// engine measures the analysis layer from a preloaded slice: the Add
// path, the state it builds, Finalize, the engine's dispatch and
// observability costs, every stage's share, snapshots and checkpoints,
// and the report renderer.
func (l *ladder) engine(records []cdr.Record, every int64) error {
	n := len(records)
	perRec := 1e9 / float64(n)

	// The Add path alone, the engine around it on one worker (the
	// difference is dispatch), and the same with a metrics registry
	// (the difference is what observability costs).
	var rep *analysis.Report
	engineRun := func(workers int, reg func() *obs.Registry) func() error {
		return func() error {
			opts := l.opts
			opts.Obs = reg()
			var err error
			rep, err = analysis.NewEngine(l.ctx, analysis.EngineOptions{RunOptions: opts, Workers: workers}).
				RunReader(cdr.NewSliceReader(records))
			return err
		}
	}
	noObs := func() *obs.Registry { return nil }
	var objects, heapBytes float64
	enginePasses, err := l.passes(n,
		step{"analysis.add", func() error {
			s := analysis.NewStreamingWithOptions(l.ctx, l.opts)
			objects, heapBytes = allocs(func() {
				for _, r := range records {
					s.Add(r)
				}
			})
			return nil
		}},
		step{"analysis.engine(workers=1)", engineRun(1, noObs)},
		step{"analysis.engine(workers=1,obs)", engineRun(1, obs.New)})
	if err != nil {
		return err
	}
	add, w1, observed := enginePasses[0], enginePasses[1], enginePasses[2]
	l.put("analysis.add.ns_per_rec", add, perRec)
	l.out.Samples["analysis.add.allocs_per_rec"] = []float64{objects / float64(n)}
	l.out.Samples["analysis.add.bytes_per_rec"] = []float64{heapBytes / float64(n)}
	l.put("analysis.engine.dispatch_ns_per_rec", diff(w1, add), perRec)
	l.out.Samples["obs.overhead_pct"] = zip(observed, w1, func(o, w float64) float64 { return (o/w - 1) * 100 })
	if runtime.NumCPU() >= 2 {
		w2, err := l.pass("analysis.engine(workers=2)", n, engineRun(2, noObs))
		if err != nil {
			return err
		}
		l.out.Samples["analysis.engine.w2_speedup"] = zip(w1, w2, func(one, two float64) float64 { return one / two })
	} else {
		l.out.Skipped["analysis.engine.w2_speedup"] = "needs 2 cores, the box has 1"
	}

	// Live state: the heap once an accumulator is built minus the heap
	// before, both after a collection. This one then serves Finalize
	// and the snapshot passes.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := analysis.NewStreamingWithOptions(l.ctx, l.opts)
	for _, r := range records {
		s.Add(r)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	var srep analysis.StreamReport
	fin, err := l.pass("analysis.finalize", n, func() error { srep = s.Finalize(); return nil })
	if err != nil {
		return err
	}
	l.put("analysis.finalize.ms", fin, 1e3)
	cars := float64(max(srep.Presence.TotalCars, 1))
	l.out.Samples["analysis.state.bytes_per_car"] = []float64{(float64(after.HeapAlloc) - float64(before.HeapAlloc)) / cars}

	l.rec.Under("checkpoint")
	var snap bytes.Buffer
	enc, err := l.pass("analysis.snapshot.encode", n, func() error { snap.Reset(); return s.SnapshotTo(&snap) })
	if err != nil {
		return err
	}
	l.put("analysis.snapshot.encode_ms", enc, 1e3)
	l.out.Samples["analysis.snapshot.bytes_per_car"] = []float64{float64(snap.Len()) / cars}

	restore, err := l.pass("analysis.snapshot.restore", n, func() error {
		_, err := analysis.RestoreStreaming(l.ctx, l.opts, bytes.NewReader(snap.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	l.put("analysis.snapshot.restore_ms", restore, 1e3)

	wall := l.out.Samples["pipeline.wall_s"]
	codec := l.out.Samples["pipeline.codec_s"]
	delete(l.out.Samples, "pipeline.wall_s")
	delete(l.out.Samples, "pipeline.codec_s")
	parts := zip(zip(codec, add, sum), fin, sum)
	l.out.Samples["pipeline.reconcile_ratio"] = zip(parts, wall, func(p, w float64) float64 { return p / w })

	l.rec.Under("batch")
	render, err := l.pass("report.render", n, func() error {
		report.Render(rep, l.ctx, report.Options{Title: "layertrace"})
		return nil
	})
	if err != nil {
		return err
	}
	l.put("report.render.ms", render, 1e3)

	// Every stage, the load-dependent ones included, with the stage
	// timers on: each stage's share of the summed Add time, read by
	// name so that a renamed stage goes absent instead of breaking.
	fullCtx := l.ctx
	fullCtx.Load = hashLoad{}
	fullOpts := l.opts
	fullOpts.BusyCells = busyCells(records, 24)
	var reg *obs.Registry
	full, err := l.pass("analysis.add_full", n, func() error {
		reg = obs.New()
		opts := fullOpts
		opts.Obs = reg
		return analysis.NewStreamingWithOptions(fullCtx, opts).AddAll(cdr.NewSliceReader(records))
	})
	if err != nil {
		return err
	}
	l.put("analysis.add_full.ns_per_rec", full, perRec)
	var stageSum float64
	stages := map[string]float64{}
	for _, t := range reg.Snapshot().Timings {
		if t.Name == "cellcars_stage_add_seconds" && len(t.Labels) == 1 {
			stages[t.Labels[0].Value] = t.Sum
			stageSum += t.Sum
		}
	}
	for stage, sum := range stages {
		l.out.Samples["analysis.stage."+stage+".add_share"] = []float64{sum / stageSum}
	}
	l.out.Samples["analysis.stage_sum_over_wall"] = []float64{stageSum / full[len(full)-1]}

	// Checkpoints: the engine's own checkpointed loop, cutting every
	// `every` records, with the write cost and bytes read back by name.
	ckpt := filepath.Join(l.workDir, "layertrace-ckpt.snap")
	var cutMS, cutBytes float64
	l.rec.Under("checkpoint")
	_, err = l.pass("analysis.checkpointed", n, func() error {
		reg := obs.New()
		opts := l.opts
		opts.Obs = reg
		os.Remove(ckpt) // a missing file is the normal case
		_, err := analysis.NewEngine(l.ctx, analysis.EngineOptions{RunOptions: opts, Workers: 1}).
			RunReaderCheckpointed(cdr.NewSliceReader(records), analysis.CheckpointConfig{Path: ckpt, Every: every})
		snap := reg.Snapshot()
		for _, t := range snap.Timings {
			if t.Name == "cellcars_checkpoint_write_seconds" && t.Count > 0 {
				cutMS = t.Sum / float64(t.Count) * 1e3
			}
		}
		for _, c := range snap.Counters {
			if c.Name == "cellcars_checkpoint_bytes_total" {
				cutBytes = float64(c.Value)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	if cutMS > 0 {
		l.out.Samples["analysis.checkpoint.cut_ms"] = []float64{cutMS}
		l.out.Samples["analysis.checkpoint.bytes_per_rec"] = []float64{cutBytes / float64(n)}
	}

	// What a durable cut costs beyond encoding: write, fsync, rename.
	dir := &snapshot.Dir{Path: filepath.Join(l.workDir, "layertrace-cuts"), Keep: 2}
	cut, err := l.pass("snapshot.dir.write_cut", n, func() error {
		_, err := dir.WriteCut(func(w io.Writer) error { _, err := w.Write(snap.Bytes()); return err })
		return err
	})
	if err != nil {
		return err
	}
	l.put("snapshot.dir.write_cut_ms", cut, 1e3)
	return nil
}

// merge times folding the partials a cardrive run kept into one.
func (l *ladder) merge(dir string) error {
	l.rec.Under("shards")
	paths, err := filepath.Glob(filepath.Join(dir, "shard*.snap"))
	if err != nil {
		return err
	}
	if len(paths) < 2 {
		return fmt.Errorf("analysis.merge: %d partials in %s, need at least 2", len(paths), dir)
	}
	sort.Strings(paths)
	load := func() ([]*analysis.Partial, error) {
		var ps []*analysis.Partial
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				return nil, err
			}
			part, err := analysis.ReadPartial(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			ps = append(ps, part)
		}
		return ps, nil
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		ps, err := load() // Merge consumes its receiver: reload for every repetition
		if err != nil {
			return err
		}
		sp := l.rec.Start("analysis.merge", l.root)
		for _, p := range ps[1:] {
			if err := ps[0].Merge(p, false); err != nil {
				return fmt.Errorf("analysis.merge: %w", err)
			}
		}
		secs = append(secs, sp.End(ps[0].Records()).Seconds())
	}
	l.put("analysis.merge.ms", secs, 1e3)
	return nil
}

// windows measures what a window miss and a service restart are made
// of, on the serve fleet: hourly TrackHeads buckets restored and
// left-folded in order, the store's own Add, cut and restore, and the
// full report's marshalling.
func (l *ladder) windows(servePath string) error {
	l.rec.Under("serve")
	r, c, err := cdr.OpenFile(servePath)
	if err != nil {
		return err
	}
	records, err := cdr.ReadAll(r)
	c.Close()
	if err != nil {
		return err
	}
	n := len(records)
	perRec := 1e9 / float64(n)
	opts := l.opts
	opts.TrackHeads = true

	// The buckets the store would hold, built directly, against the
	// store building them itself: the difference is the store's own Add.
	dir := &snapshot.Dir{Path: filepath.Join(l.workDir, "layertrace-store"), Keep: 2}
	newStore := func() (*query.Store, error) {
		return query.New(query.Config{Ctx: l.ctx, Opts: l.opts, Snapshots: dir,
			Windows: []query.Window{{Name: "14d", Span: 14 * 24 * time.Hour}}})
	}
	var buckets map[int64]*analysis.Streaming
	var store *query.Store
	addPasses, err := l.passes(n,
		step{"analysis.add(hourly buckets)", func() error {
			buckets = map[int64]*analysis.Streaming{}
			for _, rec := range records {
				idx := int64(rec.Start.Sub(l.ctx.Period.Start()) / time.Hour)
				b := buckets[idx]
				if b == nil {
					b = analysis.NewStreamingWithOptions(l.ctx, opts)
					buckets[idx] = b
				}
				b.Add(rec)
			}
			return nil
		}},
		step{"query.add", func() error {
			var err error
			if store, err = newStore(); err != nil {
				return err
			}
			for _, rec := range records {
				store.Add(rec)
			}
			return nil
		}})
	if err != nil {
		return err
	}
	l.put("query.add.ns_per_rec", diff(addPasses[1], addPasses[0]), perRec)
	order := make([]int64, 0, len(buckets))
	for idx := range buckets {
		order = append(order, idx)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var encs [][]byte
	for _, idx := range order {
		var buf bytes.Buffer
		if err := buckets[idx].SnapshotTo(&buf); err != nil {
			return err
		}
		encs = append(encs, buf.Bytes())
	}
	if len(encs) < 2 {
		return fmt.Errorf("serve fleet fills %d hourly buckets, need at least 2", len(encs))
	}

	restored := make([]*analysis.Streaming, len(encs))
	restore, err := l.pass("analysis.restore(buckets)", n, func() error {
		for i, enc := range encs {
			var err error
			if restored[i], err = analysis.RestoreStreaming(l.ctx, opts, bytes.NewReader(enc)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("analysis.restore.us_per_bucket", restore, 1e6/float64(len(encs)))

	var folded *analysis.Streaming
	var fold []float64
	for i := 0; i < reps; i++ {
		// MergeOrdered consumes both sides: restore afresh, untimed.
		for j, enc := range encs {
			if restored[j], err = analysis.RestoreStreaming(l.ctx, opts, bytes.NewReader(enc)); err != nil {
				return err
			}
		}
		sp := l.rec.Start("analysis.merge_ordered(buckets)", l.root)
		folded = restored[0]
		for _, next := range restored[1:] {
			if err := folded.MergeOrdered(next); err != nil {
				return fmt.Errorf("analysis.merge_ordered: %w", err)
			}
		}
		fold = append(fold, sp.End(int64(n)).Seconds())
	}
	l.put("analysis.merge_ordered.us_per_bucket", fold, 1e6/float64(len(encs)-1))

	srep := folded.Finalize()
	marshal, err := l.pass("query.view.marshal", n, func() error { _, err := query.MarshalReport(&srep); return err })
	if err != nil {
		return err
	}
	l.put("query.view.marshal_ms", marshal, 1e3)

	// One cut of everything the store holds, and a restore of it.
	cut, err := l.pass("query.cut", n, func() error { _, err := store.Checkpoint(); return err })
	if err != nil {
		return err
	}
	l.put("query.cut.ms", cut, 1e3)
	cuts, err := dir.Cuts()
	if err != nil || len(cuts) == 0 {
		return fmt.Errorf("query.cut left no cut: %v", err)
	}
	fi, err := os.Stat(dir.CutPath(cuts[len(cuts)-1]))
	if err != nil {
		return err
	}
	l.out.Samples["query.cut.bytes_per_input_byte"] = []float64{float64(fi.Size()) / float64(n*28)}

	qrestore, err := l.pass("query.restore", n, func() error {
		fresh, err := newStore()
		if err != nil {
			return err
		}
		if _, ok, err := fresh.Restore(); err != nil || !ok {
			return fmt.Errorf("restore: ok=%v: %v", ok, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("query.restore.ms", qrestore, 1e3)
	return nil
}
