// Package query is the serving layer over the measurement pipeline: a
// time-bucketed store of streaming accumulators that ingests CDR
// records continuously and answers the paper's report queries over
// rolling windows.
//
// The store slices the study period into fixed-width buckets (an hour
// by default). Each bucket starts as a full analysis.Streaming
// accumulator built with TrackHeads, fed only the records whose start
// falls in its slice. Two facts keep the store small and its misses
// short. A bucket the live index has passed no longer changes, so once
// it has a snapshot encoding — from the cut or the miss that needed
// one anyway — it is sealed: the accumulator is dropped and the bytes
// are the bucket. A day's passed buckets no longer change either, so a
// window is folded from operands (window.go): the hourly encodings of
// its ragged first day, one memoised roll-up for every whole passed
// day, one for the day so far — extended by the buckets sealed since
// the last miss — and the live bucket. The 14 d window is 13 roll-ups,
// the day so far, the live hour. Operands are folded oldest first by
// one MergeOrderedAll, a bucket restored from its bytes and a roll-up
// as it is; the fold merges its stages on every core, so a miss waits
// for its slowest stage, not for all of them in a row. A served report
// is bit-identical to a batch run over the same records wherever the
// MergeOrdered precondition holds (TestMergeOrderedEquivalence,
// FuzzMergeOrderedGrouping); where the feed breaks it the store says so
// (Stats.FoldOverlaps). A late record into a sealed bucket is still
// accepted: it thaws the bucket from its bytes and drops its day's
// roll-up.
//
// Readers are lock-light: the store mutex covers only bucket routing,
// snapshot-encoding the dirty buckets a cut or a miss needs (on every
// core, refreshLocked), and the response cache; the expensive
// restore+fold+finalize+marshal runs outside the lock on immutable
// encoded bytes and roll-ups no merge writes to. Responses are cached
// per (endpoint, window) and invalidated when the live bucket
// advances, so a response can be stale by at most one bucket width —
// the deliberate trade the bucket model makes.
//
// Durability rides on snapshot.Dir: Checkpoint writes one consistent
// cut holding every bucket's snapshot (CheckpointBehind leaves the
// write running behind the caller), Restore warm-starts from the
// newest valid cut, and the daemon replays only the post-watermark
// tail of its input. Roll-ups are derived state: never written, and
// rebuilt by the first miss that needs them.
package query

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/snapshot"
)

// Window names a rolling span of trailing buckets, e.g. {"24h", 24h}.
type Window struct {
	Name string
	Span time.Duration
}

// DefaultWindows are the rolling spans the paper's operational story
// needs: a day, a week, and the full 90-day study scale.
func DefaultWindows() []Window {
	return []Window{
		{Name: "24h", Span: 24 * time.Hour},
		{Name: "7d", Span: 7 * 24 * time.Hour},
		{Name: "90d", Span: 90 * 24 * time.Hour},
	}
}

// Config assembles a Store.
type Config struct {
	// Ctx is the study configuration every bucket shares.
	Ctx analysis.Context
	// Opts are the analysis options. TrackHeads is forced on (the
	// window fold requires it) and Obs is stripped from the per-bucket
	// accumulators — the store reports through its own query-area
	// metrics instead.
	Opts analysis.RunOptions
	// Bucket is the slice width; 0 means one hour.
	Bucket time.Duration
	// Windows are the queryable rolling spans; empty means
	// DefaultWindows. Every span must be a positive multiple of the
	// bucket width.
	Windows []Window
	// Snapshots, when non-nil, is the rotated cut directory behind
	// Checkpoint and Restore. Nil disables durability.
	Snapshots *snapshot.Dir
	// Obs, when non-nil, receives the store's metrics, including the
	// freshness SLI callback gauges (watermark age, last-cut age, tail
	// replay).
	Obs *obs.Registry
	// Trace, when non-nil, receives compose/cut spans.
	Trace *obs.Trace
}

// Store is the bucketed accumulator set behind the query service.
// Methods are safe for concurrent use.
type Store struct {
	ctx     analysis.Context
	opts    analysis.RunOptions
	width   time.Duration
	maxIdx  int
	windows []Window
	snaps   *snapshot.Dir
	// perDay is the number of buckets in a roll-up day; 0 when the
	// bucket width does not divide 24 h or is not below it, and the
	// store then has no roll-ups.
	perDay int

	// buildMu serializes roll-up builds, so misses arriving together
	// after a restart build each day once between them.
	buildMu sync.Mutex

	mu        sync.Mutex
	buckets   map[int]*bucket
	days      map[int]*dayState
	live      int // highest bucket index fed so far; -1 cold
	watermark int64
	reports   map[string]cachedReport
	// overlaps is the MergeOrdered precondition witness count of the
	// last fold of each window, by window name.
	overlaps map[string]int64
	// scratch holds refreshLocked's reusable encode targets, one per
	// encoding goroutine.
	scratch []*bytes.Buffer

	// Roll-up and thaw traffic, for Stats; the metrics mirror them.
	rollupBuilds  int64
	rollupExtends int64
	rollupInvalid int64
	thaws         int64

	// Freshness SLI state. lastAdd is the wall time of the newest
	// ingested record (startedAt before any); restored is the watermark
	// the last warm restart recovered (-1: cold start), so
	// watermark-restored is the tail replayed/ingested since. The
	// lastCut* fields describe the most recent snapshot cut attempt.
	startedAt  time.Time
	lastAdd    time.Time
	restored   int64
	lastCutAt  time.Time
	lastCutSeq uint64
	lastCutDur time.Duration
	lastCutErr string
	// cutAt is the watermark of the last cut this store wrote, -1
	// before one; a cut asked for at that watermark is that cut.
	cutAt int64

	// cutMu serializes the cut-takers — Checkpoint, CheckpointBehind,
	// Restore — and guards pending, which delivers the outcome of the
	// cut write running behind ingest; nil when none is.
	cutMu   sync.Mutex
	pending chan error
	// skipped holds why the last Restore passed over each cut newer than
	// the one it restored; guarded by cutMu.
	skipped []error

	met   storeMetrics
	trace *obs.Trace
}

type bucket struct {
	// stream is the live accumulator; nil once the bucket is sealed,
	// when encoded alone is the bucket.
	stream *analysis.Streaming
	// dirty marks records added since encoded was produced.
	dirty   bool
	encoded []byte
}

type cachedReport struct {
	epoch int
	body  []byte
}

type storeMetrics struct {
	records     *obs.Counter
	requests    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	foldSeconds *obs.Timing
	buckets     *obs.Gauge
	epoch       *obs.Gauge
	cuts        *obs.Counter
	cutSeconds  *obs.Timing
	cutStall    *obs.Timing
	cutFailures *obs.Counter
	restores    *obs.Counter

	rollupBuilds  *obs.Counter
	rollupExtends *obs.Counter
	rollupInvalid *obs.Counter
	thaws         *obs.Counter
}

// newStoreMetrics registers the store's handles; without a registry
// they are nil, and nil handles are no-ops.
func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		records:     reg.Counter("cellcars_query_records_total"),
		requests:    reg.Counter("cellcars_query_requests_total"),
		cacheHits:   reg.Counter("cellcars_query_cache_hits_total"),
		cacheMisses: reg.Counter("cellcars_query_cache_misses_total"),
		foldSeconds: reg.Timing("cellcars_query_fold_seconds"),
		buckets:     reg.Gauge("cellcars_query_buckets"),
		epoch:       reg.Gauge("cellcars_query_epoch"),
		cuts:        reg.Counter("cellcars_query_cuts_total"),
		cutSeconds:  reg.Timing("cellcars_query_cut_seconds"),
		cutStall:    reg.Timing("cellcars_query_cut_stall_seconds"),
		cutFailures: reg.Counter("cellcars_query_cut_failures_total"),
		restores:    reg.Counter("cellcars_query_restores_total"),

		rollupBuilds:  reg.Counter("cellcars_query_rollup_builds_total"),
		rollupExtends: reg.Counter("cellcars_query_rollup_extends_total"),
		rollupInvalid: reg.Counter("cellcars_query_rollup_invalidations_total"),
		thaws:         reg.Counter("cellcars_query_thaws_total"),
	}
}

// New validates the configuration and builds an empty store.
func New(cfg Config) (*Store, error) {
	if cfg.Ctx.Period.Days() <= 0 {
		return nil, errors.New("query: context has no study period")
	}
	width := cfg.Bucket
	if width == 0 {
		width = time.Hour
	}
	if width <= 0 {
		return nil, fmt.Errorf("query: bucket width %v not positive", width)
	}
	span := cfg.Ctx.Period.End().Sub(cfg.Ctx.Period.Start())
	if span%width != 0 {
		return nil, fmt.Errorf("query: bucket width %v does not divide the %v study period", width, span)
	}
	windows := cfg.Windows
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	seen := make(map[string]bool, len(windows))
	for _, w := range windows {
		if w.Name == "" {
			return nil, errors.New("query: window with empty name")
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("query: duplicate window %q", w.Name)
		}
		seen[w.Name] = true
		if w.Span <= 0 || w.Span%width != 0 {
			return nil, fmt.Errorf("query: window %q span %v is not a positive multiple of the %v bucket", w.Name, w.Span, width)
		}
	}
	opts := cfg.Opts
	opts.TrackHeads = true
	opts.Obs = nil
	now := time.Now()
	s := &Store{
		ctx:       cfg.Ctx,
		opts:      opts,
		width:     width,
		maxIdx:    int(span/width) - 1,
		windows:   windows,
		snaps:     cfg.Snapshots,
		buckets:   make(map[int]*bucket),
		days:      make(map[int]*dayState),
		live:      -1,
		reports:   make(map[string]cachedReport),
		overlaps:  make(map[string]int64),
		startedAt: now,
		lastAdd:   now,
		restored:  -1,
		cutAt:     -1,
		met:       newStoreMetrics(cfg.Obs),
		trace:     cfg.Trace,
	}
	if width < rollupSpan && rollupSpan%width == 0 {
		s.perDay = int(rollupSpan / width)
	}
	if cfg.Obs != nil {
		// Freshness SLIs as callback gauges: ages advance between
		// scrapes without a ticker, and each scrape sees a consistent
		// point-in-time value read under the store mutex.
		cfg.Obs.GaugeFunc("cellcars_query_watermark_age_seconds", func() float64 {
			return s.WatermarkAge().Seconds()
		})
		cfg.Obs.GaugeFunc("cellcars_query_last_cut_age_seconds", func() float64 {
			f := s.Freshness()
			return f.LastCutAgeSeconds
		})
		cfg.Obs.GaugeFunc("cellcars_query_tail_replay_records", func() float64 {
			return float64(s.TailReplay())
		})
		// The store's shape, the same way: what to size memory from.
		cfg.Obs.GaugeFunc("cellcars_query_live_buckets", func() float64 { return float64(s.SnapshotStats().LiveBuckets) })
		cfg.Obs.GaugeFunc("cellcars_query_sealed_bytes", func() float64 { return float64(s.SnapshotStats().SealedBytes) })
		cfg.Obs.GaugeFunc("cellcars_query_rollups", func() float64 { return float64(s.SnapshotStats().Rollups) })
		for _, w := range windows {
			name := w.Name
			cfg.Obs.GaugeFunc("cellcars_query_fold_overlaps", func() float64 { return float64(s.SnapshotStats().FoldOverlaps[name]) },
				obs.Label{Key: "window", Value: name})
		}
	}
	return s, nil
}

// Windows returns the configured rolling windows.
func (s *Store) Windows() []Window { return append([]Window(nil), s.windows...) }

// BucketWidth returns the bucket slice width.
func (s *Store) BucketWidth() time.Duration { return s.width }

// bucketIndex routes a record start to its bucket. Starts outside the
// study period clamp to the edge buckets; the accumulators there count
// them out-of-period exactly as a batch run would.
func (s *Store) bucketIndex(t time.Time) int {
	d := t.Sub(s.ctx.Period.Start())
	if d < 0 {
		return 0
	}
	idx := int(d / s.width)
	if idx > s.maxIdx {
		return s.maxIdx
	}
	return idx
}

// Add ingests one record into its time bucket. Records must arrive in
// the stream's start order (the Sessionizer contract each bucket
// inherits); a late record into an already-passed bucket is accepted:
// it invalidates that bucket's cached encoding, thaws the bucket first
// if it was sealed, and drops the roll-up of its day.
func (s *Store) Add(r cdr.Record) {
	idx := s.bucketIndex(r.Start)
	s.mu.Lock()
	b := s.buckets[idx]
	switch {
	case b == nil:
		b = &bucket{stream: analysis.NewStreamingWithOptions(s.ctx, s.opts)}
		s.buckets[idx] = b
		s.met.buckets.Set(float64(len(s.buckets)))
	case b.stream == nil:
		s.thawLocked(idx, b)
	}
	b.stream.Add(r)
	b.dirty = true
	s.watermark++
	s.lastAdd = time.Now()
	if idx > s.live {
		s.live = idx
		s.met.epoch.Set(float64(idx))
	} else if idx < s.live {
		s.invalidateDayLocked(idx)
	}
	s.mu.Unlock()
	s.met.records.Inc()
}

// thawLocked turns a sealed bucket back into an accumulator, for a
// late record. The bytes are the store's own encoding (or a cut's,
// validated on the way in), so a failed restore is a bug, not an input
// condition.
func (s *Store) thawLocked(idx int, b *bucket) {
	stream, err := analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewBuffer(b.encoded))
	if err != nil {
		panic(fmt.Sprintf("query: thaw sealed bucket %d: %v", idx, err))
	}
	b.stream, b.encoded = stream, nil
	s.thaws++
	s.met.thaws.Inc()
}

// Watermark returns the records ingested so far — the count a warm
// restart must skip on the re-opened stream.
func (s *Store) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// window returns the named window, or false.
func (s *Store) window(name string) (Window, bool) {
	for _, w := range s.windows {
		if w.Name == name {
			return w, true
		}
	}
	return Window{}, false
}

// refreshLocked brings the snapshot encodings of buckets idxs (present,
// ascending) up to date and seals those the live index has passed:
// sealing rides on the encodes cuts and misses need anyway and never
// causes one. The dirty buckets' flush and encode — nearly all of the
// cost — are shared out to min(GOMAXPROCS, dirty) goroutines, each
// with its own scratch buffer, or done inline when that is one. The
// goroutine that encodes a bucket installs the encoding and seals it
// there and then, so a passed accumulator is garbage from the moment
// it is encoded, not from the end of the cut (holding them all to the
// end read +5–10 MB peak RSS on the serve fleet's cold drain); the
// clean buckets are sealed after, in index order. Callers hold the
// store mutex, so what ingest waits for is the encode spread over the
// cores; each bucket's encoded bytes are immutable once installed.
func (s *Store) refreshLocked(idxs []int) error {
	var dirty []int
	for _, idx := range idxs {
		if b := s.buckets[idx]; b.dirty || b.encoded == nil {
			dirty = append(dirty, idx)
		}
	}
	errs := make([]error, len(dirty))
	encode := func(buf *bytes.Buffer, i int) {
		idx := dirty[i]
		b := s.buckets[idx]
		buf.Reset()
		if err := b.stream.SnapshotTo(buf); err != nil {
			errs[i] = fmt.Errorf("query: encode bucket %d: %w", idx, err)
			return
		}
		// An exact-size copy: sealed bytes are held for the store's
		// lifetime, a growing buffer's spare capacity would be too.
		b.encoded, b.dirty = bytes.Clone(buf.Bytes()), false
		if idx < s.live {
			b.stream = nil
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(dirty)))
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, new(bytes.Buffer))
	}
	var next atomic.Int64
	drain := func(buf *bytes.Buffer) {
		for i := next.Add(1) - 1; i < int64(len(dirty)); i = next.Add(1) - 1 {
			encode(buf, int(i))
		}
	}
	if workers == 1 {
		drain(s.scratch[0])
	} else {
		var wg sync.WaitGroup
		for _, buf := range s.scratch[:workers] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain(buf)
			}()
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, idx := range idxs {
		if idx < s.live {
			s.buckets[idx].stream = nil
		}
	}
	return nil
}

// ErrUnknownWindow and ErrUnknownEndpoint classify bad queries for the
// HTTP layer's 404s.
var (
	ErrUnknownWindow   = errors.New("query: unknown window")
	ErrUnknownEndpoint = errors.New("query: unknown endpoint")
)

// Report answers one endpoint over one window, serving from the
// (endpoint, window) cache while the live bucket has not advanced.
// The returned bytes are shared and must not be modified.
func (s *Store) Report(endpoint, windowName string) ([]byte, error) {
	view, ok := viewFor(endpoint)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEndpoint, endpoint)
	}
	w, ok := s.window(windowName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWindow, windowName)
	}
	s.met.requests.Inc()
	key := endpoint + "|" + w.Name

	s.mu.Lock()
	if c, ok := s.reports[key]; ok && c.epoch == s.live {
		s.mu.Unlock()
		s.met.cacheHits.Inc()
		return c.body, nil
	}
	s.mu.Unlock()
	s.met.cacheMisses.Inc()

	rep, epoch, err := s.compose(endpoint, w)
	if err != nil {
		return nil, err
	}
	body, err := view(rep)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	// A concurrent Add may have advanced the live bucket while we
	// folded; only cache a response that is still current.
	if epoch == s.live {
		s.reports[key] = cachedReport{epoch: epoch, body: body}
	}
	s.mu.Unlock()
	return body, nil
}

// WatermarkAge returns how long ago the newest record was ingested —
// the primary freshness SLI. Before any record arrives it measures the
// time since the store was built.
func (s *Store) WatermarkAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.lastAdd)
}

// TailReplay returns the records ingested since the last warm restart
// — the post-watermark tail the daemon replayed plus live arrivals. On
// a cold start (no restore) it is the full record count.
func (s *Store) TailReplay() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.restored < 0 {
		return s.watermark
	}
	return s.watermark - s.restored
}

// Freshness is the data-freshness SLI block: how stale the served
// window reports can be and how the durability machinery is keeping
// up. All ages are measured at call time.
type Freshness struct {
	// WatermarkAgeSeconds is the age of the newest ingested record.
	WatermarkAgeSeconds float64 `json:"watermark_age_seconds"`
	// RestoredWatermark is the record count recovered by the last warm
	// restart, -1 on a cold start.
	RestoredWatermark int64 `json:"restored_watermark"`
	// TailReplayRecords counts records ingested past the restored
	// watermark (the replayed tail plus live arrivals).
	TailReplayRecords int64 `json:"tail_replay_records"`
	// LastCutSeq is the sequence of the newest successful snapshot cut,
	// 0 when none has completed.
	LastCutSeq uint64 `json:"last_cut_seq"`
	// LastCutAgeSeconds is the age of that cut, -1 when none yet.
	LastCutAgeSeconds float64 `json:"last_cut_age_seconds"`
	// LastCutSeconds is how long the last successful cut took.
	LastCutSeconds float64 `json:"last_cut_seconds"`
	// LastCutError is the most recent cut failure, cleared by the next
	// success.
	LastCutError string `json:"last_cut_error,omitempty"`
}

// Freshness returns the point-in-time freshness SLIs.
func (s *Store) Freshness() Freshness {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freshnessLocked()
}

func (s *Store) freshnessLocked() Freshness {
	tail := s.watermark
	if s.restored >= 0 {
		tail = s.watermark - s.restored
	}
	f := Freshness{
		WatermarkAgeSeconds: time.Since(s.lastAdd).Seconds(),
		RestoredWatermark:   s.restored,
		TailReplayRecords:   tail,
		LastCutSeq:          s.lastCutSeq,
		LastCutAgeSeconds:   -1,
		LastCutError:        s.lastCutErr,
	}
	if !s.lastCutAt.IsZero() {
		f.LastCutAgeSeconds = time.Since(s.lastCutAt).Seconds()
		f.LastCutSeconds = s.lastCutDur.Seconds()
	}
	return f
}

// Stats is a cheap point-in-time summary for /stats and /readyz.
type Stats struct {
	Records     int64         `json:"records"`
	Buckets     int           `json:"buckets"`
	Epoch       int           `json:"epoch"`
	BucketWidth time.Duration `json:"bucket_width_ns"`
	Windows     []string      `json:"windows"`
	// LiveBuckets of the Buckets still hold an accumulator; the rest are
	// sealed. SealedBytes is what is held in their place: the sealed
	// buckets' encodings. Rollups counts the memoised day roll-ups —
	// whole passed days and the day so far — which are held as folded
	// accumulators.
	LiveBuckets int   `json:"live_buckets"`
	SealedBytes int64 `json:"sealed_bytes"`
	Rollups     int   `json:"rollups"`
	// RollupBuilds, RollupExtends, RollupInvalidations and Thaws count
	// roll-ups folded from their day's buckets, roll-ups extended from
	// the day's shorter memo by the buckets sealed since, roll-ups
	// dropped (or refused) for a late record into their day, and sealed
	// buckets restored for one.
	RollupBuilds        int64 `json:"rollup_builds"`
	RollupExtends       int64 `json:"rollup_extends"`
	RollupInvalidations int64 `json:"rollup_invalidations"`
	Thaws               int64 `json:"thaws"`
	// FoldOverlaps is, per window folded so far, how many boundary
	// stitches of its last fold fell outside the MergeOrdered
	// precondition (analysis.Streaming.OrderedOverlaps). Zero: the
	// served report is the batch report; non-zero: the session-stage
	// fields may differ from a batch run by a few sessions.
	FoldOverlaps map[string]int64 `json:"fold_overlaps"`
	Freshness    Freshness        `json:"freshness"`
}

// SnapshotStats returns the store's ingest counters and freshness SLIs.
func (s *Store) SnapshotStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.windows))
	for _, w := range s.windows {
		names = append(names, w.Name)
	}
	// The shape is counted, not kept: a walk of a few thousand entries
	// per /stats or scrape, against bookkeeping at every seal and thaw.
	var live, rollups int
	var sealedBytes int64
	for _, b := range s.buckets {
		if b.stream != nil {
			live++
		} else {
			sealedBytes += int64(len(b.encoded))
		}
	}
	for _, d := range s.days {
		if d.rollup != nil {
			rollups++
		}
	}
	return Stats{
		Records:             s.watermark,
		Buckets:             len(s.buckets),
		Epoch:               s.live,
		BucketWidth:         s.width,
		Windows:             names,
		LiveBuckets:         live,
		SealedBytes:         sealedBytes,
		Rollups:             rollups,
		RollupBuilds:        s.rollupBuilds,
		RollupExtends:       s.rollupExtends,
		RollupInvalidations: s.rollupInvalid,
		Thaws:               s.thaws,
		FoldOverlaps:        maps.Clone(s.overlaps),
		Freshness:           s.freshnessLocked(),
	}
}
