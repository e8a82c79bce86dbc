package analysis

import (
	"errors"
	"io"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// Streaming is the push path into the engine: one accumulator set —
// the same one an Engine worker owns — that the caller feeds itself,
// on its own goroutine. It is for owners of exactly one set: the query
// service keeps one per hourly bucket and folds them with
// MergeOrdered, a cardrive shard worker pushes its filtered shard into
// one and snapshots it for carmerge, and the tests use it as the
// reference the Engine's dispatcher is checked against. To analyze a
// whole source, with workers and checkpoints, use Engine; Streaming
// has no ingest loop beyond AddAll's drain.
//
// Every covered stage (Figure 2/Table 1 presence, Figure 3 connected
// time, Figure 6 days histogram, Table 2 segmentation, Figure 7 busy
// time, Figure 9 durations, §4.5 handovers, Table 3 carriers, fleet
// usage matrix) is computed by exactly the code Run uses, in bounded
// per-car/per-cell memory, and exactly.
//
// Feed records in time order with Add (the erroneous one-hour ghosts
// are filtered inline, and records outside the study period are
// excluded and counted — see Engine for the policy), then call
// Finalize. The load-dependent stages (Table 2, Figure 7) run only
// when the Context passed to NewStreamingWithOptions has a load source.
type Streaming struct {
	ctx  Context
	opts EngineOptions
	set  *accumSet
}

// NewStreamingWithOptions returns an empty accumulator over the
// context — a load source enables the segments, busy and clusters
// stages — with explicit run options: rare-day thresholds, clustering
// cells and seed, the FailStage chaos hook. Zero-value options default
// as in NewEngine. Workers is ignored: a Streaming accumulator is one
// worker's set.
func NewStreamingWithOptions(ctx Context, opts RunOptions) *Streaming {
	eo := EngineOptions{RunOptions: opts.withDefaults(), Workers: 1}
	return &Streaming{ctx: ctx, opts: eo, set: newAccumSet(ctx, eo, 0)}
}

// Add accumulates one raw record; exactly-one-hour ghosts are dropped
// inline, mirroring the paper's §3 preprocessing.
func (s *Streaming) Add(r cdr.Record) {
	s.set.add(r)
}

// AddAll drains a reader into the accumulator, a batch at a time.
func (s *Streaming) AddAll(r cdr.Reader) error {
	buf := make([]cdr.Record, engineDispatchBatch)
	for {
		n, err := cdr.ReadBatch(r, buf)
		s.set.addBatch(buf[:n])
		if err != nil {
			s.set.flush()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// StreamReport is the Finalize output: the streaming-covered subset of
// Report.
type StreamReport struct {
	// Records counts ghost-free records seen; GhostsDropped the ghosts;
	// OutOfPeriod the ghost-free records excluded for starting outside
	// the study period.
	Records, GhostsDropped int64
	OutOfPeriod            int64

	Presence    DailyPresence
	WeekdayRows []WeekdayRow

	Connected ConnectedTime

	// DaysCount[n] is the number of cars seen on exactly n+1 days.
	DaysCount []int64

	// Segments and Busy are populated only when a load source was
	// provided at construction.
	Segments []Segment
	Busy     BusyTime

	Handovers HandoverStats

	Carriers CarrierUsage

	// FleetUsage and UsageSessions mirror Report.
	FleetUsage    simtime.WeekMatrix
	UsageSessions int64

	// DurMedian and DurP73 are quantiles of the truncated per-cell
	// durations, DurFullMean and DurTruncMean their means (see
	// CellDurations).
	DurMedian, DurP73         float64
	DurFullMean, DurTruncMean float64

	// StageErrors lists stages that failed and were skipped.
	StageErrors []StageError

	// Profile mirrors Report.Profile: the per-stage cost table, present
	// only when the run was observed (RunOptions.Obs).
	Profile []StageProfile
}

// Finalize computes the report. The accumulator remains usable (more
// Adds re-finalize cleanly).
func (s *Streaming) Finalize() StreamReport {
	rep := s.set.finalize()
	out := StreamReport{
		Records:       s.set.raw - s.set.ghosts,
		GhostsDropped: s.set.ghosts,
		OutOfPeriod:   rep.OutOfPeriod,
		Presence:      rep.Presence,
		WeekdayRows:   rep.WeekdayRows,
		Connected:     rep.Connected,
		Segments:      rep.Segments,
		Busy:          rep.Busy,
		Handovers:     rep.Handovers,
		Carriers:      rep.Carriers,
		FleetUsage:    rep.FleetUsage,
		UsageSessions: rep.UsageSessions,
		DurMedian:     rep.Durations.Median,
		DurP73:        rep.Durations.P73,
		DurFullMean:   rep.Durations.FullMean,
		DurTruncMean:  rep.Durations.TruncMean,
		StageErrors:   rep.StageErrors,
		Profile:       rep.Profile,
	}
	if rep.DaysHist != nil {
		out.DaysCount = append([]int64(nil), rep.DaysHist.Counts...)
	} else {
		out.DaysCount = make([]int64, s.set.period.Days())
	}
	return out
}
