package analysis

import (
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/stats"
)

// Report bundles every analysis of §4 computed over one data set — the
// output of a full pipeline run.
type Report struct {
	// Presence and WeekdayRows cover Figure 2 and Table 1.
	Presence    DailyPresence
	WeekdayRows []WeekdayRow
	// Connected covers Figure 3.
	Connected ConnectedTime
	// DaysHist covers Figure 6.
	DaysHist *stats.Histogram
	// Segments covers Table 2 (rare thresholds 10 and 30 days).
	Segments []Segment
	// Busy covers Figure 7.
	Busy BusyTime
	// Durations covers Figure 9.
	Durations CellDurations
	// Handovers covers §4.5.
	Handovers HandoverStats
	// Carriers covers Table 3.
	Carriers CarrierUsage
	// FleetUsage is the fleet-wide 24×7 usage matrix (the Figure 5
	// encoding aggregated over the whole population): per local hour of
	// week, the number of aggregate sessions touching it. UsageSessions
	// is the total aggregate-session count.
	FleetUsage    simtime.WeekMatrix
	UsageSessions int64
	// Clusters covers Figure 11; empty when no busy cells were supplied.
	Clusters BusyClusters

	// RawRecords and CleanRecords count the stream before and after
	// ghost removal.
	RawRecords, CleanRecords int
	// OutOfPeriod counts ghost-free records excluded because they start
	// outside the study period. The pipeline's policy is uniform: such
	// records contribute to no analysis (see Engine).
	OutOfPeriod int64

	// StageErrors lists the analysis stages that failed (error or
	// panic) and were skipped; the rest of the report is still valid.
	StageErrors []StageError

	// Profile is the per-stage cost table — wall time and record
	// counts for every stage's Add/Merge/Finalize, aggregated over all
	// workers, in engine stage order. Populated only when the run was
	// observed (RunOptions.Obs non-nil); timings make it
	// non-deterministic, so bit-identity checks must ignore it.
	Profile []StageProfile
	// ProfileWorkers is the number of worker sets whose Add time
	// Profile sums — the worker count the run actually had, which on a
	// resume is the checkpoint's. Set with Profile, zero without it, so
	// reports of unobserved runs stay equal across worker counts.
	ProfileWorkers int
	// ProfileCheckpoints is what the run's checkpoints cost it. Set
	// with Profile, zero without it and for a run that took none.
	ProfileCheckpoints CheckpointProfile
}

// CheckpointProfile sums a run's checkpoint cuts: how many it took,
// how long they kept ingest waiting — per cut, from the barrier going
// out to dispatch resuming; the fsync and rename behind it are not in
// it — and the bytes they made durable.
type CheckpointProfile struct {
	Cuts         int64
	StallSeconds float64
	Bytes        int64
}

// StageProfile is one row of the pipeline cost table (the "Pipeline
// profile" report section, in the spirit of the paper's Table 1
// accounting): where a run spent its time, stage by stage.
type StageProfile struct {
	// Stage is the stable stage name.
	Stage string
	// Records counts records offered to the stage's Add path; on a
	// clean run this equals the engine's accepted-record count for
	// every live stage.
	Records int64
	// Batches counts timed Add batches.
	Batches int64
	// AddSeconds is the time spent in the stage's Add summed across
	// workers — worker-seconds, which under W concurrent workers sum to
	// up to W times the run's elapsed wall time. MergeSeconds and
	// FinalizeSeconds are wall time: both run after the workers stop,
	// the finalize on one goroutine and the merge with the stages side
	// by side, so the stages' merge seconds may overlap.
	AddSeconds, MergeSeconds, FinalizeSeconds float64
}

// WallSeconds returns the stage's share of the run's elapsed time when
// its Add ran on the given number of concurrent workers (Report's
// ProfileWorkers; below 1 counts as 1): Add's worker-seconds divided
// among them, plus the serial merge and finalize.
func (p StageProfile) WallSeconds(workers int) float64 {
	return p.AddSeconds/float64(max(workers, 1)) + p.MergeSeconds + p.FinalizeSeconds
}

// StageError records one skipped analysis stage.
type StageError struct {
	// Stage is the stable stage name (see Run).
	Stage string
	// Err is the rendered failure.
	Err string
}

// Failed returns the error for a named stage, or nil when the stage
// ran cleanly.
func (r *Report) Failed(stage string) *StageError {
	for i := range r.StageErrors {
		if r.StageErrors[i].Stage == stage {
			return &r.StageErrors[i]
		}
	}
	return nil
}

// RunOptions tunes a full pipeline run.
type RunOptions struct {
	// RareDays are the Table 2 thresholds. Defaults to {10, 30}.
	RareDays []int
	// BusyCells is the Figure 11 clustering population (cells whose
	// average weekly UPRB is at least 70%); clustering is skipped when
	// empty.
	BusyCells []radio.CellKey
	// Seed drives k-means++ initialization. Default 1.
	Seed uint64
	// FailStage, when non-empty, makes the named stage fail
	// artificially — a chaos hook proving that one broken analysis
	// degrades to a diagnostic instead of killing the run. Stage
	// names: presence, connected, days, segments, busy, durations,
	// handovers, carriers, usage, clusters. Days, segments and busy are
	// drawn from presence's per-car facts and fail with it.
	FailStage string
	// Workers is the parallel shard count; zero (or less) is auto, one
	// per CPU up to a cap (see EngineOptions). The report is identical
	// for any worker count on the exact stages.
	Workers int
	// Obs, when non-nil, receives pipeline metrics — per-stage wall
	// time and record counts, ingest outcome counters, shard balance,
	// checkpoint costs — and enables Report.Profile. Nil turns the
	// observability layer off at zero cost.
	Obs *obs.Registry
	// TrackHeads makes the session stages (handovers, usage) stash
	// each car's first closed session instead of accounting it
	// immediately, so time-adjacent accumulator slices can be stitched
	// back together exactly with Streaming.MergeOrdered. Plain Merge
	// and Finalize still account the stashed heads, so a TrackHeads
	// run finalized alone produces the ordinary report. Only the
	// time-bucketed query service needs this; batch runs leave it off.
	TrackHeads bool
}

// withDefaults fills the options every way of building an accumulator
// set — NewEngine, NewStreamingWithOptions, ReadPartial — defaults the
// same way, so all three write the same SnapshotHeader for the same
// options.
func (o RunOptions) withDefaults() RunOptions {
	if o.RareDays == nil {
		o.RareDays = []int{10, 30}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Run executes the complete measurement pipeline over a raw record
// stream: ghost removal (§3), then every analysis in §4. The input
// slice is not modified. Run is a thin adapter over Engine — one
// accumulator set per worker shard, merged into the report — so batch,
// streaming and parallel execution share a single implementation of
// every stage.
//
// Each analysis stage runs isolated: a stage that returns an error or
// panics is recorded in Report.StageErrors and skipped, and every
// other table and figure is still produced. Run itself only returns
// an error when the input stream cannot be read at all.
func Run(records []cdr.Record, ctx Context, opts RunOptions) (*Report, error) {
	return NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: opts.Workers}).Run(records)
}
