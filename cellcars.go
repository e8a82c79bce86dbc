// Package cellcars is a toolkit for studying connected-car behaviour
// in cellular networks, reproducing the measurement pipeline of
// "Connected cars in cellular network: A measurement study"
// (Andrade et al., IMC 2017).
//
// The package has two halves:
//
//   - A measurement pipeline (cleaning, sessionization, and every
//     analysis of the paper's §4) that consumes Call Detail Records —
//     radio-level connection logs — plus a per-cell PRB-utilization
//     source. Point it at real CDRs and counters if you have them.
//
//   - A calibrated synthetic data generator (geography, radio
//     topology, PRB load model, car fleet, mobility, RRC connection
//     model, fault injection) standing in for the paper's closed
//     production data set.
//
// This root package re-exports the stable public surface; the
// subsystem implementations live under internal/. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for paper-vs-measured
// results.
//
// # Quick start
//
//	scene := cellcars.NewScene(cellcars.DefaultSceneConfig(2000))
//	records, _, err := scene.GenerateAll()
//	if err != nil { ... }
//	report, err := cellcars.Analyze(records, cellcars.AnalysisContext(scene), cellcars.AnalyzeOptions{
//		BusyCells: scene.Load.VeryBusyCells(),
//	})
package cellcars

import (
	"io"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/fleet"
	"cellcars/internal/load"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
	"cellcars/internal/synth"
)

// Core record and identity types.
type (
	// Record is one radio-level connection event (one CDR row).
	Record = cdr.Record
	// CarID is an anonymized car identifier.
	CarID = cdr.CarID
	// CellKey identifies one cell: (base station, sector, carrier).
	CellKey = radio.CellKey
	// CarrierID names one of the five carriers C1–C5.
	CarrierID = radio.CarrierID
	// HandoverKind classifies a transition between consecutive cells.
	HandoverKind = radio.HandoverKind
	// Period is a fixed study window.
	Period = simtime.Period
	// WeekMatrix is a 24×7 hour-of-week accumulation matrix (Fig 4/5).
	WeekMatrix = simtime.WeekMatrix
)

// Streaming CDR I/O.
type (
	// Reader streams CDR records; Read returns io.EOF at the end.
	Reader = cdr.Reader
	// Writer consumes CDR records.
	Writer = cdr.Writer
)

// Scene generation.
type (
	// SceneConfig parameterizes the synthetic world and generator.
	SceneConfig = synth.Config
	// Scene is an assembled synthetic world (network, load, fleet).
	Scene = synth.World
	// GenStats summarizes a generation run.
	GenStats = synth.Stats
	// Car is one vehicle of the synthetic fleet.
	Car = fleet.Car
)

// Analysis.
type (
	// Context carries the study period, load source and timezone into
	// analyses.
	Context = analysis.Context
	// Report bundles every §4 analysis over one data set.
	Report = analysis.Report
	// AnalyzeOptions tunes a full pipeline run.
	AnalyzeOptions = analysis.RunOptions
	// LoadSource provides per-cell PRB utilization per 15-minute bin.
	LoadSource = load.Source
	// LoadModel is the synthetic PRB utilization model.
	LoadModel = load.Model
)

// Preprocessing constants from the paper (§3).
const (
	// GhostDuration marks erroneous exactly-one-hour records.
	GhostDuration = clean.GhostDuration
	// TruncateLimit caps per-cell connection durations (600 s).
	TruncateLimit = clean.TruncateLimit
	// AggregateGap concatenates connections into aggregate sessions (30 s).
	AggregateGap = clean.AggregateGap
	// MobilityGap concatenates connections into mobility sessions (10 min).
	MobilityGap = clean.MobilityGap
)

// DefaultSceneConfig returns the calibrated generator configuration
// for a fleet of the given size over the paper's 90-day window.
func DefaultSceneConfig(numCars int) SceneConfig {
	return synth.DefaultConfig(numCars)
}

// NewScene assembles a synthetic world from the config. Construction
// and generation are fully deterministic in cfg.Seed.
func NewScene(cfg SceneConfig) *Scene {
	return synth.NewWorld(cfg)
}

// AnalysisContext builds the analysis context matching a scene: its
// study period, PRB load model, and the fleet's local-time offset.
func AnalysisContext(s *Scene) Context {
	tz := -5 * 3600
	if len(s.Cars) > 0 {
		tz = s.Cars[0].TZOffsetSeconds
	}
	return Context{Period: s.Config.Period, Load: s.Load, TZOffsetSeconds: tz}
}

// Analyze runs the complete measurement pipeline (§3 cleaning plus
// every §4 analysis) over a raw record stream. It is a thin adapter
// over the sharded accumulator engine: set AnalyzeOptions.Workers to
// parallelize (the report is bit-identical for any worker count).
func Analyze(records []Record, ctx Context, opts AnalyzeOptions) (*Report, error) {
	return analysis.Run(records, ctx, opts)
}

// The sharded analysis engine: every §4 analysis expressed as a
// mergeable accumulator, run over car-disjoint shards in parallel.
type (
	// Engine shards records by car across workers and merges the
	// per-shard partial results into one Report.
	Engine = analysis.Engine
	// EngineOptions extends AnalyzeOptions with the worker count.
	EngineOptions = analysis.EngineOptions
)

// NewEngine builds a sharded analysis engine. Workers <= 1 runs
// sequentially; any worker count yields a bit-identical Report.
func NewEngine(ctx Context, opts EngineOptions) *Engine {
	return analysis.NewEngine(ctx, opts)
}

// Streaming analysis for data sets too large for memory.
type (
	// StreamingAnalyzer is a single-pass bounded-memory accumulator for
	// the record-level analyses.
	StreamingAnalyzer = analysis.Streaming
	// StreamReport is its Finalize output.
	StreamReport = analysis.StreamReport
)

// NewStreaming returns an empty streaming accumulator over the period.
func NewStreaming(period Period) *StreamingAnalyzer {
	return analysis.NewStreaming(period)
}

// NewStreamingWithContext returns a streaming accumulator with a full
// analysis context; with a load source it additionally covers the
// busy-cell analyses (Table 2, Figure 7).
func NewStreamingWithContext(ctx Context) *StreamingAnalyzer {
	return analysis.NewStreamingWithContext(ctx)
}

// NewStreamingWithOptions additionally pins the analysis options
// (seed, rare-day thresholds) — required when the resulting state will
// be snapshotted and merged with partials from other shards, since
// snapshots are only mergeable under identical options.
func NewStreamingWithOptions(ctx Context, opts AnalyzeOptions) *StreamingAnalyzer {
	return analysis.NewStreamingWithOptions(ctx, opts)
}

// Durable and distributed analysis: every accumulator serializes its
// partial state into a versioned snapshot (internal/snapshot codec),
// enabling crash-resumable runs and map-reduce over car-disjoint
// shards. See DESIGN.md, "Snapshots".
type (
	// Partial is restored mid-run analysis state: mergeable with other
	// partials from the same study, finalizable into a Report.
	Partial = analysis.Partial
	// SnapshotHeader is the study configuration and progress watermark
	// stored in every snapshot.
	SnapshotHeader = analysis.SnapshotHeader
	// CheckpointConfig configures periodic state snapshots of a run.
	CheckpointConfig = analysis.CheckpointConfig
)

// ErrCheckpointStop reports that a checkpointed run stopped on its
// trigger after saving state, rather than reaching end of input.
var ErrCheckpointStop = analysis.ErrCheckpointStop

// ErrBadSnapshot is wrapped by every snapshot decode failure:
// truncation, corruption, version or configuration mismatch.
var ErrBadSnapshot = snapshot.ErrBadSnapshot

// ReadPartial restores partial analysis state from a snapshot stream.
func ReadPartial(r io.Reader) (*Partial, error) { return analysis.ReadPartial(r) }

// ReadPartialFile restores partial analysis state from a snapshot file.
func ReadPartialFile(path string) (*Partial, error) { return analysis.ReadPartialFile(path) }

// RestoreStreaming restores a streaming accumulator from a checkpoint
// stream written under the same context and options; the caller must
// skip the input past the restored Watermark (SkipRecords) before
// adding more.
func RestoreStreaming(ctx Context, opts AnalyzeOptions, r io.Reader) (*StreamingAnalyzer, error) {
	return analysis.RestoreStreaming(ctx, opts, r)
}

// SkipRecords advances a reader past n records — the resume seek.
func SkipRecords(r Reader, n int64) error { return cdr.Skip(r, n) }

// The always-on query service (cmd/carqueryd): continuous ingest into
// time-bucketed accumulator sets, rolling-window reports served over
// HTTP/JSON, cached per (endpoint, window), durable via rotated
// consistent cuts. A served window report is bit-identical to a batch
// Analyze/Streaming run over the same records. See DESIGN.md §8.
type (
	// QueryStore buckets ingested records and folds rolling windows.
	QueryStore = query.Store
	// QueryConfig configures the store: study context, bucket width,
	// windows, snapshot directory, metrics registry.
	QueryConfig = query.Config
	// QueryWindow names one rolling window span.
	QueryWindow = query.Window
	// QueryServer is the HTTP face of a QueryStore.
	QueryServer = query.Server
	// SnapshotDir is a directory of rotated, atomically-written
	// snapshot cuts with torn-cut-skipping restore.
	SnapshotDir = snapshot.Dir
)

// NewQueryStore builds a query store; it validates that the bucket
// width divides the study period and every window is a whole number of
// buckets.
func NewQueryStore(cfg QueryConfig) (*QueryStore, error) { return query.New(cfg) }

// NewQueryServer mounts a store's HTTP surface: /report/<endpoint>,
// /windows, /stats, /healthz, /readyz, plus /metrics and /debug when
// reg is non-nil.
func NewQueryServer(store *QueryStore, reg *MetricsRegistry) *QueryServer {
	return query.NewServer(store, reg)
}

// DefaultQueryWindows returns the 24h/7d/90d rolling windows.
func DefaultQueryWindows() []QueryWindow { return query.DefaultWindows() }

// MarshalStreamReport renders a report exactly as the query service's
// /report/full endpoint (and caranalyze -json) serves it, making
// served and batch answers comparable byte for byte.
func MarshalStreamReport(rep *StreamReport) ([]byte, error) { return query.MarshalReport(rep) }

// MetricsRegistry is the stdlib-only labeled metrics registry behind
// the CLIs' -debug-addr and the query service's /metrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// ShardOfCar maps a car to one of n shards; partials over car-disjoint
// shards merge into exactly the single-process result.
func ShardOfCar(car CarID, n int) int { return cdr.ShardOfCar(car, n) }

// DefaultPeriod returns the 90-day study window used throughout the
// reproduction.
func DefaultPeriod() Period { return simtime.DefaultPeriod() }

// NewPeriod returns a study window of the given number of days
// starting at midnight UTC on the day containing start.
func NewPeriod(start time.Time, days int) Period { return simtime.NewPeriod(start, days) }

// NewSliceReader streams records from an in-memory slice.
func NewSliceReader(records []Record) Reader { return cdr.NewSliceReader(records) }

// Micro-level analysis results (Figures 8, 10, 11).
type (
	// CellDayResult is Figure 8: one cell's connections over 24 hours.
	CellDayResult = analysis.CellDayResult
	// CellWeekResult is Figure 10: concurrency vs load over one week.
	CellWeekResult = analysis.CellWeekResult
	// BusyClusters is Figure 11: k-means clusters over busy cells.
	BusyClusters = analysis.BusyClusters
)

// CellDay computes Figure 8 for one cell and study day.
func CellDay(records []Record, ctx Context, cell CellKey, day int) CellDayResult {
	return analysis.CellDay(records, ctx, cell, day)
}

// CellWeek computes Figure 10 for one cell and Monday-aligned week.
func CellWeek(records []Record, ctx Context, cell CellKey, week int) CellWeekResult {
	return analysis.CellWeek(records, ctx, cell, week)
}

// BusiestCellDay finds the (cell, day) with the most distinct cars — a
// natural Figure 8 exhibit.
func BusiestCellDay(records []Record, ctx Context) (CellKey, int) {
	return analysis.BusiestCellDay(records, ctx)
}

// UsageMatrix builds one car's 24×7 session matrix (Figure 5).
func UsageMatrix(records []Record, ctx Context) WeekMatrix {
	return analysis.UsageMatrix(records, ctx)
}

// RecordsOfCar extracts one car's records from a stream.
func RecordsOfCar(records []Record, car CarID) []Record {
	return analysis.RecordsOfCar(records, car)
}

// Clean applies the paper's standard §3 preprocessing chain (ghost
// removal, then 600-second truncation) to a record stream.
func Clean(r Reader) Reader { return clean.Standard(r) }

// RemoveGhosts filters out the erroneous exactly-one-hour records.
func RemoveGhosts(r Reader) Reader { return clean.RemoveGhosts(r) }

// ReadAll drains a reader into memory.
func ReadAll(r Reader) ([]Record, error) { return cdr.ReadAll(r) }

// SortRecords orders records by (start, car, cell).
func SortRecords(records []Record) { cdr.Sort(records) }
