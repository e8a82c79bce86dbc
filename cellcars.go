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
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/load"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
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
	// Period is a fixed study window.
	Period = simtime.Period
)

// Reader streams CDR records; Read returns io.EOF at the end.
type Reader = cdr.Reader

// Scene generation.
type (
	// SceneConfig parameterizes the synthetic world and generator.
	SceneConfig = synth.Config
	// Scene is an assembled synthetic world (network, load, fleet).
	Scene = synth.World
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
// over the sharded accumulator engine, parallel by default:
// AnalyzeOptions.Workers 0 is one worker per CPU, at most 8, and any
// other count is taken as given (the report is bit-identical for any
// worker count).
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

// NewEngine builds a sharded analysis engine. Workers 0 is auto — one
// worker per CPU, at most 8, and on resume the count the checkpoint was
// cut with; Workers 1 runs one shard; any worker count yields a
// bit-identical Report.
func NewEngine(ctx Context, opts EngineOptions) *Engine {
	return analysis.NewEngine(ctx, opts)
}

// ShardOfCar maps a car to one of n shards; partials over car-disjoint
// shards merge into exactly the single-process result.
func ShardOfCar(car CarID, n int) int { return cdr.ShardOfCar(car, n) }

// NewPeriod returns a study window of the given number of days
// starting at midnight UTC on the day containing start.
func NewPeriod(start time.Time, days int) Period { return simtime.NewPeriod(start, days) }

// NewSliceReader streams records from an in-memory slice.
func NewSliceReader(records []Record) Reader { return cdr.NewSliceReader(records) }

// Micro-level analysis results (Figures 10, 11).
type (
	// CellWeekResult is Figure 10: concurrency vs load over one week.
	CellWeekResult = analysis.CellWeekResult
	// BusyClusters is Figure 11: k-means clusters over busy cells.
	BusyClusters = analysis.BusyClusters
)

// CellWeek computes Figure 10 for one cell and Monday-aligned week.
func CellWeek(records []Record, ctx Context, cell CellKey, week int) CellWeekResult {
	return analysis.CellWeek(records, ctx, cell, week)
}

// RemoveGhosts filters out the erroneous exactly-one-hour records.
func RemoveGhosts(r Reader) Reader { return clean.RemoveGhosts(r) }

// ReadAll drains a reader into memory.
func ReadAll(r Reader) ([]Record, error) { return cdr.ReadAll(r) }

// FormatTable1 renders a report's Table 1 (per-weekday presence).
func FormatTable1(r *Report) string { return analysis.FormatTable1(r.WeekdayRows) }

// FormatTable2 renders a report's Table 2 (car segmentation).
func FormatTable2(r *Report) string { return analysis.FormatTable2(r.Segments) }

// FormatTable3 renders a report's Table 3 (carrier usage).
func FormatTable3(r *Report) string { return analysis.FormatTable3(r.Carriers) }
