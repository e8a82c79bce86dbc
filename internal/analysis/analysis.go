// Package analysis implements the paper's measurement pipeline — the
// primary contribution being reproduced. Every analysis of §4 is an
// accumulator stage over a CDR record stream plus side context (study
// period, per-cell PRB load source, local-time offset), and every stage
// runs in each of:
//
//	NewEngine                      a whole source, with workers and checkpoints
//	NewStreamingWithOptions        one accumulator set the caller feeds itself
//	RestoreStreaming, ReadPartial  state restored from a snapshot, to resume or merge
//
// Each of these admits records by one rule (Admits): the erroneous
// exactly-one-hour ghosts are dropped and records starting outside the
// study period counted and skipped. A table or figure is then a stage's
// Report field; the figures that draw single cars or cells are
// functions over their records:
//
//	Figure 2 / Table 1  → stage presence     Report.Presence, WeekdayRows
//	Figure 3            → stage connected    Report.Connected
//	Figure 4            → ReferenceMatrices
//	Figure 5            → UsageMatrix over one car's records (RecordsOfCar)
//	Figure 6            → stage days         Report.DaysHist
//	Table 2             → stage segments     Report.Segments
//	Figure 7            → stage busy         Report.Busy
//	Figure 8            → CellDay
//	Figure 9            → stage durations    Report.Durations
//	Figure 10           → CellWeek
//	Figure 11           → stage clusters     Report.Clusters
//	§4.5                → stage handovers    Report.Handovers
//	Table 3             → stage carriers     Report.Carriers
//
// (Figure 1 is the load-model saturation experiment; see
// internal/load.Saturate.) The record functions expect records the
// rule admits; ExhibitPicker picks their cars and cells as the engine
// reads.
package analysis

import (
	"cellcars/internal/cdr"
	"cellcars/internal/load"
	"cellcars/internal/simtime"
)

// Context carries the side information analyses need beyond the CDR
// stream itself.
type Context struct {
	// Period is the study window.
	Period simtime.Period
	// Load is the per-cell PRB utilization source used for busy-cell
	// classification. The segments, busy and clusters stages run only
	// with one, and CellWeek requires it; other analyses ignore it.
	Load load.Source
	// TZOffsetSeconds converts record timestamps to local time for the
	// 24×7 matrices. The paper renders usage matrices "in respective
	// local times".
	TZOffsetSeconds int
}

// forEachRecord iterates records, applying fn.
func forEachRecord(records []cdr.Record, fn func(cdr.Record)) {
	for _, r := range records {
		fn(r)
	}
}

// truncDur caps d at the paper's 600-second limit.
func truncDur(d, limit int64) int64 {
	if d > limit {
		return limit
	}
	return d
}
