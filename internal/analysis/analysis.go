// Package analysis implements the paper's measurement pipeline — the
// primary contribution being reproduced. Every analysis of §4 is an
// accumulator stage over a CDR record stream plus side context (study
// period, per-cell PRB load source, local-time offset), and every stage
// runs in each of:
//
//	Run, NewEngine                 a whole source, with workers and checkpoints
//	NewStreamingWithOptions        one accumulator set the caller feeds itself
//	RestoreStreaming, ReadPartial  state restored from a snapshot, to resume or merge
//
// Each analysis is also a function over a record slice:
//
//	Figure 2 / Table 1  → DailyPresenceOf, Table1
//	Figure 3            → ConnectedTimeOf
//	Figure 4            → ReferenceMatrices
//	Figure 5            → UsageMatrix
//	Figure 6 / Table 2  → DaysOnNetwork, DaysHistogram, Segmentation
//	Figure 7            → BusyTimeOf
//	Figure 8            → CellDay
//	Figure 9            → CellDurationsOf
//	Figure 10           → CellWeek
//	Figure 11           → ClusterBusyCells
//	§4.5                → HandoversOf
//	Table 3             → CarrierUsageOf
//
// (Figure 1 is the load-model saturation experiment; see
// internal/load.Saturate.)
//
// Unless noted otherwise, analyses expect records with the erroneous
// exactly-one-hour ghosts already removed (clean.RemoveGhosts); each
// function documents whether it applies the 600-second truncation
// itself, since the paper reports several distributions both ways.
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
	// classification. Required by BusyTimeOf, Segmentation, CellWeek and
	// ClusterBusyCells; other analyses ignore it.
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
