package analysis

import (
	"cellcars/internal/radio"
	"cellcars/internal/stats"
)

// HandoverStats is §4.5: handover counts within mobility sessions
// (connections concatenated across gaps of up to 10 minutes).
type HandoverStats struct {
	// Sessions is the number of mobility sessions analyzed.
	Sessions int
	// Median, P70, P90 are the per-session handover-count percentiles
	// (paper: 2, 4, 9).
	Median, P70, P90 float64
	// ByKind counts every handover by kind across all sessions; the
	// paper finds inter-base-station dominant and the rest negligible.
	ByKind map[radio.HandoverKind]int64
	// PerSession is the CDF of per-session handover counts.
	PerSession *stats.CDF
}

// InterBSShare returns the fraction of all handovers that cross base
// stations.
func (h HandoverStats) InterBSShare() float64 {
	var total, bs int64
	for kind, c := range h.ByKind {
		total += c
		if kind == radio.HandoverInterBS {
			bs += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bs) / float64(total)
}
