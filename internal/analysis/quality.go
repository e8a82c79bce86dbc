package analysis

import (
	"fmt"
	"sort"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// This file implements the data-quality accounting layer. The paper's
// own data set carries a 3-day partial data-loss window that shows up
// as a dip in Figure 2's daily-presence curve (§3); rather than
// hard-coding that knowledge, we detect coverage gaps from the data
// itself and report them alongside ingest quarantine statistics, so a
// production run of the pipeline documents how dirty its input was.

// CoverageGap flags one study day whose on-network car fraction fell
// far below the period's typical level — the signature of partial
// data loss on the collection side rather than of cars staying home.
type CoverageGap struct {
	// Day is the zero-based day index within the study period.
	Day int
	// Date is the UTC midnight starting the day.
	Date time.Time
	// CarsFrac is the observed fraction of the population seen that
	// day.
	CarsFrac float64
	// Baseline is the period's median daily fraction, for scale.
	Baseline float64
}

// GapThreshold is the default coverage-gap cutoff: a day is flagged
// when its car fraction drops below this multiple of the period
// median. 0.5 separates the paper's data-loss dip (roughly half the
// usual presence) from ordinary weekend variation (~10%).
const GapThreshold = 0.5

// DetectCoverageGaps scans a daily-presence series for days whose car
// fraction falls below threshold×median (threshold <= 0 uses
// GapThreshold). It returns flagged days in order; an empty result
// means coverage looked uniform.
func DetectCoverageGaps(p DailyPresence, period simtime.Period, threshold float64) []CoverageGap {
	if threshold <= 0 {
		threshold = GapThreshold
	}
	if len(p.CarsFrac) == 0 {
		return nil
	}
	sorted := append([]float64(nil), p.CarsFrac...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return nil
	}
	var gaps []CoverageGap
	for d, frac := range p.CarsFrac {
		if frac < threshold*median && d < period.Days() {
			gaps = append(gaps, CoverageGap{
				Day:      d,
				Date:     period.DayStart(d),
				CarsFrac: frac,
				Baseline: median,
			})
		}
	}
	return gaps
}

// DataQuality aggregates everything the pipeline knows about the
// health of one input stream: ingest counters, quarantine breakdown,
// ghost-record removals, detected coverage gaps, and any analysis
// stages that had to be skipped.
type DataQuality struct {
	// RecordsRead counts records accepted by ingest.
	RecordsRead int64
	// GhostsDropped counts the exactly-one-hour erroneous records
	// removed per §3.
	GhostsDropped int64
	// QuarantinedTotal counts records rejected by the resilient
	// ingest layer; Quarantined breaks them down by failure class.
	QuarantinedTotal int64
	Quarantined      map[string]int64
	// Gaps are the detected coverage-loss days.
	Gaps []CoverageGap
	// StageErrors lists analysis stages that failed and were skipped.
	StageErrors []StageError
	// ExcludedShards lists shards a distributed run quarantined after
	// exhausting their attempt budget — data the report does NOT cover.
	ExcludedShards []ExcludedShard
}

// ExcludedShard names one shard of a distributed run that was
// quarantined: every attempt failed, so its cars are absent from the
// merged report. Naming the hole is what makes a degraded run honest.
type ExcludedShard struct {
	// Shard is the car-hash shard index.
	Shard int
	// Attempts is how many times the shard was tried before the
	// coordinator gave up.
	Attempts int
	// LastClass is the final attempt's failure classification (crash,
	// timeout, bad-snapshot).
	LastClass string
	// LastErr is the final attempt's error detail.
	LastErr string
	// Records is the raw record count lost with the shard — observed
	// from a failed attempt's own accounting when available, otherwise
	// estimated from the input size (see Estimated).
	Records int64
	// Estimated is true when Records is an input-size estimate rather
	// than an observed count.
	Estimated bool
}

// NewDataQuality assembles a DataQuality from ingest stats, the
// post-cleaning ghost count, and a presence series (pass a zero
// DailyPresence to skip gap detection).
func NewDataQuality(stats cdr.IngestStats, ghosts int64, p DailyPresence, period simtime.Period) *DataQuality {
	q := &DataQuality{
		RecordsRead:      stats.Read,
		GhostsDropped:    ghosts,
		QuarantinedTotal: stats.QuarantinedTotal(),
		Quarantined:      stats.ByClass(),
	}
	if len(p.CarsFrac) > 0 {
		q.Gaps = DetectCoverageGaps(p, period, 0)
	}
	return q
}

// Summary returns a one-line human rendering, for CLI output.
func (q *DataQuality) Summary() string {
	s := fmt.Sprintf("read %d, ghosts %d, quarantined %d, gap days %d, failed stages %d",
		q.RecordsRead, q.GhostsDropped, q.QuarantinedTotal, len(q.Gaps), len(q.StageErrors))
	if len(q.ExcludedShards) > 0 {
		s += fmt.Sprintf(", excluded shards %d", len(q.ExcludedShards))
	}
	return s
}
