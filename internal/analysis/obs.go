package analysis

import (
	"strconv"

	"cellcars/internal/obs"
)

// This file wires the engine into the observability layer
// (internal/obs). One setMetrics per worker accumulator set
// pre-resolves every series it touches, so the hot path costs one
// pointer check when metrics are off and a few atomic adds per batch
// when they are on. Counter and timing series are shared across
// workers (same name and labels resolve to the same metric), which is
// what makes Report.Profile an aggregate over the whole run — and its
// Add timings worker-seconds, to be read beside Report.ProfileWorkers;
// only the shard-balance counter is labeled per worker.
//
// Engine metric names (see DESIGN.md for the full table):
//
//	cellcars_engine_records_total{outcome}   accepted | ghost | out_of_period
//	cellcars_engine_shard_records_total{worker}
//	cellcars_stage_records_total{stage}
//	cellcars_stage_add_seconds{stage}
//	cellcars_stage_merge_seconds{stage}
//	cellcars_stage_finalize_seconds{stage}
type setMetrics struct {
	stageAdd      []*obs.Timing
	stageMerge    []*obs.Timing
	stageFinalize []*obs.Timing
	stageRecs     []*obs.Counter

	accepted    *obs.Counter
	ghosts      *obs.Counter
	outOfPeriod *obs.Counter
	shard       *obs.Counter

	// last* are the set-local values already flushed into the shared
	// counters, so sync adds deltas and rebase (after a merge folds
	// another set's already-counted records in) realigns without
	// double counting.
	lastRaw, lastGhosts, lastOOP, lastAccepted int64
}

// newSetMetrics resolves the engine series for one worker. A nil
// registry returns nil, and every use site checks for that.
func newSetMetrics(reg *obs.Registry, worker int) *setMetrics {
	if reg == nil {
		return nil
	}
	m := &setMetrics{}
	for _, st := range stageTable {
		l := obs.Label{Key: "stage", Value: st.name}
		m.stageAdd = append(m.stageAdd, reg.Timing("cellcars_stage_add_seconds", l))
		m.stageMerge = append(m.stageMerge, reg.Timing("cellcars_stage_merge_seconds", l))
		m.stageFinalize = append(m.stageFinalize, reg.Timing("cellcars_stage_finalize_seconds", l))
		m.stageRecs = append(m.stageRecs, reg.Counter("cellcars_stage_records_total", l))
	}
	m.accepted = reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "accepted"})
	m.ghosts = reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "ghost"})
	m.outOfPeriod = reg.Counter("cellcars_engine_records_total", obs.Label{Key: "outcome", Value: "out_of_period"})
	m.shard = reg.Counter("cellcars_engine_shard_records_total",
		obs.Label{Key: "worker", Value: strconv.Itoa(worker)})
	return m
}

// sync flushes the set's ingest-outcome deltas into the shared
// counters. Called per batch flush and every 1024 raw records, so the
// live /metrics view lags the pipeline by at most one batch.
func (m *setMetrics) sync(s *accumSet) {
	m.accepted.Add(s.accepted - m.lastAccepted)
	m.ghosts.Add(s.ghosts - m.lastGhosts)
	m.outOfPeriod.Add(s.outOfPeriod - m.lastOOP)
	m.shard.Add(s.raw - m.lastRaw)
	m.lastRaw, m.lastGhosts = s.raw, s.ghosts
	m.lastOOP, m.lastAccepted = s.outOfPeriod, s.accepted
}

// rebase realigns the flushed-value watermarks with the set's current
// counters without emitting deltas — called after merge folds another
// set (whose records its own metrics already counted) into this one.
func (m *setMetrics) rebase(s *accumSet) {
	m.lastRaw, m.lastGhosts = s.raw, s.ghosts
	m.lastOOP, m.lastAccepted = s.outOfPeriod, s.accepted
}

// creditRestored folds a snapshot-restored set's counts into the
// shared series, so a resumed run's outcome counters, progress
// percentage and final profile cover the whole logical run rather than
// just the resumed process's share. Stage record counters are credited
// only for stages whose state frame was restored (a failed stage keeps
// no state, a derived one reads no records). Timings are not
// reconstructed — wall time in the profile is always time spent in
// this process. sync leaves the watermarks at the restored values, so
// later flushes emit only new work.
func (m *setMetrics) creditRestored(s *accumSet) {
	if m == nil {
		return
	}
	for i, acc := range s.stages {
		if acc != nil && stageTable[i].over == nil {
			m.stageRecs[i].Add(s.accepted)
		}
	}
	m.sync(s)
}

// profile assembles the per-stage cost table from the shared series.
// Because counter and timing series aggregate across workers, this is
// the whole run's profile regardless of which set builds it.
func (m *setMetrics) profile(s *accumSet) []StageProfile {
	var out []StageProfile
	for i, st := range stageTable {
		recs := m.stageRecs[i].Value()
		batches := m.stageAdd[i].Count()
		if recs == 0 && batches == 0 && s.stages[i] == nil {
			continue
		}
		out = append(out, StageProfile{
			Stage:           st.name,
			Records:         recs,
			Batches:         batches,
			AddSeconds:      m.stageAdd[i].Sum(),
			MergeSeconds:    m.stageMerge[i].Sum(),
			FinalizeSeconds: m.stageFinalize[i].Sum(),
		})
	}
	return out
}
