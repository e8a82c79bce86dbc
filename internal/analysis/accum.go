package analysis

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/stats"
)

// This file is the single implementation of every per-record analysis
// stage, expressed as mergeable accumulators. The pull path (Engine,
// one worker or many) and the push path (Streaming) are thin drivers
// over the same accumulators, so the stage arithmetic exists exactly
// once.
//
// The mergeability contract: workers feed car-disjoint shards of the
// record stream (cdr.ShardOfCar), each worker owns a full accumulator
// set, and partials combine with Merge. Because no car's state is
// ever split across shards, merging is a union of disjoint per-car
// state plus integer count addition — results are bit-identical
// regardless of worker count.

// Accumulator is one paper stage as a mergeable aggregation:
// Add observes a batch of records, Merge folds in a same-stage accumulator fed
// from a car-disjoint shard, and Finalize writes the stage's results
// into the report. Finalize must be non-destructive: accumulators can
// keep absorbing records and finalize again.
//
// Cars reach a stage as numbers of its owner's carTable, looked up once
// per record as the batch's other facts are worked out, and every
// per-car stage keeps its state in columns indexed by that number.
type Accumulator interface {
	// Stage returns the stable stage name (see RunOptions.FailStage).
	Stage() string
	// Add observes a batch of ghost-free records, in order. It keeps no
	// reference to the batch, which its owner refills.
	Add(b *batch)
	// Merge folds another accumulator of the same stage into the
	// receiver. The other accumulator must have been fed a
	// car-disjoint shard; its car j is the receiver's car remap[j]. It
	// is left as it was: the receiver copies what it keeps of it and
	// never aliases its memory.
	Merge(o Accumulator, remap []int32)
	// Finalize computes the stage's results into rep.
	Finalize(rep *Report) error
	// SnapshotTo serializes the accumulator's partial state — enough
	// to resume Adds or Merge on another machine. Snapshots are
	// deterministic: equal state encodes to equal bytes.
	SnapshotTo(w io.Writer) error
	// RestoreFrom replaces the accumulator's state with a snapshot
	// written by SnapshotTo on an accumulator of the same stage and
	// configuration. Corrupt input is reported as an error wrapping
	// snapshot.ErrBadSnapshot; the receiver is unspecified afterwards.
	RestoreFrom(r io.Reader) error
}

// batch is what a stage's Add observes: records, and the facts about
// each that more than one stage needs, worked out once by whoever built
// the batch. Fact k is recs[k]'s.
type batch struct {
	recs []cdr.Record
	// cars holds car numbers of the stages' carTable.
	cars []int32
	// days holds study days (simtime.Period.DayIndex). The sets admit no
	// record starting outside the study period, so -1, such a start's
	// day, occurs only in the batches the tests' stage harness (feed)
	// builds.
	days []int32
	// starts holds Start.UnixNano().
	starts []int64
}

// push appends r, of car number car and study day day.
func (b *batch) push(r cdr.Record, car int32, day int) {
	b.recs = append(b.recs, r)
	b.cars = append(b.cars, car)
	b.days = append(b.days, int32(day))
	b.starts = append(b.starts, r.Start.UnixNano())
}

func (b *batch) reset() {
	b.recs, b.cars, b.days, b.starts = b.recs[:0], b.cars[:0], b.days[:0], b.starts[:0]
}

// mergeAs asserts o to the receiver's concrete type; a mismatch is an
// engine bug, not a data condition.
func mergeAs[T Accumulator](o Accumulator) T {
	t, ok := o.(T)
	if !ok {
		panic(fmt.Sprintf("analysis: merging %T into %T", o, t))
	}
	return t
}

// daysBits is a variable-length day bitmap.
type daysBits struct {
	bits []uint64
}

func (d *daysBits) set(day int) bool {
	w, b := day/64, uint(day%64)
	for len(d.bits) <= w {
		d.bits = append(d.bits, 0)
	}
	if d.bits[w]&(1<<b) != 0 {
		return false
	}
	d.bits[w] |= 1 << b
	return true
}

func (d *daysBits) count() int {
	n := 0
	for _, w := range d.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// or unions another bitmap into d.
func (d *daysBits) or(o *daysBits) {
	for len(d.bits) < len(o.bits) {
		d.bits = append(d.bits, 0)
	}
	for i, w := range o.bits {
		d.bits[i] |= w
	}
}

// forEach calls fn for every set day, ascending.
func (d *daysBits) forEach(fn func(day int)) {
	for w, word := range d.bits {
		for ; word != 0; word &= word - 1 {
			fn(w*64 + bits.TrailingZeros64(word))
		}
	}
}

// tally counts how often each small non-negative integer occurred:
// t[v] is v's count. Every integer count a stage keeps is one — Figure
// 9's seconds, §4.5's handovers per session and by kind, the usage
// stage's hours of the week — so they all add, merge by addition, encode
// as one sparse frame and become a CDF the same way.
type tally []int64

// add counts v another c times.
func (t *tally) add(v int, c int64) {
	if v >= len(*t) {
		*t = append(*t, make([]int64, v+1-len(*t))...)
	}
	(*t)[v] += c
}

// merge adds o's counts to t's.
func (t *tally) merge(o tally) {
	for v, c := range o {
		t.add(v, c)
	}
}

// sum returns how many values were counted.
func (t tally) sum() (n int64) {
	for _, c := range t {
		n += c
	}
	return n
}

// cdf returns the distribution of the counted values.
func (t tally) cdf() *stats.CDF {
	values := make([]float64, len(t))
	for v := range values {
		values[v] = float64(v)
	}
	return stats.NewCDFCounts(values, t)
}

// carTable numbers the cars an accumulator set has seen. The set looks
// each accepted record's car up here once and hands the stages its
// number; every per-car stage keeps its state in a column indexed by it.
// Numbers are dense, never reused, and given in the order cars arrive,
// so nothing but an encoder cares for car order: a cut sorts the
// numbers once per set (sorted), and every stage writes its cars in
// that order.
type carTable struct {
	idx map[cdr.CarID]int32
	ids []cdr.CarID // ids[i] is car number i
	// order is sorted's result while it covers every car; encodeSet
	// drops it once the cut is written.
	order []int32
}

// intern returns car's number, giving it the next one if it has none.
func (t *carTable) intern(car cdr.CarID) int32 {
	if i, ok := t.idx[car]; ok {
		return i
	}
	if t.idx == nil {
		t.idx = make(map[cdr.CarID]int32)
	}
	i := int32(len(t.ids))
	t.idx[car] = i
	t.ids = append(t.ids, car)
	return i
}

// remap interns o's cars and returns their numbers here, indexed by
// their numbers in o: the one lookup per car a set merge makes, for
// every stage to share.
func (t *carTable) remap(o *carTable) []int32 {
	m := make([]int32, len(o.ids))
	for j, car := range o.ids {
		m[j] = t.intern(car)
	}
	return m
}

// sorted returns every car's number, ascending by car id.
func (t *carTable) sorted() []int32 {
	if len(t.order) != len(t.ids) {
		t.order = make([]int32, len(t.ids))
		for i := range t.order {
			t.order[i] = int32(i)
		}
		slices.SortFunc(t.order, func(a, b int32) int { return cmp.Compare(t.ids[a], t.ids[b]) })
	}
	return t.order
}

// column is one stage's per-car state, indexed by car number. It holds
// exactly the cars the stage has state for — a stage need not hold
// every car of the table (presence's day bitmaps only cars seen on a
// study day, its busy split only cars with binned time, usage only cars
// with an open session) — and marks which.
type column[T any] struct {
	v    []T
	held []uint64 // bit i: car i is held
	n    int      // how many cars are held
}

func (c *column[T]) has(i int32) bool {
	w := int(i >> 6)
	return w < len(c.held) && c.held[w]&(1<<(i&63)) != 0
}

// at returns car i's state, holding the car from now on; had reports
// whether it was held already. A car taken up starts at T's zero value.
func (c *column[T]) at(i int32) (v *T, had bool) {
	// One zero at a time: numbers arrive nearly in order, and appending
	// a made slice allocates it first under -race.
	for int(i) >= len(c.v) {
		var zero T
		c.v = append(c.v, zero)
	}
	w, bit := int(i>>6), uint64(1)<<(i&63)
	for w >= len(c.held) {
		c.held = append(c.held, 0)
	}
	had = c.held[w]&bit != 0
	if !had {
		c.held[w] |= bit
		c.n++
	}
	return &c.v[i], had
}

func (c *column[T]) get(i int32) (T, bool) {
	if !c.has(i) {
		var zero T
		return zero, false
	}
	return c.v[i], true
}

func (c *column[T]) put(i int32, v T) {
	p, _ := c.at(i)
	*p = v
}

// take returns car i's state and lets the car go.
func (c *column[T]) take(i int32) (T, bool) {
	v, ok := c.get(i)
	if ok {
		var zero T
		c.v[i] = zero
		c.held[i>>6] &^= 1 << (i & 63)
		c.n--
	}
	return v, ok
}

// each calls fn for every car held, by number.
func (c *column[T]) each(fn func(i int32, v T)) {
	for w, word := range c.held {
		for ; word != 0; word &= word - 1 {
			i := int32(w*64 + bits.TrailingZeros64(word))
			fn(i, c.v[i])
		}
	}
}

// ---------------------------------------------------------------------------
// presence — Figure 2 / Table 1, and the per-car facts of Figures 6 and 7
// and Table 2

// busyTime is one car's binned connected time and the part of it in busy
// cells.
type busyTime struct{ busy, total time.Duration }

// presenceAcc keeps the set's per-car facts: the study days each car was
// seen on and, with a load source, how its binned connected time splits
// busy vs total. No other stage keeps either: days, segments and busy are
// finalizers over them (derived).
type presenceAcc struct {
	ctx      Context
	cars     *carTable
	carDays  column[daysBits]
	cellDays map[radio.CellKey]*daysBits
	// split holds the cars with binned time: Add takes a car up only once
	// a record of it overlaps a bin, and only with a load source.
	split column[busyTime]
}

func newPresenceAcc(ctx Context, cars *carTable) *presenceAcc {
	return &presenceAcc{
		ctx:      ctx,
		cars:     cars,
		cellDays: make(map[radio.CellKey]*daysBits),
	}
}

func (a *presenceAcc) Stage() string { return "presence" }

func (a *presenceAcc) Add(b *batch) {
	for k, day := range b.days {
		if a.ctx.Load != nil {
			if busy, total := busyOverlap(a.ctx, b.recs[k]); total > 0 {
				t, _ := a.split.at(b.cars[k])
				t.busy += busy
				t.total += total
			}
		}
		if day < 0 {
			continue
		}
		db, _ := a.carDays.at(b.cars[k])
		db.set(int(day))
		cell := b.recs[k].Cell
		cb := a.cellDays[cell]
		if cb == nil {
			cb = &daysBits{}
			a.cellDays[cell] = cb
		}
		cb.set(int(day))
	}
}

// busyOverlap apportions one record's connected time across the
// 15-minute bins it overlaps and splits it into busy vs total using
// the context's load source.
func busyOverlap(ctx Context, r cdr.Record) (busy, total time.Duration) {
	thresh := ctx.Load.BusyThreshold()
	first, last := ctx.Period.BinRange(r.Start, r.Duration)
	for bin := first; bin < last; bin++ {
		overlap := ctx.Period.OverlapWithBin(bin, r.Start, r.Duration)
		if overlap <= 0 {
			continue
		}
		total += overlap
		if ctx.Load.Utilization(r.Cell, bin) > thresh {
			busy += overlap
		}
	}
	return busy, total
}

func (a *presenceAcc) Merge(other Accumulator, remap []int32) {
	o := mergeAs[*presenceAcc](other)
	o.carDays.each(func(j int32, db daysBits) {
		own, _ := a.carDays.at(remap[j])
		own.or(&db)
	})
	for cell, db := range o.cellDays {
		own := a.cellDays[cell]
		if own == nil {
			own = &daysBits{}
			a.cellDays[cell] = own
		}
		own.or(db)
	}
	o.split.each(func(j int32, ot busyTime) {
		t, _ := a.split.at(remap[j])
		t.busy += ot.busy
		t.total += ot.total
	})
}

func (a *presenceAcc) Finalize(rep *Report) error {
	days := a.ctx.Period.Days()
	carsPerDay := make([]int, days)
	a.carDays.each(func(_ int32, db daysBits) {
		db.forEach(func(day int) { carsPerDay[day]++ })
	})
	cellsPerDay := make([]int, days)
	for _, db := range a.cellDays {
		db.forEach(func(day int) { cellsPerDay[day]++ })
	}

	p := DailyPresence{
		TotalCars:  a.carDays.n,
		TotalCells: len(a.cellDays),
		CarsFrac:   make([]float64, days),
		CellsFrac:  make([]float64, days),
	}
	xs := make([]float64, days)
	for d := 0; d < days; d++ {
		xs[d] = float64(d)
		if p.TotalCars > 0 {
			p.CarsFrac[d] = float64(carsPerDay[d]) / float64(p.TotalCars)
		}
		if p.TotalCells > 0 {
			p.CellsFrac[d] = float64(cellsPerDay[d]) / float64(p.TotalCells)
		}
	}
	p.CarsTrend = stats.Fit(xs, p.CarsFrac)
	p.CellsTrend = stats.Fit(xs, p.CellsFrac)
	rep.Presence = p
	rep.WeekdayRows = Table1(p, a.ctx.Period)
	return nil
}

// ---------------------------------------------------------------------------
// connected — Figure 3

// connSec is one car's connected seconds, as recorded and with each
// record truncated to 600 s.
type connSec struct{ full, trunc int64 }

type connectedAcc struct {
	period simtime.Period
	cars   *carTable
	secs   column[connSec]
}

func newConnectedAcc(period simtime.Period, cars *carTable) *connectedAcc {
	return &connectedAcc{period: period, cars: cars}
}

func (a *connectedAcc) Stage() string { return "connected" }

func (a *connectedAcc) Add(b *batch) {
	for k := range b.recs {
		sec := int64(b.recs[k].Duration / time.Second)
		c, _ := a.secs.at(b.cars[k])
		c.full += sec
		c.trunc += truncDur(sec, 600)
	}
}

func (a *connectedAcc) Merge(other Accumulator, remap []int32) {
	o := mergeAs[*connectedAcc](other)
	o.secs.each(func(j int32, oc connSec) {
		c, _ := a.secs.at(remap[j])
		c.full += oc.full
		c.trunc += oc.trunc
	})
}

func (a *connectedAcc) Finalize(rep *Report) error {
	total := float64(a.period.Seconds())
	full := make([]float64, 0, a.secs.n)
	trunc := make([]float64, 0, a.secs.n)
	a.secs.each(func(_ int32, c connSec) {
		full = append(full, float64(c.full)/total)
		trunc = append(trunc, float64(c.trunc)/total)
	})
	ct := ConnectedTime{Full: stats.NewCDF(full), Truncated: stats.NewCDF(trunc)}
	if len(full) > 0 {
		ct.FullMean = ct.Full.Mean()
		ct.TruncMean = ct.Truncated.Mean()
		ct.FullP995 = ct.Full.Quantile(0.995)
		ct.TruncP995 = ct.Truncated.Quantile(0.995)
	}
	rep.Connected = ct
	return nil
}

// ---------------------------------------------------------------------------
// days, segments, busy — Figure 6, Table 2, Figure 7: finalizers over
// presence's per-car facts

// derived is what a stage that keeps no state of its own embeds: its
// set's presence accumulator, whose per-car facts it finalizes, and an
// Accumulator half with nothing to do. Its set builds it over presence
// (stageSpec.over), never feeds, merges or frames it, and fails it with
// presence (accumSet.fail).
type derived struct{ p *presenceAcc }

func (d derived) input() Accumulator        { return d.p }
func (derived) Add(*batch)                  {}
func (derived) Merge(Accumulator, []int32)  {}
func (derived) SnapshotTo(io.Writer) error  { return nil }
func (derived) RestoreFrom(io.Reader) error { return nil }

// daysStage is Figure 6: how many study days each car was seen on.
type daysStage struct{ derived }

func (daysStage) Stage() string { return "days" }

func (a daysStage) Finalize(rep *Report) error {
	h := stats.NewHistogram(0.5, 1, a.p.ctx.Period.Days())
	a.p.carDays.each(func(_ int32, db daysBits) { h.Add(float64(db.count())) })
	rep.DaysHist = h
	return nil
}

// segmentsStage is Table 2: each car seen on a study day, by how many
// days and by how its binned time splits.
type segmentsStage struct {
	derived
	rareDays []int
}

func (segmentsStage) Stage() string { return "segments" }

func (a segmentsStage) Finalize(rep *Report) error {
	// The population is cars seen on at least one study day, the Figure 6
	// universe; one without binned time is unclassified.
	n := float64(a.p.carDays.n)
	out := make([]Segment, 0, len(a.rareDays))
	for _, rd := range a.rareDays {
		seg := Segment{RareDays: rd}
		a.p.carDays.each(func(i int32, db daysBits) {
			f := 0.0
			t, classified := a.p.split.get(i)
			if classified {
				f = float64(t.busy) / float64(t.total)
			}
			var bucket *float64
			rare := db.count() <= rd
			switch {
			case classified && f >= BusyCarMinFrac:
				if rare {
					bucket = &seg.RareBusy
				} else {
					bucket = &seg.CommonBusy
				}
			case !classified || f <= NonBusyCarMaxFrac:
				if rare {
					bucket = &seg.RareNonBusy
				} else {
					bucket = &seg.CommonNonBusy
				}
			default:
				if rare {
					bucket = &seg.RareBoth
				} else {
					bucket = &seg.CommonBoth
				}
			}
			*bucket += 1 / n
		})
		out = append(out, seg)
	}
	rep.Segments = out
	return nil
}

// busyStage is Figure 7: each car's share of binned time in busy cells.
type busyStage struct{ derived }

func (busyStage) Stage() string { return "busy" }

func (a busyStage) Finalize(rep *Report) error {
	split := &a.p.split
	bt := BusyTime{FracByCar: make(map[cdr.CarID]float64, split.n)}
	fracs := make([]float64, 0, split.n)
	var overHalf, allBusy int
	split.each(func(i int32, t busyTime) {
		f := float64(t.busy) / float64(t.total)
		bt.FracByCar[a.p.cars.ids[i]] = f
		fracs = append(fracs, f)
		if f > 0.5 {
			overHalf++
		}
		if f >= 0.99 {
			allBusy++
		}
	})
	if len(fracs) > 0 {
		bt.Deciles = stats.Deciles(fracs)
		bt.OverHalf = float64(overHalf) / float64(len(fracs))
		bt.AllBusy = float64(allBusy) / float64(len(fracs))
	}
	rep.Busy = bt
	return nil
}

// ---------------------------------------------------------------------------
// durations — Figure 9

// maxDurSec is the longest truncated duration in whole seconds.
const maxDurSec = int(clean.TruncateLimit / time.Second)

// durationsAcc counts records by truncated duration in whole seconds,
// which is every duration a codec can carry, so Figure 9's quantiles
// and CDF are exact at any size and merge by addition.
type durationsAcc struct {
	counts tally // records by truncated duration, floored to the second
	// notWhole counts the records whose duration is negative or not a
	// whole number of seconds, binned at its floor and a negative one
	// at 0 s: no codec carries one, only a caller's own record slice.
	notWhole int64

	n                   int64
	fullSec, fullNano   int64 // exact sums of raw durations
	truncSec, truncNano int64 // exact sums of 600 s-truncated durations
}

func newDurationsAcc() *durationsAcc { return &durationsAcc{} }

func (a *durationsAcc) Stage() string { return "durations" }

func (a *durationsAcc) Add(b *batch) {
	for k := range b.recs {
		d := b.recs[k].Duration
		td := min(d, clean.TruncateLimit)
		a.fullSec += int64(d / time.Second)
		a.fullNano += int64(d % time.Second)
		a.truncSec += int64(td / time.Second)
		a.truncNano += int64(td % time.Second)
		if d < 0 || d%time.Second != 0 {
			a.notWhole++
		}
		a.counts.add(int(max(td/time.Second, 0)), 1)
	}
	a.n += int64(len(b.recs))
}

func (a *durationsAcc) Merge(other Accumulator, _ []int32) {
	o := mergeAs[*durationsAcc](other)
	a.counts.merge(o.counts)
	a.notWhole += o.notWhole
	a.n += o.n
	a.fullSec += o.fullSec
	a.fullNano += o.fullNano
	a.truncSec += o.truncSec
	a.truncNano += o.truncNano
}

func (a *durationsAcc) Finalize(rep *Report) error {
	cd := CellDurations{Truncated: a.counts.cdf(), NotWhole: a.notWhole}
	if a.n > 0 {
		cd.Median = cd.Truncated.Quantile(0.5)
		cd.P73 = cd.Truncated.Quantile(0.73)
		nf := float64(a.n)
		cd.FullMean = (float64(a.fullSec) + float64(a.fullNano)*1e-9) / nf
		cd.TruncMean = (float64(a.truncSec) + float64(a.truncNano)*1e-9) / nf
	}
	rep.Durations = cd
	return nil
}

// ---------------------------------------------------------------------------
// session stages — what handovers and usage share

// session is what a session stage keeps of one session: enough to tell
// whether a later fragment of the car's stream continues it, and to
// join one that does.
type session[S any] interface {
	// bounds returns the session's first start and latest end, in Unix
	// nanoseconds.
	bounds() (start, end int64)
	// extend returns the session with a fragment that continues it
	// joined on, in the receiver's memory.
	extend(frag S) S
	// clone returns the session in memory of its own: what a merge
	// keeps of a session its operand built.
	clone() S
}

// sessionStage is the part of a session stage that does not depend on
// what a session is or what the stage counts. A session stage
// (handovers, usage) splits each car's records into sessions and
// accounts each session once, when it is known to be closed;
// sessionStage owns the sessions that are not accounted yet — the open
// one per car and, under TrackHeads, each car's stashed first closed
// session — and every operation that moves a session between those
// states: the close-or-stash routing (settle), the car-disjoint and the
// ordered merge, and the walk Finalize counts unaccounted sessions with.
//
// The embedding stage splits its own records into sessions in Add,
// supplies count, keeps its aggregates, merges them, and writes its
// report fields and its payload. count is the one indirect call, paid per
// closed session.
type sessionStage[S session[S]] struct {
	cars *carTable
	// gap is the longest silence inside one session.
	gap time.Duration
	// open holds each car's open session.
	open column[S]
	// count adds one closed session to the embedding stage's
	// aggregates, keeping no reference to it.
	count func(S)
	// trackHeads defers accounting of each car's first closed session
	// into heads, keeping it stitchable by mergeOrdered (ordered.go has
	// why).
	trackHeads bool
	heads      column[S]
	// overlaps is the transient (unsnapshotted) count of ordered-merge
	// stitches that fell outside the exactness precondition.
	overlaps int64
}

func (s *sessionStage[S]) setTrackHeads(on bool) { s.trackHeads = on }

func (s *sessionStage[S]) tracksHeads() bool { return s.trackHeads }

func (s *sessionStage[S]) orderedOverlaps() int64 { return s.overlaps }

// splits reports whether a record or fragment starting at start lies
// more than gap after a session ending at end: the rule that closes a
// clean.Sessionizer session, on the same unsigned difference, exact
// across the whole int64 range.
func splits(gap time.Duration, end, start int64) bool {
	return start > end && uint64(start)-uint64(end) > uint64(gap)
}

// settle routes a closed session of car: with head tracking on, each
// car's first closed session is stashed unaccounted (it may still join
// the open tail of an earlier time slice); everything else is counted,
// and nothing references an accounted session again, which is what
// settle reports.
func (s *sessionStage[S]) settle(car int32, sess S) (accounted bool) {
	if s.trackHeads && !s.heads.has(car) {
		s.heads.put(car, sess)
		return false
	}
	s.count(sess)
	return true
}

// merge folds in the unaccounted sessions of a car-disjoint shard. Its
// heads stay heads where this side tracks them (they are still the
// first session of cars this side has never seen), and its open
// sessions are closed, as the Merge contract's "stream complete"
// demands — both through settle, so a car whose only session was open
// keeps a stitchable head; settleFrom clones what it keeps, so o stays
// as it was. Per car a head settles before the open session, and cars
// are independent, so the order of the walks is free.
func (s *sessionStage[S]) merge(o *sessionStage[S], remap []int32) {
	o.heads.each(func(j int32, h S) { s.settleFrom(remap[j], h) })
	o.open.each(func(j int32, sess S) { s.settleFrom(remap[j], sess) })
}

// settleFrom is settle for a session another accumulator owns: one it
// stashes is stashed as a clone, so a merge never aliases its operand
// and Add never recycles an array the receiver did not build. A
// counted session is referenced by nothing and needs no clone.
func (s *sessionStage[S]) settleFrom(car int32, sess S) {
	if !s.settle(car, sess) {
		s.heads.put(car, sess.clone())
	}
}

// unaccounted calls fn for every session not accounted yet — stashed
// heads, then still-open tails — leaving them where they are: a
// Finalize that counts them on a copy of its aggregates stays
// repeatable as records keep arriving.
func (s *sessionStage[S]) unaccounted(fn func(S)) {
	s.heads.each(func(_ int32, h S) { fn(h) })
	s.open.each(func(_ int32, sess S) { fn(sess) })
}

// ---------------------------------------------------------------------------
// handovers — §4.5

// mobility is one of the handovers stage's sessions: its first start and
// latest end in Unix nanoseconds, and its cell connections in arrival
// order, whose changes of cell are the handovers.
type mobility struct {
	start, end int64
	spans      []clean.CellSpan
}

func (m mobility) bounds() (int64, int64) { return m.start, m.end }

func (m mobility) extend(frag mobility) mobility {
	m.spans = append(m.spans, frag.spans...)
	m.end = max(m.end, frag.end)
	return m
}

func (m mobility) clone() mobility {
	m.spans = slices.Clone(m.spans)
	return m
}

// reuseSpans is the most spans a closed session's array may have room
// for and still be handed to its car's next session. Without the bound
// Add allocates less, but every car's array settles at the capacity of
// its longest session so far, and engine state grows with it (DESIGN
// §2.1).
const reuseSpans = 16

type handoverAcc struct {
	sessionStage[mobility]
	perSession tally // accounted sessions by how many handovers each had
	byKind     tally // their handovers by radio.HandoverKind
}

func newHandoverAcc(cars *carTable) *handoverAcc {
	a := &handoverAcc{}
	a.sessionStage = sessionStage[mobility]{cars: cars, gap: clean.MobilityGap, count: a.countSession}
	return a
}

func (a *handoverAcc) Stage() string { return "handovers" }

// Add applies the paper's 600 s cap and splits the car's records into
// mobility sessions as a clean.Sessionizer with gap MobilityGap does. A
// closed session that settle counted is referenced by nothing, so its
// span array, if it has room for at most reuseSpans spans, is where the
// car's next session is built; a stashed head keeps its array, and the
// merges, which settle what another accumulator built, hand on nothing.
func (a *handoverAcc) Add(b *batch) {
	for k, car := range b.cars {
		r := &b.recs[k]
		sp := clean.CellSpan{Cell: r.Cell, Start: b.starts[k], Duration: min(r.Duration, clean.TruncateLimit)}
		end := sp.End()
		cur, open := a.open.at(car)
		if open && !splits(a.gap, cur.end, sp.Start) {
			cur.spans = append(cur.spans, sp)
			cur.end = max(cur.end, end)
			continue
		}
		var spans []clean.CellSpan
		if open && a.settle(car, *cur) && cap(cur.spans) <= reuseSpans {
			spans = cur.spans[:0]
		}
		*cur = mobility{start: sp.Start, end: end, spans: append(spans, sp)}
	}
}

func (a *handoverAcc) countSession(m mobility) { countHandovers(&a.perSession, &a.byKind, m.spans) }

// countHandovers adds a session's handovers to byKind and the session to
// perSession under how many there were. Nothing else adds to either
// outside a merge, so Σ byKind = Σ v·perSession[v] in every state Add
// builds, and a restore refuses one where it does not hold.
func countHandovers(perSession, byKind *tally, spans []clean.CellSpan) {
	n := 0
	for kind, c := range clean.HandoversByKind(spans) {
		byKind.add(kind, int64(c))
		n += c
	}
	perSession.add(n, 1)
}

func (a *handoverAcc) Merge(other Accumulator, remap []int32) {
	o := mergeAs[*handoverAcc](other)
	a.merge(&o.sessionStage, remap)
	a.mergeCounts(o)
}

func (a *handoverAcc) MergeOrdered(other Accumulator, remap []int32) {
	o := mergeAs[*handoverAcc](other)
	a.mergeOrdered(&o.sessionStage, remap)
	a.mergeCounts(o)
}

func (a *handoverAcc) mergeCounts(o *handoverAcc) {
	a.perSession.merge(o.perSession)
	a.byKind.merge(o.byKind)
}

func (a *handoverAcc) Finalize(rep *Report) error {
	perSession, byKind := slices.Clone(a.perSession), slices.Clone(a.byKind)
	a.unaccounted(func(m mobility) { countHandovers(&perSession, &byKind, m.spans) })

	hs := HandoverStats{Sessions: int(perSession.sum()), ByKind: make(map[radio.HandoverKind]int64), PerSession: perSession.cdf()}
	for kind, c := range byKind {
		if c != 0 {
			hs.ByKind[radio.HandoverKind(kind)] = c
		}
	}
	if hs.Sessions > 0 {
		hs.Median = hs.PerSession.Quantile(0.5)
		hs.P70 = hs.PerSession.Quantile(0.7)
		hs.P90 = hs.PerSession.Quantile(0.9)
	}
	rep.Handovers = hs
	return nil
}

// ---------------------------------------------------------------------------
// carriers — Table 3

type carriersAcc struct {
	cars *carTable
	// masks holds every car seen with its carrier membership mask: bit
	// c-1 set once the car has connected on carrier c.
	masks  column[uint8]
	timeOn [radio.NumCarriers]time.Duration
	// total also counts time on an invalid carrier id, which no codec
	// lets through (cdr.Record.Validate) and no snapshot can carry; such
	// a record's car is counted with an empty mask.
	total time.Duration
}

func newCarriersAcc(cars *carTable) *carriersAcc {
	return &carriersAcc{cars: cars}
}

func (a *carriersAcc) Stage() string { return "carriers" }

func (a *carriersAcc) Add(b *batch) {
	for k := range b.recs {
		r := &b.recs[k]
		var bit uint8
		if c := r.Cell.Carrier(); c.Valid() {
			bit = 1 << (c - radio.C1)
			a.timeOn[c-radio.C1] += r.Duration
		}
		m, _ := a.masks.at(b.cars[k])
		*m |= bit
		a.total += r.Duration
	}
}

func (a *carriersAcc) Merge(other Accumulator, remap []int32) {
	o := mergeAs[*carriersAcc](other)
	o.masks.each(func(j int32, mask uint8) {
		m, _ := a.masks.at(remap[j])
		*m |= mask
	})
	for i, d := range o.timeOn {
		a.timeOn[i] += d
	}
	a.total += o.total
}

// carsOn counts the cars seen on each carrier.
func (a *carriersAcc) carsOn() (n [radio.NumCarriers]int) {
	a.masks.each(func(_ int32, mask uint8) {
		for ; mask != 0; mask &= mask - 1 {
			n[bits.TrailingZeros8(mask)]++
		}
	})
	return n
}

func (a *carriersAcc) Finalize(rep *Report) error {
	u := CarrierUsage{
		CarsFrac:  make(map[radio.CarrierID]float64, radio.NumCarriers),
		TimeFrac:  make(map[radio.CarrierID]float64, radio.NumCarriers),
		TotalCars: a.masks.n,
	}
	carsOn := a.carsOn()
	for c := radio.C1; c <= radio.C5; c++ {
		if u.TotalCars > 0 {
			u.CarsFrac[c] = float64(carsOn[c-radio.C1]) / float64(u.TotalCars)
		}
		if a.total > 0 {
			u.TimeFrac[c] = float64(a.timeOn[c-radio.C1]) / float64(a.total)
		}
	}
	rep.Carriers = u
	return nil
}

// ---------------------------------------------------------------------------
// usage — fleet-aggregate 24×7 matrix (the Figure 4/5 encoding over
// the whole population)

// interval is one aggregate session as Figure 5 needs it: its first
// start and its latest end, in Unix nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) bounds() (int64, int64) { return iv.start, iv.end }

func (iv interval) extend(frag interval) interval {
	iv.end = max(iv.end, frag.end)
	return iv
}

func (iv interval) clone() interval { return iv }

type usageAcc struct {
	sessionStage[interval]
	tzOffset int
	hours    tally // accounted sessions touching each local hour of the week
	sessions int64
}

func newUsageAcc(tzOffsetSeconds int, cars *carTable) *usageAcc {
	a := &usageAcc{tzOffset: tzOffsetSeconds}
	a.sessionStage = sessionStage[interval]{cars: cars, gap: clean.AggregateGap, count: a.countSession}
	return a
}

func (a *usageAcc) Stage() string { return "usage" }

// Add splits the car's records into aggregate sessions as a
// clean.Sessionizer with gap AggregateGap does, keeping of the open one
// only its bounds.
func (a *usageAcc) Add(b *batch) {
	for k, car := range b.cars {
		start := b.starts[k]
		end := clean.CellSpan{Start: start, Duration: b.recs[k].Duration}.End()
		cur, open := a.open.at(car)
		if open && !splits(a.gap, cur.end, start) {
			cur.end = max(cur.end, end)
			continue
		}
		if open {
			a.settle(car, *cur)
		}
		*cur = interval{start, end}
	}
}

func (a *usageAcc) countSession(iv interval) {
	markSessionHours(&a.hours, iv.start, iv.end, a.tzOffset)
	a.sessions++
}

// markSessionHours counts every local hour of the week a session from
// start to end (Unix nanoseconds) touches, once per session — the Figure
// 5 encoding. A session is capped at 7 days, against runaway stuck
// modems; the hour a session starts in is marked even when it ends
// inside it, and an end exactly on an hour marks nothing of the hour it
// opens. It builds no time.Time: hours are whole hours of Unix time, and
// the offset and the weekday are integer arithmetic.
func markSessionHours(hours *tally, start, end int64, tzOffsetSeconds int) {
	const (
		hour = int64(time.Hour)
		week = 7 * simtime.HoursPerDay * hour
		// 1970-01-01, where Unix time starts, was a Thursday: day 3 of a
		// Monday-first week.
		epochHourOfWeek = 3 * simtime.HoursPerDay
	)
	if end > start && uint64(end)-uint64(start) > uint64(week) {
		end = start + week
	}
	first := start - floorMod(start, hour)
	if end <= first {
		return
	}
	// The hours first, first+hour, … that start before end.
	n := (uint64(end)-uint64(first)-1)/uint64(hour) + 1
	localHour := floorDiv(first/int64(time.Second)+int64(tzOffsetSeconds), 3600)
	how := int(floorMod(localHour+epochHourOfWeek, 7*simtime.HoursPerDay))
	var seen [(7*simtime.HoursPerDay + 63) / 64]uint64
	for k := uint64(0); k < n; k++ {
		if w, bit := how/64, uint64(1)<<(how%64); seen[w]&bit == 0 {
			seen[w] |= bit
			hours.add(how, 1)
		}
		if how++; how == 7*simtime.HoursPerDay {
			how = 0
		}
	}
}

// floorDiv and floorMod divide rounding toward −∞, so instants before
// 1970 fall in the hour they lie in.
func floorDiv(a, b int64) int64 { return (a - floorMod(a, b)) / b }

func floorMod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// weekMatrix lays hour-of-week counts out as Figure 5's matrix, each
// as the float adding 1 that many times makes.
func weekMatrix(hours tally) (m simtime.WeekMatrix) {
	for how, c := range hours {
		m.AddHourOfWeek(how, float64(c))
	}
	return m
}

func (a *usageAcc) Merge(other Accumulator, remap []int32) {
	o := mergeAs[*usageAcc](other)
	a.merge(&o.sessionStage, remap)
	a.mergeCounts(o)
}

func (a *usageAcc) MergeOrdered(other Accumulator, remap []int32) {
	o := mergeAs[*usageAcc](other)
	a.mergeOrdered(&o.sessionStage, remap)
	a.mergeCounts(o)
}

func (a *usageAcc) mergeCounts(o *usageAcc) {
	a.hours.merge(o.hours)
	a.sessions += o.sessions
}

func (a *usageAcc) Finalize(rep *Report) error {
	hours, sessions := slices.Clone(a.hours), a.sessions
	a.unaccounted(func(iv interval) {
		markSessionHours(&hours, iv.start, iv.end, a.tzOffset)
		sessions++
	})
	rep.FleetUsage = weekMatrix(hours)
	rep.UsageSessions = sessions
	return nil
}

// ---------------------------------------------------------------------------
// clusters — Figure 11

type clustersAcc struct {
	ctx       Context
	seed      uint64
	busyCells []radio.CellKey
	idx       map[radio.CellKey]int
	perCell   [][]map[cdr.CarID]struct{}
}

func newClustersAcc(ctx Context, busyCells []radio.CellKey, seed uint64) *clustersAcc {
	a := &clustersAcc{
		ctx:       ctx,
		seed:      seed,
		busyCells: append([]radio.CellKey(nil), busyCells...),
		idx:       make(map[radio.CellKey]int, len(busyCells)),
		perCell:   make([][]map[cdr.CarID]struct{}, len(busyCells)),
	}
	for i, c := range a.busyCells {
		a.idx[c] = i
		a.perCell[i] = make([]map[cdr.CarID]struct{}, ctx.Period.NumBins())
	}
	return a
}

func (a *clustersAcc) Stage() string { return "clusters" }

// Add keeps car ids, not numbers: its sets are per busy cell and bin,
// and a snapshot writes them as they are.
func (a *clustersAcc) Add(b *batch) {
	for k := range b.recs {
		r := &b.recs[k]
		i, ok := a.idx[r.Cell]
		if !ok {
			continue
		}
		first, last := a.ctx.Period.BinRange(r.Start, r.Duration)
		for bin := first; bin < last; bin++ {
			if a.perCell[i][bin] == nil {
				a.perCell[i][bin] = make(map[cdr.CarID]struct{}, 4)
			}
			a.perCell[i][bin][r.Car] = struct{}{}
		}
	}
}

func (a *clustersAcc) Merge(other Accumulator, _ []int32) {
	o := mergeAs[*clustersAcc](other)
	for i := range a.perCell {
		for b, set := range o.perCell[i] {
			if set == nil {
				continue
			}
			own := a.perCell[i][b]
			if own == nil {
				a.perCell[i][b] = maps.Clone(set)
				continue
			}
			for car := range set {
				own[car] = struct{}{}
			}
		}
	}
}

func (a *clustersAcc) Finalize(rep *Report) error {
	rep.Clusters = a.finish(rand.New(rand.NewPCG(a.seed, 0xF16)))
	return nil
}

// finish folds the per-bin car sets into 96-bin mean-concurrency
// vectors and clusters them with k-means (k=2), reordering so cluster
// 0 has the smaller centroid peak. A fresh rng per call keeps
// Finalize repeatable.
func (a *clustersAcc) finish(rng *rand.Rand) BusyClusters {
	res := BusyClusters{}
	if len(a.busyCells) < 2 {
		return res
	}
	days := a.ctx.Period.Days()
	vectors := make([][]float64, len(a.busyCells))
	for i := range a.perCell {
		v := make([]float64, simtime.BinsPerDay)
		for b, set := range a.perCell[i] {
			v[b%simtime.BinsPerDay] += float64(len(set))
		}
		for b := range v {
			v[b] /= float64(days)
		}
		vectors[i] = v
	}

	km := stats.KMeans(vectors, 2, 100, rng)
	// Order clusters by centroid peak: cluster 0 = smaller.
	if maxOf(km.Centroids[0]) > maxOf(km.Centroids[1]) {
		km.Centroids[0], km.Centroids[1] = km.Centroids[1], km.Centroids[0]
		km.Sizes[0], km.Sizes[1] = km.Sizes[1], km.Sizes[0]
		for i := range km.Assignments {
			km.Assignments[i] = 1 - km.Assignments[i]
		}
	}
	res.Cells = append([]radio.CellKey(nil), a.busyCells...)
	res.Vectors = vectors
	res.Assignments = km.Assignments
	res.Sizes = km.Sizes
	res.Centroids = km.Centroids
	return res
}
