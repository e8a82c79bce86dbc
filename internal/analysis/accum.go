package analysis

import (
	"fmt"
	"io"
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
// stage, expressed as mergeable accumulators. Batch (Run), streaming
// (Streaming) and parallel (Engine) execution are all thin drivers
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
// Add observes a record, Merge folds in a same-stage accumulator fed
// from a car-disjoint shard, and Finalize writes the stage's results
// into the report. Finalize must be non-destructive: accumulators can
// keep absorbing records and finalize again.
type Accumulator interface {
	// Stage returns the stable stage name (see RunOptions.FailStage).
	Stage() string
	// Add observes one ghost-free record.
	Add(r cdr.Record)
	// Merge folds another accumulator of the same stage into the
	// receiver. The other accumulator must have been fed a
	// car-disjoint shard and is consumed by the merge.
	Merge(o Accumulator)
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

// runAccum feeds a record slice to one accumulator and finalizes it
// into a scratch report — the backing for the standalone per-stage
// functions, which are thin wrappers over the accumulators. Unlike the
// engine, wrappers apply no ghost or period filtering: they are
// period-less primitives over exactly the records given.
func runAccum(acc Accumulator, records []cdr.Record) *Report {
	for _, r := range records {
		acc.Add(r)
	}
	rep := &Report{}
	if err := acc.Finalize(rep); err != nil {
		// No accumulator in this package returns a finalize error; a
		// non-nil error here is a programming bug.
		panic(err)
	}
	return rep
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

// ---------------------------------------------------------------------------
// presence — Figure 2 / Table 1

type presenceAcc struct {
	period   simtime.Period
	carDays  map[cdr.CarID]*daysBits
	cellDays map[radio.CellKey]*daysBits
}

func newPresenceAcc(period simtime.Period) *presenceAcc {
	return &presenceAcc{
		period:   period,
		carDays:  make(map[cdr.CarID]*daysBits),
		cellDays: make(map[radio.CellKey]*daysBits),
	}
}

func (a *presenceAcc) Stage() string { return "presence" }

func (a *presenceAcc) Add(r cdr.Record) {
	day := a.period.DayIndex(r.Start)
	if day < 0 {
		return
	}
	db := a.carDays[r.Car]
	if db == nil {
		db = &daysBits{}
		a.carDays[r.Car] = db
	}
	db.set(day)
	cb := a.cellDays[r.Cell]
	if cb == nil {
		cb = &daysBits{}
		a.cellDays[r.Cell] = cb
	}
	cb.set(day)
}

func (a *presenceAcc) Merge(other Accumulator) {
	o := mergeAs[*presenceAcc](other)
	for car, db := range o.carDays {
		if own := a.carDays[car]; own != nil {
			own.or(db)
		} else {
			a.carDays[car] = db
		}
	}
	for cell, db := range o.cellDays {
		if own := a.cellDays[cell]; own != nil {
			own.or(db)
		} else {
			a.cellDays[cell] = db
		}
	}
}

func (a *presenceAcc) Finalize(rep *Report) error {
	days := a.period.Days()
	carsPerDay := make([]int, days)
	for _, db := range a.carDays {
		db.forEach(func(day int) { carsPerDay[day]++ })
	}
	cellsPerDay := make([]int, days)
	for _, db := range a.cellDays {
		db.forEach(func(day int) { cellsPerDay[day]++ })
	}

	p := DailyPresence{
		TotalCars:  len(a.carDays),
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
	rep.WeekdayRows = Table1(p, a.period)
	return nil
}

// ---------------------------------------------------------------------------
// connected — Figure 3

// connSec is one car's connected seconds, as recorded and with each
// record truncated to 600 s.
type connSec struct{ full, trunc int64 }

type connectedAcc struct {
	period simtime.Period
	// cars holds pointers so that Add is one hash lookup per record.
	cars map[cdr.CarID]*connSec
}

func newConnectedAcc(period simtime.Period) *connectedAcc {
	return &connectedAcc{period: period, cars: make(map[cdr.CarID]*connSec)}
}

func (a *connectedAcc) Stage() string { return "connected" }

func (a *connectedAcc) Add(r cdr.Record) {
	sec := int64(r.Duration / time.Second)
	c := a.cars[r.Car]
	if c == nil {
		c = &connSec{}
		a.cars[r.Car] = c
	}
	c.full += sec
	c.trunc += truncDur(sec, 600)
}

func (a *connectedAcc) Merge(other Accumulator) {
	o := mergeAs[*connectedAcc](other)
	for car, oc := range o.cars {
		if c := a.cars[car]; c != nil {
			c.full += oc.full
			c.trunc += oc.trunc
		} else {
			a.cars[car] = oc
		}
	}
}

func (a *connectedAcc) Finalize(rep *Report) error {
	total := float64(a.period.Seconds())
	full := make([]float64, 0, len(a.cars))
	trunc := make([]float64, 0, len(a.cars))
	for _, c := range a.cars {
		full = append(full, float64(c.full)/total)
		trunc = append(trunc, float64(c.trunc)/total)
	}
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
// days — Figure 6

type daysAcc struct {
	period  simtime.Period
	carDays map[cdr.CarID]*daysBits
}

func newDaysAcc(period simtime.Period) *daysAcc {
	return &daysAcc{period: period, carDays: make(map[cdr.CarID]*daysBits)}
}

func (a *daysAcc) Stage() string { return "days" }

func (a *daysAcc) Add(r cdr.Record) {
	day := a.period.DayIndex(r.Start)
	if day < 0 {
		return
	}
	db := a.carDays[r.Car]
	if db == nil {
		db = &daysBits{}
		a.carDays[r.Car] = db
	}
	db.set(day)
}

func (a *daysAcc) Merge(other Accumulator) {
	o := mergeAs[*daysAcc](other)
	for car, db := range o.carDays {
		if own := a.carDays[car]; own != nil {
			own.or(db)
		} else {
			a.carDays[car] = db
		}
	}
}

// perCar returns the distinct-day count per car.
func (a *daysAcc) perCar() map[cdr.CarID]int {
	out := make(map[cdr.CarID]int, len(a.carDays))
	for car, db := range a.carDays {
		out[car] = db.count()
	}
	return out
}

func (a *daysAcc) Finalize(rep *Report) error {
	h := stats.NewHistogram(0.5, 1, a.period.Days())
	for _, db := range a.carDays {
		h.Add(float64(db.count()))
	}
	rep.DaysHist = h
	return nil
}

// ---------------------------------------------------------------------------
// busy — Figure 7

type busyAcc struct {
	ctx   Context
	busy  map[cdr.CarID]time.Duration
	total map[cdr.CarID]time.Duration
}

func newBusyAcc(ctx Context) *busyAcc {
	return &busyAcc{
		ctx:   ctx,
		busy:  make(map[cdr.CarID]time.Duration),
		total: make(map[cdr.CarID]time.Duration),
	}
}

func (a *busyAcc) Stage() string { return "busy" }

func (a *busyAcc) Add(r cdr.Record) {
	busy, total := busyOverlap(a.ctx, r)
	if total > 0 {
		a.total[r.Car] += total
		a.busy[r.Car] += busy
	}
}

// busyOverlap apportions one record's connected time across the
// 15-minute bins it overlaps and splits it into busy vs total using
// the context's load source — the shared kernel of Figure 7 and the
// Table 2 segmentation.
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

func (a *busyAcc) Merge(other Accumulator) {
	o := mergeAs[*busyAcc](other)
	for car, d := range o.busy {
		a.busy[car] += d
	}
	for car, d := range o.total {
		a.total[car] += d
	}
}

func (a *busyAcc) Finalize(rep *Report) error {
	bt := BusyTime{FracByCar: make(map[cdr.CarID]float64, len(a.total))}
	fracs := make([]float64, 0, len(a.total))
	var overHalf, allBusy int
	for car, tot := range a.total {
		if tot <= 0 {
			continue
		}
		f := float64(a.busy[car]) / float64(tot)
		bt.FracByCar[car] = f
		fracs = append(fracs, f)
		if f > 0.5 {
			overHalf++
		}
		if f >= 0.99 {
			allBusy++
		}
	}
	if len(fracs) > 0 {
		bt.Deciles = stats.Deciles(fracs)
		bt.OverHalf = float64(overHalf) / float64(len(fracs))
		bt.AllBusy = float64(allBusy) / float64(len(fracs))
	}
	rep.Busy = bt
	return nil
}

// ---------------------------------------------------------------------------
// segments — Table 2

// carSegState is one car's segmentation inputs: how many distinct
// study days it appeared, and how its binned connected time splits
// busy vs total.
type carSegState struct {
	days        daysBits
	busy, total time.Duration
}

type segmentsAcc struct {
	ctx      Context
	rareDays []int
	cars     map[cdr.CarID]*carSegState
}

func newSegmentsAcc(ctx Context, rareDays []int) *segmentsAcc {
	return &segmentsAcc{ctx: ctx, rareDays: rareDays, cars: make(map[cdr.CarID]*carSegState)}
}

func (a *segmentsAcc) Stage() string { return "segments" }

func (a *segmentsAcc) Add(r cdr.Record) {
	st := a.cars[r.Car]
	if st == nil {
		st = &carSegState{}
		a.cars[r.Car] = st
	}
	if day := a.ctx.Period.DayIndex(r.Start); day >= 0 {
		st.days.set(day)
	}
	busy, total := busyOverlap(a.ctx, r)
	st.busy += busy
	st.total += total
}

func (a *segmentsAcc) Merge(other Accumulator) {
	o := mergeAs[*segmentsAcc](other)
	for car, st := range o.cars {
		own := a.cars[car]
		if own == nil {
			a.cars[car] = st
			continue
		}
		own.days.or(&st.days)
		own.busy += st.busy
		own.total += st.total
	}
}

func (a *segmentsAcc) Finalize(rep *Report) error {
	// The population is cars seen on at least one study day, matching
	// the Figure 6 universe.
	n := 0.0
	for _, st := range a.cars {
		if st.days.count() > 0 {
			n++
		}
	}
	out := make([]Segment, 0, len(a.rareDays))
	for _, rd := range a.rareDays {
		seg := Segment{RareDays: rd}
		if n == 0 {
			out = append(out, seg)
			continue
		}
		for _, st := range a.cars {
			d := st.days.count()
			if d == 0 {
				continue
			}
			f := 0.0
			classified := st.total > 0
			if classified {
				f = float64(st.busy) / float64(st.total)
			}
			var bucket *float64
			rare := d <= rd
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
		}
		out = append(out, seg)
	}
	rep.Segments = out
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
	// at 0 s: only the record-slice API can pass one.
	notWhole int64

	n                   int64
	fullSec, fullNano   int64 // exact sums of raw durations
	truncSec, truncNano int64 // exact sums of 600 s-truncated durations
}

func newDurationsAcc() *durationsAcc { return &durationsAcc{} }

func (a *durationsAcc) Stage() string { return "durations" }

func (a *durationsAcc) Add(r cdr.Record) {
	d := r.Duration
	td := d
	if td > clean.TruncateLimit {
		td = clean.TruncateLimit
	}
	a.n++
	a.fullSec += int64(d / time.Second)
	a.fullNano += int64(d % time.Second)
	a.truncSec += int64(td / time.Second)
	a.truncNano += int64(td % time.Second)
	if d < 0 || d%time.Second != 0 {
		a.notWhole++
	}
	a.counts.add(int(max(td/time.Second, 0)), 1)
}

func (a *durationsAcc) Merge(other Accumulator) {
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

// sessionStage is the part of a session stage that does not depend on
// what the stage counts. A session stage (handovers, usage) feeds
// every record to a sessionizer and accounts each session once, when it
// is known to be closed; sessionStage owns the sessionizer, the
// sessions that are not accounted yet — the open one per car inside
// the sessionizer and, under TrackHeads, each car's stashed first
// closed session — and every operation that moves a session between
// those states: the close-or-stash routing, the car-disjoint and the
// ordered merge, the walk Finalize counts unaccounted sessions with,
// and their part of the snapshot payload.
//
// The embedding stage supplies count, keeps its aggregates, merges
// them, and writes its report fields and the rest of its payload. Its
// Add calls z.Add itself: a record costs the sessionizer call and a nil
// check, and the one indirect call, count, is paid per closed session.
type sessionStage struct {
	z *clean.Sessionizer
	// count adds one closed session to the embedding stage's
	// aggregates. The session goes back to the sessionizer as soon as
	// count returns, so count keeps no reference to it.
	count func(*clean.Session)
	// trackHeads defers accounting of each car's first closed session
	// into heads, keeping it stitchable by mergeOrdered (ordered.go has
	// why). Nil heads means tracking is off.
	trackHeads bool
	heads      map[cdr.CarID]*clean.Session
	// overlaps is the transient (unsnapshotted) count of ordered-merge
	// stitches that fell outside the exactness precondition.
	overlaps int64
}

func (s *sessionStage) setTrackHeads(on bool) {
	s.trackHeads = on
	if on && s.heads == nil {
		s.heads = make(map[cdr.CarID]*clean.Session)
	}
}

func (s *sessionStage) tracksHeads() bool { return s.trackHeads }

func (s *sessionStage) orderedOverlaps() int64 { return s.overlaps }

// settle routes a closed session: with head tracking on, each car's
// first closed session is stashed unaccounted (it may still join the
// open tail of an earlier time slice); everything else is counted, and
// nothing references an accounted session again, which is what settle
// reports.
func (s *sessionStage) settle(sess *clean.Session) (accounted bool) {
	if s.trackHeads {
		if _, seen := s.heads[sess.Car]; !seen {
			s.heads[sess.Car] = sess
			return false
		}
	}
	s.count(sess)
	return true
}

// closed settles a session the stage's own sessionizer just closed and,
// once accounted, hands it back for the sessions that open next. The
// merges settle without handing back: what they fold in came out of
// another accumulator's restore, nothing they do takes from the free
// lists, and a session parked there keeps the chunk it was decoded into
// reachable.
func (s *sessionStage) closed(sess *clean.Session) {
	if s.settle(sess) {
		s.z.Release(sess)
	}
}

// merge folds in the unaccounted sessions of a car-disjoint shard. Its
// heads stay heads where this side tracks them (they are still the
// first session of cars this side has never seen), and its open
// sessions are closed, as the Merge contract's "stream complete"
// demands — both through closed, so a car whose only session was open
// keeps a stitchable head.
func (s *sessionStage) merge(o *sessionStage) {
	for _, car := range sortedKeys(o.heads) {
		s.settle(o.heads[car])
	}
	for _, sess := range o.z.Flush() {
		sess := sess
		s.settle(&sess)
	}
}

// mergeOrdered folds in the unaccounted sessions of a later,
// time-adjacent slice, which must have been built with TrackHeads:
// only the boundary sessions need stitching, the later slice's
// aggregates are interior to it and fold as they are.
func (s *sessionStage) mergeOrdered(o *sessionStage) {
	if !o.trackHeads {
		panic("analysis: MergeOrdered needs the later slice built with TrackHeads")
	}
	s.overlaps += o.overlaps + stitchOrdered(s.z, func(sess *clean.Session) { s.settle(sess) }, o.heads, o.z)
}

// unaccounted calls fn for every session not accounted yet — stashed
// heads, then still-open tails, each in car order — leaving them where
// they are: a Finalize that counts them on a copy of its aggregates
// stays repeatable as records keep arriving.
func (s *sessionStage) unaccounted(fn func(*clean.Session)) {
	for _, car := range sortedKeys(s.heads) {
		fn(s.heads[car])
	}
	for _, car := range s.z.OpenCars() {
		fn(s.z.Open(car))
	}
}

// ---------------------------------------------------------------------------
// handovers — §4.5

type handoverAcc struct {
	sessionStage
	perSession tally // accounted sessions by how many handovers each had
	byKind     tally // their handovers by radio.HandoverKind
}

func newHandoverAcc() *handoverAcc {
	a := &handoverAcc{}
	a.sessionStage = sessionStage{z: clean.NewSessionizer(clean.MobilityGap), count: a.countSession}
	return a
}

func (a *handoverAcc) Stage() string { return "handovers" }

// Add applies the paper's 600 s cap before sessionizing.
func (a *handoverAcc) Add(r cdr.Record) {
	if r.Duration > clean.TruncateLimit {
		r.Duration = clean.TruncateLimit
	}
	if s := a.z.Add(r); s != nil {
		a.closed(s)
	}
}

func (a *handoverAcc) countSession(s *clean.Session) { countHandovers(&a.perSession, &a.byKind, s) }

// countHandovers adds a session's handovers to byKind and the session to
// perSession under how many there were. Nothing else adds to either
// outside a merge, so Σ byKind = Σ v·perSession[v] in every state Add
// builds, and a restore refuses one where it does not hold.
func countHandovers(perSession, byKind *tally, s *clean.Session) {
	n := 0
	for kind, c := range s.HandoversByKind() {
		byKind.add(kind, int64(c))
		n += c
	}
	perSession.add(n, 1)
}

func (a *handoverAcc) Merge(other Accumulator) {
	o := mergeAs[*handoverAcc](other)
	a.merge(&o.sessionStage)
	a.mergeCounts(o)
}

func (a *handoverAcc) MergeOrdered(other Accumulator) {
	o := mergeAs[*handoverAcc](other)
	a.mergeOrdered(&o.sessionStage)
	a.mergeCounts(o)
}

func (a *handoverAcc) mergeCounts(o *handoverAcc) {
	a.perSession.merge(o.perSession)
	a.byKind.merge(o.byKind)
}

func (a *handoverAcc) Finalize(rep *Report) error {
	perSession, byKind := slices.Clone(a.perSession), slices.Clone(a.byKind)
	a.unaccounted(func(s *clean.Session) { countHandovers(&perSession, &byKind, s) })

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
	// cars maps every car seen to its carrier membership mask: bit c-1
	// set once the car has connected on carrier c. One hash per record
	// where five car sets and an all-cars set took three.
	cars   map[cdr.CarID]uint8
	timeOn [radio.NumCarriers]time.Duration
	// total also counts time on an invalid carrier id, which no codec
	// lets through (cdr.Record.Validate) and no snapshot can carry; such
	// a record's car is counted with an empty mask.
	total time.Duration
}

func newCarriersAcc() *carriersAcc {
	return &carriersAcc{cars: make(map[cdr.CarID]uint8)}
}

func (a *carriersAcc) Stage() string { return "carriers" }

func (a *carriersAcc) Add(r cdr.Record) {
	var bit uint8
	if c := r.Cell.Carrier(); c.Valid() {
		bit = 1 << (c - radio.C1)
		a.timeOn[c-radio.C1] += r.Duration
	}
	a.cars[r.Car] |= bit
	a.total += r.Duration
}

func (a *carriersAcc) Merge(other Accumulator) {
	o := mergeAs[*carriersAcc](other)
	for car, mask := range o.cars {
		a.cars[car] |= mask
	}
	for i, d := range o.timeOn {
		a.timeOn[i] += d
	}
	a.total += o.total
}

// carsOn counts the cars seen on each carrier.
func (a *carriersAcc) carsOn() (n [radio.NumCarriers]int) {
	for _, mask := range a.cars {
		for ; mask != 0; mask &= mask - 1 {
			n[bits.TrailingZeros8(mask)]++
		}
	}
	return n
}

func (a *carriersAcc) Finalize(rep *Report) error {
	u := CarrierUsage{
		CarsFrac:  make(map[radio.CarrierID]float64, radio.NumCarriers),
		TimeFrac:  make(map[radio.CarrierID]float64, radio.NumCarriers),
		TotalCars: len(a.cars),
	}
	carsOn := a.carsOn()
	for c := radio.C1; c <= radio.C5; c++ {
		if len(a.cars) > 0 {
			u.CarsFrac[c] = float64(carsOn[c-radio.C1]) / float64(len(a.cars))
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

type usageAcc struct {
	sessionStage
	tzOffset int
	hours    tally // accounted sessions touching each local hour of the week
	sessions int64
}

func newUsageAcc(tzOffsetSeconds int) *usageAcc {
	a := &usageAcc{tzOffset: tzOffsetSeconds}
	a.sessionStage = sessionStage{z: clean.NewSessionizer(clean.AggregateGap), count: a.countSession}
	return a
}

func (a *usageAcc) Stage() string { return "usage" }

func (a *usageAcc) Add(r cdr.Record) {
	if s := a.z.Add(r); s != nil {
		a.closed(s)
	}
}

func (a *usageAcc) countSession(s *clean.Session) {
	markSessionHours(&a.hours, s, a.tzOffset)
	a.sessions++
}

// markSessionHours counts every local hour-of-week a session touches,
// once per session — the Figure 5 encoding. It is where a session's
// clock first needs wall-clock time: once per closed session, not per
// record.
func markSessionHours(hours *tally, s *clean.Session, tzOffsetSeconds int) {
	start := time.Unix(0, s.Start).UTC()
	end := time.Unix(0, s.End).UTC()
	if end.Sub(start) > 7*24*time.Hour {
		end = start.Add(7 * 24 * time.Hour) // cap runaway stuck sessions
	}
	// Walk hour boundaries so each touched hour is marked exactly
	// once per session; the truncated first step guarantees the
	// starting hour is included even for sub-hour sessions.
	var seen [(7*simtime.HoursPerDay + 63) / 64]uint64
	for t := start.Truncate(time.Hour); t.Before(end); t = t.Add(time.Hour) {
		how := simtime.HourOfWeek(t, tzOffsetSeconds)
		if w, bit := how/64, uint64(1)<<(how%64); seen[w]&bit == 0 {
			seen[w] |= bit
			hours.add(how, 1)
		}
	}
}

// weekMatrix lays hour-of-week counts out as Figure 5's matrix, each
// as the float adding 1 that many times makes.
func weekMatrix(hours tally) (m simtime.WeekMatrix) {
	for how, c := range hours {
		m.AddHourOfWeek(how, float64(c))
	}
	return m
}

func (a *usageAcc) Merge(other Accumulator) {
	o := mergeAs[*usageAcc](other)
	a.merge(&o.sessionStage)
	a.mergeCounts(o)
}

func (a *usageAcc) MergeOrdered(other Accumulator) {
	o := mergeAs[*usageAcc](other)
	a.mergeOrdered(&o.sessionStage)
	a.mergeCounts(o)
}

func (a *usageAcc) mergeCounts(o *usageAcc) {
	a.hours.merge(o.hours)
	a.sessions += o.sessions
}

func (a *usageAcc) Finalize(rep *Report) error {
	hours, sessions := slices.Clone(a.hours), a.sessions
	a.unaccounted(func(s *clean.Session) {
		markSessionHours(&hours, s, a.tzOffset)
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

func (a *clustersAcc) Add(r cdr.Record) {
	i, ok := a.idx[r.Cell]
	if !ok {
		return
	}
	first, last := a.ctx.Period.BinRange(r.Start, r.Duration)
	for b := first; b < last; b++ {
		if a.perCell[i][b] == nil {
			a.perCell[i][b] = make(map[cdr.CarID]struct{}, 4)
		}
		a.perCell[i][b][r.Car] = struct{}{}
	}
}

func (a *clustersAcc) Merge(other Accumulator) {
	o := mergeAs[*clustersAcc](other)
	for i := range a.perCell {
		for b, set := range o.perCell[i] {
			if set == nil {
				continue
			}
			own := a.perCell[i][b]
			if own == nil {
				a.perCell[i][b] = set
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
