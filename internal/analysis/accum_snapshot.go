package analysis

import (
	"cmp"
	"io"
	"math"
	"slices"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
)

// This file implements the Accumulator snapshot contract for every
// stage: SnapshotTo serializes exactly the mutable partial state (per-car
// columns, cell maps, bitmaps, counts, open sessions), never the
// configuration (period, load source, rare-day thresholds, seeds) —
// configuration travels in the checkpoint header and is re-validated
// there. Encodings are deterministic: cars, cells and bins are emitted
// in ascending order, whatever their numbers in the set's car table, so
// equal state always produces equal bytes, which is what lets tests
// compare snapshots directly and lets merge results be diffed
// byte-for-byte.
//
// Every RestoreFrom validates what it decodes — bounds, orderings,
// arithmetic invariants like busy ≤ total — and reports corruption
// through the decoder's sticky error (wrapping snapshot.ErrBadSnapshot)
// rather than building an acc that fails much later.

const (
	// maxSnapEntries bounds any one decoded collection (cars, cells,
	// sessions). Far above any real fleet, low enough that a forged
	// count cannot drive an iteration bomb.
	maxSnapEntries = 1 << 27
	// maxSnapSpans bounds the spans of one open session, and so the
	// handovers of one session.
	maxSnapSpans = 1 << 22
	// snapPrealloc caps how much a decode loop preallocates ahead of
	// the data it has actually read.
	snapPrealloc = 4096
)

func preallocN(n int) int {
	if n > snapPrealloc {
		return snapPrealloc
	}
	return n
}

// sortedKeys returns m's keys in ascending order, the iteration order
// every map encoder uses (cells, and the cars of a busy-cell bin).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// daysWords is the maximum bitmap length a period's day indices can
// occupy — the bound decoders enforce on stored bitmaps.
func daysWords(p simtime.Period) int { return (p.Days() + 63) / 64 }

func encodeDaysBits(e *snapshot.Encoder, d *daysBits) {
	e.Uvarint(uint64(len(d.bits)))
	for _, w := range d.bits {
		e.Uvarint(w)
	}
}

func decodeDaysBits(d *snapshot.Decoder, maxWords int) daysBits {
	n := d.Len(maxWords)
	if n <= 0 {
		return daysBits{}
	}
	out := daysBits{bits: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.bits[i] = d.Uvarint()
	}
	if d.Err() == nil && out.bits[n-1] == 0 {
		// set()/or() never leave trailing zero words; a stored one
		// would make equal states encode differently.
		d.Failf("day bitmap has trailing zero word")
	}
	return out
}

// A tally is one sparse frame: how many values are counted, then each
// as an ascending (value, count) pair.
func encodeTally(e *snapshot.Encoder, t tally) {
	nonzero := 0
	for _, c := range t {
		if c != 0 {
			nonzero++
		}
	}
	e.Uvarint(uint64(nonzero))
	for v, c := range t {
		if c != 0 {
			e.Uvarint(uint64(v))
			e.Uvarint(uint64(c))
		}
	}
}

// decodeTally reads what encodeTally wrote of a tally whose values are
// at most bound. A tally is dense, so the i-th pair (from 1) must name a
// value below snapPrealloc·i: a restore allocates in proportion to what
// it read (DESIGN §2.2 has the states that rule refuses).
func decodeTally(d *snapshot.Decoder, bound int) tally {
	var t tally
	n := d.Len(bound + 1)
	for i, prev, sum := 0, -1, int64(0); i < n; i++ {
		v, c := d.Uvarint(), d.Uvarint()
		if d.Err() != nil {
			return nil
		}
		// Values ascend strictly within 0..bound and the allocation rule,
		// and each is counted at least once, without the sum overflowing.
		if v > uint64(bound) || v >= uint64(snapPrealloc*(i+1)) || int(v) <= prev || c == 0 || c > uint64(math.MaxInt64-sum) {
			d.Failf("tally value %d (after %d) counted %d times", v, prev, c)
			return nil
		}
		t.add(int(v), int64(c))
		prev, sum = int(v), sum+int64(c)
	}
	return t
}

// encodeCars writes the cars a column holds — how many, then each car's
// id and what write writes of its state — ascending by car id, the
// order the cut sorted the set's car table in once for every stage.
func encodeCars[T any](e *snapshot.Encoder, cars *carTable, c *column[T], write func(*snapshot.Encoder, *T)) {
	e.Uvarint(uint64(c.n))
	for _, i := range cars.sorted() {
		if c.has(i) {
			e.Uvarint(uint64(cars.ids[i]))
			write(e, &c.v[i])
		}
	}
}

// decodeCars replaces c with what encodeCars wrote, interning each car
// into cars; read decodes one car's state, refusing a bad one through d.
// The cars must ascend strictly, as every encoder writes them.
func decodeCars[T any](d *snapshot.Decoder, cars *carTable, c *column[T], read func(d *snapshot.Decoder, car cdr.CarID, v *T)) {
	*c = column[T]{}
	n := d.Len(maxSnapEntries)
	var last cdr.CarID
	for k := 0; k < n; k++ {
		car := cdr.CarID(d.Uvarint())
		if d.Err() != nil {
			return
		}
		if k > 0 && car <= last {
			d.Failf("cars out of order (%d after %d)", car, last)
			return
		}
		last = car
		v, _ := c.at(cars.intern(car))
		if read(d, car, v); d.Err() != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// presence

func (a *presenceAcc) SnapshotTo(w io.Writer) error {
	e := snapshot.NewEncoder(w)
	encodeCars(e, a.cars, &a.carDays, encodeDaysBits)
	e.Uvarint(uint64(len(a.cellDays)))
	for _, cell := range sortedKeys(a.cellDays) {
		e.Uvarint(uint64(cell))
		encodeDaysBits(e, a.cellDays[cell])
	}
	encodeCars(e, a.cars, &a.split, func(e *snapshot.Encoder, t *busyTime) {
		e.Varint(int64(t.busy))
		e.Varint(int64(t.total))
	})
	return e.Err()
}

func (a *presenceAcc) RestoreFrom(r io.Reader) error {
	d := snapshot.NewDecoder(r)
	maxW := daysWords(a.ctx.Period)
	decodeCars(d, a.cars, &a.carDays, func(d *snapshot.Decoder, car cdr.CarID, db *daysBits) {
		if *db = decodeDaysBits(d, maxW); d.Err() == nil && len(db.bits) == 0 {
			// Add holds a car only once it was seen on a study day.
			d.Failf("car %d seen on no day", car)
		}
	})
	n := d.Len(maxSnapEntries)
	if d.Err() != nil {
		return d.Err()
	}
	cellDays := make(map[radio.CellKey]*daysBits, preallocN(n))
	for i := 0; i < n; i++ {
		cell := radio.CellKey(d.Uvarint())
		db := decodeDaysBits(d, maxW)
		if d.Err() != nil {
			return d.Err()
		}
		if _, dup := cellDays[cell]; dup {
			d.Failf("duplicate cell %d in day map", cell)
			return d.Err()
		}
		if len(db.bits) == 0 {
			// Add holds a cell only once it was seen on a study day.
			d.Failf("cell %d seen on no day", cell)
			return d.Err()
		}
		cellDays[cell] = &db
	}
	a.cellDays = cellDays
	decodeCars(d, a.cars, &a.split, func(d *snapshot.Decoder, car cdr.CarID, t *busyTime) {
		b, tot := d.Varint(), d.Varint()
		if d.Err() == nil && (b < 0 || tot <= 0 || tot < b) {
			// Add holds a car only once it has binned time.
			d.Failf("car %d busy=%d total=%d inconsistent", car, b, tot)
		}
		*t = busyTime{busy: time.Duration(b), total: time.Duration(tot)}
	})
	return d.Err()
}

// ---------------------------------------------------------------------------
// connected

func (a *connectedAcc) SnapshotTo(w io.Writer) error {
	e := snapshot.NewEncoder(w)
	encodeCars(e, a.cars, &a.secs, func(e *snapshot.Encoder, c *connSec) {
		e.Varint(c.full)
		e.Varint(c.trunc)
	})
	return e.Err()
}

func (a *connectedAcc) RestoreFrom(r io.Reader) error {
	d := snapshot.NewDecoder(r)
	decodeCars(d, a.cars, &a.secs, func(d *snapshot.Decoder, car cdr.CarID, c *connSec) {
		c.full, c.trunc = d.Varint(), d.Varint()
		if d.Err() == nil && (c.trunc < 0 || c.full < c.trunc) {
			// Per-record truncation can only shrink: 0 ≤ trunc ≤ full.
			d.Failf("car %d connected seconds full=%d trunc=%d inconsistent", car, c.full, c.trunc)
		}
	})
	return d.Err()
}

// ---------------------------------------------------------------------------
// durations

func (a *durationsAcc) SnapshotTo(w io.Writer) error {
	e := snapshot.NewEncoder(w)
	encodeTally(e, a.counts)
	e.Varint(a.notWhole)
	e.Varint(a.n)
	e.Varint(a.fullSec)
	e.Varint(a.fullNano)
	e.Varint(a.truncSec)
	e.Varint(a.truncNano)
	return e.Err()
}

func (a *durationsAcc) RestoreFrom(r io.Reader) error {
	d := snapshot.NewDecoder(r)
	counts := decodeTally(d, maxDurSec)
	notWhole, n := d.Varint(), d.Varint()
	fullSec, fullNano := d.Varint(), d.Varint()
	truncSec, truncNano := d.Varint(), d.Varint()
	if d.Err() != nil {
		return d.Err()
	}
	if sum := counts.sum(); sum != n {
		d.Failf("duration counts sum to %d but %d records were counted", sum, n)
		return d.Err()
	}
	if notWhole < 0 || notWhole > n || fullSec < 0 || truncSec < 0 || truncSec > fullSec {
		d.Failf("duration sums n=%d not-whole=%d full=%d trunc=%d inconsistent", n, notWhole, fullSec, truncSec)
		return d.Err()
	}
	a.counts, a.notWhole, a.n = counts, notWhole, n
	a.fullSec, a.fullNano = fullSec, fullNano
	a.truncSec, a.truncNano = truncSec, truncNano
	return nil
}

// ---------------------------------------------------------------------------
// unaccounted sessions (the sessionStage part of handovers and usage)

// encodeHeads writes the head-session stash: the tracking flag, then,
// tracking, the heads as encodeCars writes a column, each car's head as
// write writes it.
func (s *sessionStage[S]) encodeHeads(e *snapshot.Encoder, write func(*snapshot.Encoder, *S)) {
	e.Bool(s.trackHeads)
	if s.trackHeads {
		encodeCars(e, s.cars, &s.heads, write)
	}
}

// decodeHeads reads what encodeHeads wrote; list reads the heads
// themselves into the stash.
func (s *sessionStage[S]) decodeHeads(d *snapshot.Decoder, list func(*snapshot.Decoder, *column[S])) {
	s.trackHeads, s.heads = d.Bool(), column[S]{}
	if s.trackHeads {
		list(d, &s.heads)
	}
}

// A mobility session is written as its spans: its start and end are
// derived on decode, so the stored form cannot contradict them.
func encodeMobility(e *snapshot.Encoder, m *mobility) {
	e.Uvarint(uint64(len(m.spans)))
	for i := range m.spans {
		sp := &m.spans[i]
		e.Uvarint(uint64(sp.Cell))
		e.Varint(sp.Start)
		e.Varint(int64(sp.Duration))
	}
}

// Restored span arrays are cut from chunks this long rather than
// allocated one by one. The chunks are small on purpose: a session that
// stays open keeps its whole chunk reachable, and the accumulator of a
// window fold adopts fragments from every operand it is handed
// (mergeOrdered) — cut from one slab per payload, a 14 d fold kept every
// operand's slab alive to its end (DESIGN §2.2 has the measurement).
const spanChunk = 64

// spanReader decodes what encodeMobility wrote, one car's session at a
// time (decodeCars' read), cutting span arrays from its current chunk. A
// session with more spans than a chunk gets an array of its own, grown
// by append as its spans arrive, so a forged count cannot allocate ahead
// of the data.
type spanReader struct{ chunk []clean.CellSpan }

func (sr *spanReader) read(d *snapshot.Decoder, car cdr.CarID, m *mobility) {
	n := d.Len(maxSnapSpans)
	if d.Err() != nil {
		return
	}
	if n < 1 {
		d.Failf("open session for car %d has no spans", car)
		return
	}
	var spans []clean.CellSpan
	if n > spanChunk {
		spans = make([]clean.CellSpan, 0, preallocN(n))
	} else {
		if n > len(sr.chunk) {
			sr.chunk = make([]clean.CellSpan, spanChunk)
		}
		// Capped at its own spans: Add appends to an open session's array
		// and builds the next session in it, which must not reach the
		// spans of the next car in the chunk.
		spans, sr.chunk = sr.chunk[:0:n], sr.chunk[n:]
	}
	end := int64(math.MinInt64)
	for j := 0; j < n; j++ {
		cell := radio.CellKey(d.Uvarint())
		start, dur := d.Varint(), d.Varint()
		if d.Err() != nil {
			return
		}
		if !cell.Carrier().Valid() {
			d.Failf("open session span on invalid cell %d", cell)
			return
		}
		if dur < 0 {
			d.Failf("open session span duration %d negative", dur)
			return
		}
		sp := clean.CellSpan{Cell: cell, Start: start, Duration: time.Duration(dur)}
		spans = append(spans, sp)
		end = max(end, sp.End())
	}
	*m = mobility{start: spans[0].Start, end: end, spans: spans}
}

// ---------------------------------------------------------------------------
// handovers

func (a *handoverAcc) SnapshotTo(w io.Writer) error {
	e := snapshot.NewEncoder(w)
	encodeCars(e, a.cars, &a.open, encodeMobility)
	a.encodeHeads(e, encodeMobility)
	encodeTally(e, a.byKind)
	encodeTally(e, a.perSession)
	return e.Err()
}

func (a *handoverAcc) RestoreFrom(r io.Reader) error {
	d := snapshot.NewDecoder(r)
	var spans spanReader
	decodeCars(d, a.cars, &a.open, spans.read)
	a.decodeHeads(d, func(d *snapshot.Decoder, heads *column[mobility]) {
		decodeCars(d, a.cars, heads, spans.read)
	})
	// HandoverNone, the last kind, is never counted (HandoversByKind).
	byKind := decodeTally(d, int(radio.HandoverNone)-1)
	perSession := decodeTally(d, maxSnapSpans)
	if d.Err() != nil {
		return d.Err()
	}
	// countHandovers adds to both tallies at once: the handovers by kind
	// are the handovers of the sessions.
	var handovers int64
	for v, c := range perSession {
		if v > 0 && c > (math.MaxInt64-handovers)/int64(v) {
			d.Failf("sessions with %d handovers counted %d times overflow the total", v, c)
			return d.Err()
		}
		handovers += int64(v) * c
	}
	if kinds := byKind.sum(); kinds != handovers {
		d.Failf("%d handovers by kind but %d in the sessions", kinds, handovers)
		return d.Err()
	}
	a.byKind, a.perSession = byKind, perSession
	return nil
}

// ---------------------------------------------------------------------------
// carriers

func (a *carriersAcc) SnapshotTo(w io.Writer) error {
	// The wire form is per carrier: its time, then the ascending list of
	// cars seen on it, read off the masks in car order. The all-cars set
	// is the lists' union and total the sum of the times, so neither is
	// stored.
	e := snapshot.NewEncoder(w)
	carsOn := a.carsOn()
	present := 0
	for _, n := range carsOn {
		if n > 0 {
			present++
		}
	}
	e.Uvarint(uint64(present))
	for i, n := range carsOn {
		if n == 0 {
			continue
		}
		e.Uvarint(uint64(radio.C1) + uint64(i))
		e.Varint(int64(a.timeOn[i]))
		e.Uvarint(uint64(n))
		for _, j := range a.cars.sorted() {
			if mask, ok := a.masks.get(j); ok && mask&(1<<i) != 0 {
				e.Uvarint(uint64(a.cars.ids[j]))
			}
		}
	}
	return e.Err()
}

func (a *carriersAcc) RestoreFrom(r io.Reader) error {
	d := snapshot.NewDecoder(r)
	n := d.Len(radio.NumCarriers)
	if d.Err() != nil {
		return d.Err()
	}
	a.masks = column[uint8]{}
	var timeOn [radio.NumCarriers]time.Duration
	var total time.Duration
	var seen uint8
	for i := 0; i < n; i++ {
		carrier := radio.CarrierID(d.Uvarint())
		dur := d.Varint()
		nc := d.Len(maxSnapEntries)
		if d.Err() != nil {
			return d.Err()
		}
		if !carrier.Valid() {
			d.Failf("invalid carrier %d", carrier)
			return d.Err()
		}
		if dur < 0 {
			d.Failf("carrier %d time %d negative", carrier, dur)
			return d.Err()
		}
		bit := uint8(1) << (carrier - radio.C1)
		if seen&bit != 0 {
			d.Failf("duplicate carrier %d", carrier)
			return d.Err()
		}
		seen |= bit
		if nc < 1 {
			// A carrier is stored because a car connected on it; one
			// without cars could not be written back.
			d.Failf("carrier %d has no cars", carrier)
			return d.Err()
		}
		for j := 0; j < nc; j++ {
			car := cdr.CarID(d.Uvarint())
			if d.Err() != nil {
				return d.Err()
			}
			mask, _ := a.masks.at(a.cars.intern(car))
			if *mask&bit != 0 {
				d.Failf("carrier %d car set has duplicates", carrier)
				return d.Err()
			}
			*mask |= bit
		}
		timeOn[carrier-radio.C1] = time.Duration(dur)
		total += time.Duration(dur)
	}
	a.timeOn, a.total = timeOn, total
	return nil
}

// ---------------------------------------------------------------------------
// usage

// An open usage session or head is written as its car, its start and its
// length, end − start: the length is never negative in a state a codec's
// records build, and is unsigned on the wire.
func encodeInterval(e *snapshot.Encoder, iv *interval) {
	e.Varint(iv.start)
	e.Uvarint(uint64(iv.end) - uint64(iv.start))
}

func decodeInterval(d *snapshot.Decoder, car cdr.CarID, iv *interval) {
	start, length := d.Varint(), d.Uvarint()
	*iv = interval{start: start, end: int64(uint64(start) + length)}
	if d.Err() == nil && iv.end < iv.start {
		d.Failf("usage session of car %d ends before it starts (start %d, length %d)", car, start, length)
	}
}

func (a *usageAcc) SnapshotTo(w io.Writer) error {
	e := snapshot.NewEncoder(w)
	encodeCars(e, a.cars, &a.open, encodeInterval)
	a.encodeHeads(e, encodeInterval)
	encodeTally(e, a.hours)
	e.Varint(a.sessions)
	return e.Err()
}

func (a *usageAcc) RestoreFrom(r io.Reader) error {
	d := snapshot.NewDecoder(r)
	decodeCars(d, a.cars, &a.open, decodeInterval)
	a.decodeHeads(d, func(d *snapshot.Decoder, heads *column[interval]) {
		decodeCars(d, a.cars, heads, decodeInterval)
	})
	hours := decodeTally(d, 7*simtime.HoursPerDay-1)
	count := d.Varint()
	if d.Err() != nil {
		return d.Err()
	}
	if count < 0 {
		d.Failf("closed session count %d negative", count)
		return d.Err()
	}
	a.hours = hours
	a.sessions = count
	return nil
}

// ---------------------------------------------------------------------------
// clusters

func (a *clustersAcc) SnapshotTo(w io.Writer) error {
	e := snapshot.NewEncoder(w)
	e.Uvarint(uint64(len(a.busyCells)))
	for i := range a.perCell {
		nonEmpty := 0
		for _, set := range a.perCell[i] {
			if len(set) > 0 {
				nonEmpty++
			}
		}
		e.Uvarint(uint64(nonEmpty))
		for bin, set := range a.perCell[i] {
			if len(set) == 0 {
				continue
			}
			e.Uvarint(uint64(bin))
			e.Uvarint(uint64(len(set)))
			for _, car := range sortedKeys(set) {
				e.Uvarint(uint64(car))
			}
		}
	}
	return e.Err()
}

func (a *clustersAcc) RestoreFrom(r io.Reader) error {
	d := snapshot.NewDecoder(r)
	nc := d.Len(maxSnapEntries)
	if d.Err() != nil {
		return d.Err()
	}
	if nc != len(a.busyCells) {
		d.Failf("snapshot covers %d busy cells, accumulator has %d", nc, len(a.busyCells))
		return d.Err()
	}
	numBins := a.ctx.Period.NumBins()
	perCell := make([][]map[cdr.CarID]struct{}, nc)
	for i := 0; i < nc; i++ {
		perCell[i] = make([]map[cdr.CarID]struct{}, numBins)
		nb := d.Len(numBins)
		if d.Err() != nil {
			return d.Err()
		}
		lastBin := -1
		for j := 0; j < nb; j++ {
			bin := d.Len(numBins - 1)
			ncar := d.Len(maxSnapEntries)
			if d.Err() != nil {
				return d.Err()
			}
			if bin <= lastBin {
				d.Failf("cell %d bins out of order", i)
				return d.Err()
			}
			lastBin = bin
			if ncar < 1 {
				d.Failf("cell %d bin %d has empty car set", i, bin)
				return d.Err()
			}
			set := make(map[cdr.CarID]struct{}, preallocN(ncar))
			for k := 0; k < ncar; k++ {
				set[cdr.CarID(d.Uvarint())] = struct{}{}
			}
			if d.Err() != nil {
				return d.Err()
			}
			if len(set) != ncar {
				d.Failf("cell %d bin %d car set has duplicates", i, bin)
				return d.Err()
			}
			perCell[i][bin] = set
		}
	}
	a.perCell = perCell
	return nil
}
