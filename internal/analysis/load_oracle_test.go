package analysis

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/stats"
)

// stepLoad is a load source whose 15-minute bins take utilizations on a
// ten-step scale, a share of them exactly at its threshold, so a busy
// test that is off by the boundary shows. Base stations 200 and up are
// always busy and 100–199 never, for cars pinned to an exact split.
type stepLoad struct{}

func (stepLoad) Utilization(c radio.CellKey, bin int) float64 {
	switch bs := c.BS(); {
	case bs >= 200:
		return 0.9
	case bs >= 100:
		return 0.1
	}
	return float64((uint64(c)*31+uint64(bin)*7)%11) / 10
}

func (stepLoad) BusyThreshold() float64 { return 0.5 }

// pinnedSplits are the cars loadWorkload pins to an exact busy split,
// one record a day in an always-busy cell and one in a never-busy cell:
// every classification boundary of Figure 7 and Table 2 (busy fraction
// 0.5, 0.99, 0.65 and 0.35; 10 days, the first rare threshold), a car
// on two days whose records overlap no bin, and their neighbours.
var pinnedSplits = []struct{ busyMin, idleMin, days int }{
	{13, 7, 10}, {7, 13, 10}, {13, 7, 11}, {7, 13, 9},
	{10, 10, 10}, {99, 1, 11}, {98, 2, 10}, {5, 0, 10}, {0, 6, 3},
	{0, 0, 2},
}

// loadWorkload is a fleet for the load-dependent stages: cars on 1 to 14
// days of a 14-day study, records straddling bins and the study's end,
// the pinned cars, ghosts and records outside the study.
func loadWorkload() []cdr.Record {
	const day = 24 * time.Hour
	rng := rand.New(rand.NewPCG(43, 2))
	var recs []cdr.Record
	add := func(car cdr.CarID, cell radio.CellKey, start, dur time.Duration) {
		recs = append(recs, cdr.Record{Car: car, Cell: cell, Start: t0.Add(start), Duration: dur})
	}
	for car := cdr.CarID(0); car < 280; car++ {
		for _, d := range rng.Perm(14)[:1+int(car)%14] {
			for k := rng.IntN(4); k >= 0; k-- {
				cell := radio.MakeCellKey(radio.BSID(rng.Uint64N(40)), radio.SectorID(rng.Uint64N(3)), radio.C1+radio.CarrierID(rng.Uint64N(uint64(radio.NumCarriers))))
				start := time.Duration(d)*day + time.Duration(rng.Uint64N(24*3600))*time.Second
				add(car, cell, start, time.Duration(5+rng.Uint64N(2400))*time.Second)
			}
		}
		switch car % 23 {
		case 3: // a ghost
			add(car, radio.MakeCellKey(1, 0, radio.C1), time.Duration(rng.Uint64N(14*24))*time.Hour, time.Hour)
		case 7: // starts before the study, ends inside it
			add(car, radio.MakeCellKey(2, 0, radio.C1), -10*time.Minute, 40*time.Minute)
		case 11: // starts after the study
			add(car, radio.MakeCellKey(2, 1, radio.C2), 14*day+time.Minute, 20*time.Minute)
		case 17: // runs past the study's end
			add(car, radio.MakeCellKey(5, 2, radio.C3), 14*day-7*time.Minute, 50*time.Minute)
		}
	}
	busyCell, idleCell := radio.MakeCellKey(200, 0, radio.C1), radio.MakeCellKey(100, 0, radio.C1)
	for i, p := range pinnedSplits {
		car := cdr.CarID(1000 + i)
		for d := 0; d < p.days; d++ {
			at := time.Duration(d)*day + time.Duration(8+i)*time.Hour
			// The minutes split into whole nanoseconds, the remainder on
			// the last day: the car's totals are exact.
			share := func(min int) time.Duration {
				total := time.Duration(min) * time.Minute
				s := total / time.Duration(p.days)
				if d == p.days-1 {
					s = total - s*time.Duration(p.days-1)
				}
				return s
			}
			add(car, busyCell, at, share(p.busyMin))
			add(car, idleCell, at+time.Hour, share(p.idleMin))
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	return recs
}

// carLoad is one car's §4.3 inputs as the oracle counts them.
type carLoad struct {
	days        map[int]bool
	busy, total time.Duration
}

// loadOracle is Figure 7 and Table 2 computed straight from §4.3–4.4:
// each accepted record's connected time cut at the 15-minute bins of the
// study, a slice busy when its cell's utilization in that bin exceeds
// the load source's threshold. It shares nothing with the engine but
// the load source and the Report fields it is compared with.
type loadOracle struct {
	cars map[cdr.CarID]*carLoad
	busy BusyTime
}

func newLoadOracle(ctx Context, records []cdr.Record) loadOracle {
	const day = 24 * time.Hour
	start := ctx.Period.Start()
	end := start.Add(time.Duration(ctx.Period.Days()) * day)
	thresh := ctx.Load.BusyThreshold()
	o := loadOracle{cars: make(map[cdr.CarID]*carLoad)}
	for _, r := range records {
		if r.Duration == time.Hour || r.Start.Before(start) || !r.Start.Before(end) {
			continue
		}
		c := o.cars[r.Car]
		if c == nil {
			c = &carLoad{days: make(map[int]bool)}
			o.cars[r.Car] = c
		}
		c.days[int(r.Start.Sub(start)/day)] = true
		recEnd := r.Start.Add(r.Duration)
		if recEnd.After(end) {
			recEnd = end
		}
		for bin := int(r.Start.Sub(start) / (15 * time.Minute)); ; bin++ {
			binStart := start.Add(time.Duration(bin) * 15 * time.Minute)
			if !binStart.Before(recEnd) {
				break
			}
			from, to := r.Start, binStart.Add(15*time.Minute)
			if binStart.After(from) {
				from = binStart
			}
			if recEnd.Before(to) {
				to = recEnd
			}
			c.total += to.Sub(from)
			if ctx.Load.Utilization(r.Cell, bin) > thresh {
				c.busy += to.Sub(from)
			}
		}
	}
	o.busy.FracByCar = make(map[cdr.CarID]float64)
	var fracs []float64
	var overHalf, allBusy int
	for car, c := range o.cars {
		if c.total == 0 {
			continue
		}
		f := float64(c.busy) / float64(c.total)
		o.busy.FracByCar[car] = f
		fracs = append(fracs, f)
		if f > 0.5 {
			overHalf++
		}
		if f >= 0.99 {
			allBusy++
		}
	}
	o.busy.Deciles = stats.Deciles(fracs)
	o.busy.OverHalf = float64(overHalf) / float64(len(fracs))
	o.busy.AllBusy = float64(allBusy) / float64(len(fracs))
	return o
}

// segment is Table 2's row for rare threshold rd: every accepted car
// counted once, as 1/n of the population, in its bucket.
func (o loadOracle) segment(rd int) Segment {
	seg := Segment{RareDays: rd}
	share := 1 / float64(len(o.cars))
	for _, c := range o.cars {
		rare := len(c.days) <= rd
		f := -1.0 // no binned time: a non-busy car
		if c.total > 0 {
			f = float64(c.busy) / float64(c.total)
		}
		var bucket *float64
		switch {
		case f >= BusyCarMinFrac && rare:
			bucket = &seg.RareBusy
		case f >= BusyCarMinFrac:
			bucket = &seg.CommonBusy
		case f <= NonBusyCarMaxFrac && rare:
			bucket = &seg.RareNonBusy
		case f <= NonBusyCarMaxFrac:
			bucket = &seg.CommonNonBusy
		case rare:
			bucket = &seg.RareBoth
		default:
			bucket = &seg.CommonBoth
		}
		*bucket += share
	}
	return seg
}

// boundaries fails the test unless the fleet holds a car on every
// classification boundary and bins at the threshold, so an oracle that
// agrees with the engine has pinned the comparisons.
func (o loadOracle) boundaries(t *testing.T, ctx Context, rareDays []int) {
	t.Helper()
	want := map[string]bool{}
	for _, c := range o.cars {
		if c.total > 0 {
			f := float64(c.busy) / float64(c.total)
			want["f=0.5"] = want["f=0.5"] || f == 0.5
			want["f=0.99"] = want["f=0.99"] || f == 0.99
			want["f=0.65"] = want["f=0.65"] || f == BusyCarMinFrac
			want["f=0.35"] = want["f=0.35"] || f == NonBusyCarMaxFrac
		} else {
			want["unbinned"] = true
		}
		for _, rd := range rareDays {
			want[fmt.Sprintf("days=%d", rd)] = want[fmt.Sprintf("days=%d", rd)] || len(c.days) == rd
		}
	}
	for bin := 0; bin < ctx.Period.NumBins() && !want["u=thresh"]; bin++ {
		want["u=thresh"] = ctx.Load.Utilization(radio.MakeCellKey(1, 0, radio.C1), bin) == ctx.Load.BusyThreshold()
	}
	for what, ok := range want {
		if !ok {
			t.Fatalf("the fleet has no car at %s", what)
		}
	}
}

// loadFold folds records as a query window does: hourly TrackHeads
// buckets, each through its snapshot, merged in time order.
func loadFold(t *testing.T, ctx Context, records []cdr.Record) (*Report, int) {
	t.Helper()
	tracked := RunOptions{TrackHeads: true}
	var fold *Streaming
	buckets := 0
	for lo := 0; lo < len(records); {
		hour := records[lo].Start.Truncate(time.Hour)
		hi := lo
		for hi < len(records) && records[hi].Start.Truncate(time.Hour).Equal(hour) {
			hi++
		}
		s := NewStreamingWithOptions(ctx, tracked)
		if err := s.AddAll(cdr.NewSliceReader(records[lo:hi])); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		bucket, err := RestoreStreaming(ctx, tracked, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if fold == nil {
			fold = bucket
		} else if err := fold.MergeOrdered(bucket); err != nil {
			t.Fatal(err)
		}
		buckets++
		lo = hi
	}
	return fold.set.finalize(), buckets
}

func loadCtx() Context {
	return Context{Period: simtime.NewPeriod(t0, 14), Load: stepLoad{}, TZOffsetSeconds: -5 * 3600}
}

// TestEngineBusyExact: Figure 7 — each car's busy fraction, the deciles,
// OverHalf and AllBusy — equals the oracle's, float for float, every
// eachSplit way and through an hourly fold, on a fleet with cars at
// every boundary.
func TestEngineBusyExact(t *testing.T) {
	ctx := loadCtx()
	records := loadWorkload()
	oracle := newLoadOracle(ctx, records)
	oracle.boundaries(t, ctx, nil)
	check := func(how string, rep *Report) {
		if !reflect.DeepEqual(rep.Busy, oracle.busy) {
			t.Fatalf("%s: Figure 7 %v over %d cars, over half %v, all busy %v; the records give %v over %d cars, %v, %v",
				how, rep.Busy.Deciles, len(rep.Busy.FracByCar), rep.Busy.OverHalf, rep.Busy.AllBusy,
				oracle.busy.Deciles, len(oracle.busy.FracByCar), oracle.busy.OverHalf, oracle.busy.AllBusy)
		}
	}
	eachSplit(t, ctx, records, check)
	rep, buckets := loadFold(t, ctx, records)
	check(fmt.Sprintf("MergeOrdered fold of %d hourly buckets", buckets), rep)
}

// TestEngineSegmentsExact: Table 2, for each of the report's rare-day
// thresholds, equals the oracle's, float for float, every eachSplit way
// and through an hourly fold.
func TestEngineSegmentsExact(t *testing.T) {
	ctx := loadCtx()
	records := loadWorkload()
	oracle := newLoadOracle(ctx, records)
	check := func(how string, rep *Report) {
		if len(rep.Segments) == 0 {
			t.Fatalf("%s: no Table 2", how)
		}
		var want []Segment
		for _, seg := range rep.Segments {
			want = append(want, oracle.segment(seg.RareDays))
		}
		if !slices.Equal(rep.Segments, want) {
			t.Fatalf("%s: Table 2 %+v; the records give %+v", how, rep.Segments, want)
		}
	}
	oracle.boundaries(t, ctx, RunOptions{}.withDefaults().RareDays[:1])
	eachSplit(t, ctx, records, check)
	rep, buckets := loadFold(t, ctx, records)
	check(fmt.Sprintf("MergeOrdered fold of %d hourly buckets", buckets), rep)
}
