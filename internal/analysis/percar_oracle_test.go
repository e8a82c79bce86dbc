package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/stats"
)

// perCarOracle is five of the paper's per-car stages computed the naive
// way, straight from the §3–4 definitions: the accepted records (no
// one-hour ghost, a start inside the study) grouped by car, each car's
// sorted by start, and every number counted off those lists. It shares
// nothing with the engine but the Report fields it is compared with.
type perCarOracle struct {
	accepted int
	// Figure 2
	totalCars, totalCells int
	carsFrac, cellsFrac   []float64
	// Figure 3: per-car fractions of the study, sorted
	full, trunc []float64
	// Figure 6: cars seen on exactly n+1 days
	daysCount []int64
	// Table 3
	carrierCars map[radio.CarrierID]float64
	carrierTime map[radio.CarrierID]float64
	// Figure 5 over the fleet: aggregate sessions touching each local
	// hour, by Monday-first day and hour of the day
	usage    [7][24]int64
	sessions int64
}

func newPerCarOracle(start time.Time, days, tzOffsetSeconds int, records []cdr.Record) perCarOracle {
	const day = 24 * time.Hour
	end := start.Add(time.Duration(days) * day)
	var o perCarOracle
	byCar := make(map[cdr.CarID][]cdr.Record)
	for _, r := range records {
		if r.Duration == time.Hour || r.Start.Before(start) || !r.Start.Before(end) {
			continue
		}
		byCar[r.Car] = append(byCar[r.Car], r)
		o.accepted++
	}
	cars := make([]cdr.CarID, 0, len(byCar))
	for car := range byCar {
		cars = append(cars, car)
	}
	slices.Sort(cars)

	o.totalCars = len(cars)
	o.carsFrac, o.cellsFrac = make([]float64, days), make([]float64, days)
	o.daysCount = make([]int64, days)
	o.carrierCars, o.carrierTime = make(map[radio.CarrierID]float64), make(map[radio.CarrierID]float64)
	cellDays := make(map[radio.CellKey]map[int]bool)
	carsOnDay := make([]int, days)
	carsOn := make(map[radio.CarrierID]int)
	timeOn := make(map[radio.CarrierID]time.Duration)
	var totalTime time.Duration
	studySec := float64(days) * day.Seconds()
	zone := time.FixedZone("local", tzOffsetSeconds)
	for _, car := range cars {
		recs := byCar[car]
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
		seenDays := make(map[int]bool)
		seenCarriers := make(map[radio.CarrierID]bool)
		var fullSec, truncSec int64
		for _, r := range recs {
			d := int(r.Start.Sub(start) / day)
			seenDays[d] = true
			if cellDays[r.Cell] == nil {
				cellDays[r.Cell] = make(map[int]bool)
			}
			cellDays[r.Cell][d] = true
			sec := int64(r.Duration / time.Second)
			fullSec += sec
			truncSec += min(sec, 600)
			seenCarriers[r.Cell.Carrier()] = true
			timeOn[r.Cell.Carrier()] += r.Duration
			totalTime += r.Duration
		}
		for d := range seenDays {
			carsOnDay[d]++
		}
		o.daysCount[len(seenDays)-1]++
		for c := range seenCarriers {
			carsOn[c]++
		}
		o.full = append(o.full, float64(fullSec)/studySec)
		o.trunc = append(o.trunc, float64(truncSec)/studySec)

		// Aggregate sessions: a record starting more than 30 s after the
		// latest end so far starts the next one.
		first, latest := recs[0].Start, recs[0].Start.Add(recs[0].Duration)
		closeSession := func() {
			o.sessions++
			if latest.Sub(first) > 7*day {
				latest = first.Add(7 * day)
			}
			touched := make(map[[2]int]bool)
			for t := first.Truncate(time.Hour); t.Before(latest); t = t.Add(time.Hour) {
				local := t.In(zone)
				touched[[2]int{(int(local.Weekday()) + 6) % 7, local.Hour()}] = true
			}
			for dh := range touched {
				o.usage[dh[0]][dh[1]]++
			}
		}
		for _, r := range recs[1:] {
			if r.Start.Sub(latest) > 30*time.Second {
				closeSession()
				first, latest = r.Start, r.Start
			}
			if e := r.Start.Add(r.Duration); e.After(latest) {
				latest = e
			}
		}
		closeSession()
	}
	o.totalCells = len(cellDays)
	cellsOnDay := make([]int, days)
	for _, ds := range cellDays {
		for d := range ds {
			cellsOnDay[d]++
		}
	}
	for d := 0; d < days; d++ {
		if o.totalCars > 0 {
			o.carsFrac[d] = float64(carsOnDay[d]) / float64(o.totalCars)
			o.cellsFrac[d] = float64(cellsOnDay[d]) / float64(o.totalCells)
		}
	}
	for c := radio.C1; c <= radio.C5; c++ {
		o.carrierCars[c] = float64(carsOn[c]) / float64(o.totalCars)
		o.carrierTime[c] = float64(timeOn[c]) / float64(totalTime)
	}
	sort.Float64s(o.full)
	sort.Float64s(o.trunc)
	return o
}

// checkUsage holds the report's fleet usage matrix and session count to
// the oracle's.
func (o perCarOracle) checkUsage(t *testing.T, how string, rep *Report) {
	t.Helper()
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			if got := rep.FleetUsage.At(h, d); got != float64(o.usage[d][h]) {
				t.Fatalf("%s: fleet usage day %d hour %d = %v; the sorted records give %d sessions", how, d, h, got, o.usage[d][h])
			}
		}
	}
	if rep.UsageSessions != o.sessions {
		t.Fatalf("%s: %d usage sessions; the sorted records give %d", how, rep.UsageSessions, o.sessions)
	}
}

func (o perCarOracle) check(t *testing.T, how string, rep *Report) {
	t.Helper()
	p := rep.Presence
	if p.TotalCars != o.totalCars || p.TotalCells != o.totalCells || !slices.Equal(p.CarsFrac, o.carsFrac) || !slices.Equal(p.CellsFrac, o.cellsFrac) {
		t.Fatalf("%s: presence %d cars, %d cells, fractions %v / %v; the sorted records give %d, %d, %v / %v",
			how, p.TotalCars, p.TotalCells, p.CarsFrac, p.CellsFrac, o.totalCars, o.totalCells, o.carsFrac, o.cellsFrac)
	}

	c := rep.Connected
	for _, cdf := range []struct {
		name       string
		got        *stats.CDF
		mean, p995 float64
		want       []float64
	}{
		{"full", c.Full, c.FullMean, c.FullP995, o.full},
		{"truncated", c.Truncated, c.TruncMean, c.TruncP995, o.trunc},
	} {
		xs, ps := cdf.got.Points(72)
		wantXs, wantPs := cdfPoints(cdf.want, 72)
		if !slices.Equal(xs, wantXs) || !slices.Equal(ps, wantPs) ||
			cdf.mean != stats.Mean(cdf.want) || cdf.p995 != stats.Quantile(cdf.want, 0.995) {
			t.Fatalf("%s: connected %s: mean %v, p99.5 %v; the sorted records give %v, %v (or the CDF's points differ)",
				how, cdf.name, cdf.mean, cdf.p995, stats.Mean(cdf.want), stats.Quantile(cdf.want, 0.995))
		}
	}

	if h := rep.DaysHist; h == nil || !slices.Equal(h.Counts, o.daysCount) || h.Under != 0 || h.Over != 0 {
		t.Fatalf("%s: days histogram %+v; the sorted records give %v", how, h, o.daysCount)
	}

	u := rep.Carriers
	if u.TotalCars != o.totalCars || !reflect.DeepEqual(u.CarsFrac, o.carrierCars) || !reflect.DeepEqual(u.TimeFrac, o.carrierTime) {
		t.Fatalf("%s: carriers %d cars, %v by cars, %v by time; the sorted records give %d, %v, %v",
			how, u.TotalCars, u.CarsFrac, u.TimeFrac, o.totalCars, o.carrierCars, o.carrierTime)
	}

	o.checkUsage(t, how, rep)
}

// TestEnginePerCarStagesExact: presence, connected time, days on the
// network, carrier use and the fleet usage matrix equal the naive
// oracle's, float for float, every eachSplit way, on a fleet of over
// 32 768 accepted records — and the usage stage also through an hourly
// fold of TrackHeads buckets, on a fleet whose records for one car never
// overlap, the fold's exactness precondition.
func TestEnginePerCarStagesExact(t *testing.T) {
	ctx := engineCtx()
	start, days, tz := ctx.Period.Start(), ctx.Period.Days(), ctx.TZOffsetSeconds
	records := engineWorkload(40000)
	oracle := newPerCarOracle(start, days, tz, records)
	if oracle.accepted <= 32768 || oracle.sessions < 10000 {
		t.Fatalf("the fleet is too small to check: %d accepted records, %d usage sessions", oracle.accepted, oracle.sessions)
	}
	eachSplit(t, ctx, records, func(how string, rep *Report) { oracle.check(t, how, rep) })

	chains := orderedWorkload(20000)
	oracle = newPerCarOracle(start, days, tz, chains)
	tracked := RunOptions{TrackHeads: true}
	var fold *Streaming
	buckets := 0
	for lo := 0; lo < len(chains); {
		hour := chains[lo].Start.Truncate(time.Hour)
		hi := lo
		for hi < len(chains) && chains[hi].Start.Truncate(time.Hour).Equal(hour) {
			hi++
		}
		s := NewStreamingWithOptions(ctx, tracked)
		if err := s.AddAll(cdr.NewSliceReader(chains[lo:hi])); err != nil {
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
	if n := fold.OrderedOverlaps(); n != 0 {
		t.Fatalf("%d overlap witnesses folding a fleet whose records never overlap", n)
	}
	oracle.checkUsage(t, fmt.Sprintf("MergeOrdered fold of %d hourly buckets", buckets), fold.set.finalize())
}
