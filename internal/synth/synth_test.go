package synth

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/fleet"
	"cellcars/internal/mobility"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// smallWorld builds a quick scene for tests: 300 cars, 14 days, 40 km.
func smallWorld(t *testing.T) *World {
	t.Helper()
	cfg := DefaultConfig(300)
	cfg.WorldSizeKm = 40
	cfg.Period = simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
	return NewWorld(cfg)
}

func TestNewWorldAssembly(t *testing.T) {
	w := smallWorld(t)
	if len(w.Cars) != 300 {
		t.Fatalf("cars = %d", len(w.Cars))
	}
	if w.Net.NumStations() == 0 || w.Net.NumCells() == 0 {
		t.Fatal("no network")
	}
	if w.Load == nil || w.Planner == nil {
		t.Fatal("missing components")
	}
	if len(w.Config.LossDays) != 3 {
		t.Fatalf("loss days = %v, want 3 defaults", w.Config.LossDays)
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(Config{})
}

func TestGenerateDeterministic(t *testing.T) {
	a, sa := smallWorld(t).GenerateAll()
	b, sb := smallWorld(t).GenerateAll()
	if len(a) != len(b) || sa != sb {
		t.Fatalf("nondeterministic: %d vs %d records, %+v vs %+v", len(a), len(b), sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateBasicShape(t *testing.T) {
	w := smallWorld(t)
	records, stats := w.GenerateAll()
	if stats.Records == 0 || int64(len(records)) != stats.Records {
		t.Fatalf("records %d vs stats %d", len(records), stats.Records)
	}
	// ~300 cars × 14 days: expect a substantial stream.
	perCarDay := float64(len(records)) / (300 * 14)
	if perCarDay < 3 || perCarDay > 80 {
		t.Fatalf("records per car-day = %.1f, implausible", perCarDay)
	}
	if !sort.SliceIsSorted(records, func(i, j int) bool { return records[i].Before(records[j]) }) {
		t.Fatal("GenerateAll output not sorted")
	}
	for i, r := range records {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if !w.Config.Period.Contains(r.Start) {
			t.Fatalf("record %d starts outside period", i)
		}
	}
	if stats.CarsWithData < 280 {
		t.Fatalf("only %d/300 cars produced data over two weeks", stats.CarsWithData)
	}
	if stats.Ghosts == 0 {
		t.Fatal("no ghost records injected")
	}
	if stats.Stuck == 0 {
		t.Fatal("no stuck teardowns injected")
	}
	if stats.Dropped == 0 {
		t.Fatal("no loss-day drops")
	}
}

func TestGhostRecordsAreExactlyOneHour(t *testing.T) {
	w := smallWorld(t)
	records, stats := w.GenerateAll()
	hourCount := int64(0)
	for _, r := range records {
		if r.Duration == time.Hour {
			hourCount++
		}
	}
	if hourCount == 0 {
		t.Fatal("no exactly-one-hour records in stream")
	}
	// Ghosts can be clamped at the period edge or dropped on loss days,
	// so the stream may hold slightly fewer than injected; organic hits
	// at exactly 3600 s are possible but rare.
	if hourCount > stats.Ghosts+20 {
		t.Fatalf("one-hour records %d far exceed injected ghosts %d", hourCount, stats.Ghosts)
	}
}

func TestDataLossDaysThinner(t *testing.T) {
	w := smallWorld(t)
	records, _ := w.GenerateAll()
	perDay := make([]int, w.Config.Period.Days())
	for _, r := range records {
		perDay[w.Config.Period.DayIndex(r.Start)]++
	}
	loss := w.Config.LossDays[0]
	// Compare the loss day with the same weekday one week earlier.
	ref := loss - 7
	if ref < 0 {
		t.Skip("period too short for weekday-matched comparison")
	}
	if perDay[loss] >= perDay[ref] {
		t.Fatalf("loss day %d has %d records, reference day %d has %d",
			loss, perDay[loss], ref, perDay[ref])
	}
}

func TestConnectedIntervalsInvariant(t *testing.T) {
	w := smallWorld(t)
	rng := newTestRand(7)
	for trial := 0; trial < 200; trial++ {
		legDur := time.Duration(3+trial%57) * time.Minute
		ivs := w.connectedIntervals(legDur, rng)
		var prevEnd time.Duration = -1
		for i, iv := range ivs {
			if iv.start < 0 || iv.end > legDur {
				t.Fatalf("interval %d [%v,%v) outside leg %v", i, iv.start, iv.end, legDur)
			}
			if iv.end <= iv.start {
				t.Fatalf("interval %d empty [%v,%v)", i, iv.start, iv.end)
			}
			if iv.start <= prevEnd {
				t.Fatalf("interval %d overlaps previous (start %v <= prev end %v)", i, iv.start, prevEnd)
			}
			prevEnd = iv.end
		}
		if len(ivs) == 0 {
			t.Fatalf("leg of %v produced no connected time", legDur)
		}
	}
}

func TestChooseCarrierRespectsCapabilities(t *testing.T) {
	w := smallWorld(t)
	rng := newTestRand(11)
	for bs := radio.BSID(0); int(bs) < w.Net.NumStations(); bs += 7 {
		for _, m := range []fleet.Modem{fleet.Modem3GOnly, fleet.ModemNoC4, fleet.ModemFull, fleet.ModemNextGen} {
			c, ok := w.chooseCarrier(bs, m, rng)
			if !ok {
				continue
			}
			if !m.Supports(c) {
				t.Fatalf("modem %v assigned unsupported carrier %v", m, c)
			}
			if !w.Net.Station(bs).HasCarrier(c) {
				t.Fatalf("station %d assigned absent carrier %v", bs, c)
			}
		}
	}
}

func TestChooseCarrierEmptyIntersection(t *testing.T) {
	w := smallWorld(t)
	rng := newTestRand(13)
	// Find a station without C2: a 3G-only modem must get no carrier.
	for bs := radio.BSID(0); int(bs) < w.Net.NumStations(); bs++ {
		if !w.Net.Station(bs).HasCarrier(radio.C2) {
			if _, ok := w.chooseCarrier(bs, fleet.Modem3GOnly, rng); ok {
				t.Fatal("3G-only car connected at an LTE-only site")
			}
			return
		}
	}
	t.Skip("every station has C2 in this seed")
}

func TestCarrierTimeShares(t *testing.T) {
	w := smallWorld(t)
	records, _ := w.GenerateAll()
	var total float64
	share := map[radio.CarrierID]float64{}
	for _, r := range records {
		s := r.Duration.Seconds()
		share[r.Cell.Carrier()] += s
		total += s
	}
	for c := range share {
		share[c] /= total
	}
	// Table 3 target shape: C3 dominates (~52%), then C4 (~22%),
	// C1 (~19%), C2 (~7%), C5 ~0. Loose bands: shape, not exact values.
	if !(share[radio.C3] > share[radio.C4] && share[radio.C4] >= share[radio.C1]*0.7 && share[radio.C1] > share[radio.C2]) {
		t.Fatalf("carrier time shares out of shape: %v", share)
	}
	if share[radio.C3] < 0.35 || share[radio.C3] > 0.70 {
		t.Fatalf("C3 share %.3f outside band", share[radio.C3])
	}
	if share[radio.C5] > 0.01 {
		t.Fatalf("C5 share %.5f should be negligible", share[radio.C5])
	}
}

func TestStickyCarsProduceLongRecords(t *testing.T) {
	w := smallWorld(t)
	records, _ := w.GenerateAll()
	sticky := map[cdr.CarID]bool{}
	for i := range w.Cars {
		if w.Cars[i].Sticky {
			sticky[cdr.CarID(w.Cars[i].ID)] = true
		}
	}
	if len(sticky) == 0 {
		t.Skip("no sticky cars in this seed")
	}
	var stickyLong, stickyAll, otherLong, otherAll float64
	for _, r := range records {
		long := r.Duration > 10*time.Minute
		if sticky[r.Car] {
			stickyAll++
			if long {
				stickyLong++
			}
		} else {
			otherAll++
			if long {
				otherLong++
			}
		}
	}
	if stickyAll == 0 || otherAll == 0 {
		t.Skip("insufficient data")
	}
	if stickyLong/stickyAll <= otherLong/otherAll {
		t.Fatalf("sticky cars not producing more long records: %.4f vs %.4f",
			stickyLong/stickyAll, otherLong/otherAll)
	}
}

func TestVisitAt(t *testing.T) {
	visits := []mobility.Visit{
		{BS: 1, Enter: 0, Exit: time.Minute},
		{BS: 2, Enter: time.Minute, Exit: 3 * time.Minute},
	}
	if got := visitAt(visits, 30*time.Second); got != 0 {
		t.Fatalf("visitAt(30s) = %d", got)
	}
	if got := visitAt(visits, 90*time.Second); got != 1 {
		t.Fatalf("visitAt(90s) = %d", got)
	}
	// Past the last exit clamps to the final visit.
	if got := visitAt(visits, time.Hour); got != 1 {
		t.Fatalf("visitAt(1h) = %d", got)
	}
}

// newTestRand returns a deterministic source for internal-logic tests.
func newTestRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0xBEEF))
}
