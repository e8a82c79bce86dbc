package load

import (
	"math/rand/v2"
	"testing"
	"time"

	"cellcars/internal/geo"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

func testModel(t *testing.T) (*Model, *radio.Network) {
	t.Helper()
	net := radio.Build(radio.Config{World: geo.DefaultWorld(80)}, rand.New(rand.NewPCG(1, 2)))
	period := simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
	return New(net, period, DefaultConfig()), net
}

func TestUtilizationInRange(t *testing.T) {
	m, net := testModel(t)
	cells := net.AllCells()
	for _, cell := range cells[:10] {
		for bin := 0; bin < m.period.NumBins(); bin += 13 {
			u := m.Utilization(cell, bin)
			if u < 0.01 || u > 0.995 {
				t.Fatalf("utilization %v out of range for %v bin %d", u, cell, bin)
			}
		}
	}
}

func TestUtilizationDeterministic(t *testing.T) {
	m, net := testModel(t)
	cell := net.AllCells()[3]
	a := m.Utilization(cell, 100)
	b := m.Utilization(cell, 100)
	if a != b {
		t.Fatalf("nondeterministic utilization: %v vs %v", a, b)
	}
	m2 := New(net, m.period, DefaultConfig())
	if m2.Utilization(cell, 100) != a {
		t.Fatal("same config must give same utilization")
	}
	cfg := DefaultConfig()
	cfg.Seed = 999
	m3 := New(net, m.period, cfg)
	diff := false
	for bin := 0; bin < 50; bin++ {
		if m3.Utilization(cell, bin) != m.Utilization(cell, bin) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seed should change utilization")
	}
}

func TestUtilizationPanicsOutsidePeriod(t *testing.T) {
	m, net := testModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Utilization(net.AllCells()[0], m.period.NumBins())
}

func TestArchetypeAssignment(t *testing.T) {
	m, net := testModel(t)
	counts := map[Archetype]int{}
	chronicOutsideUrban := 0
	for _, cell := range net.AllCells() {
		a := m.ArchetypeOf(cell)
		counts[a]++
		if a == Chronic && net.Station(cell.BS()).Density != geo.Urban {
			chronicOutsideUrban++
		}
	}
	if counts[Chronic] == 0 {
		t.Fatal("no chronic cells assigned")
	}
	if chronicOutsideUrban > 0 {
		t.Fatalf("%d chronic cells outside urban core", chronicOutsideUrban)
	}
	for _, a := range []Archetype{Residential, Business, Highway, Venue} {
		if counts[a] == 0 {
			t.Fatalf("archetype %v never assigned: %v", a, counts)
		}
	}
}

func TestArchetypeStable(t *testing.T) {
	m, net := testModel(t)
	for _, cell := range net.AllCells()[:20] {
		if m.ArchetypeOf(cell) != m.ArchetypeOf(cell) {
			t.Fatal("archetype not stable")
		}
	}
}

func TestDiurnalShapePeaks(t *testing.T) {
	// Business cells must be busier at 13:00 than 03:00 on a weekday.
	if shapeOf(Business, 13, 2) <= shapeOf(Business, 3, 2) {
		t.Fatal("business shape lacks daytime peak")
	}
	// Highway cells must show commute peaks above midday on weekdays.
	if shapeOf(Highway, 8, 1) <= shapeOf(Highway, 12, 1)*0.9 {
		t.Fatal("highway shape lacks morning commute peak")
	}
	if shapeOf(Highway, 17.5, 1) <= shapeOf(Highway, 3, 1) {
		t.Fatal("highway shape lacks evening commute peak")
	}
	// Venue cells peak on weekends.
	if shapeOf(Venue, 15, 5) <= shapeOf(Venue, 15, 2) {
		t.Fatal("venue shape must peak on weekends")
	}
	// Business cells are quieter on weekends.
	if shapeOf(Business, 13, 6) >= shapeOf(Business, 13, 2) {
		t.Fatal("business shape must drop on weekends")
	}
	// Chronic cells stay high overnight relative to others.
	if shapeOf(Chronic, 2, 2) < 0.2 {
		t.Fatalf("chronic overnight shape = %v, want >= 0.2", shapeOf(Chronic, 2, 2))
	}
	// Unknown archetype shape is 0.
	if shapeOf(Archetype(99), 12, 0) != 0 {
		t.Fatal("unknown archetype shape should be 0")
	}
}

func TestArchetypeString(t *testing.T) {
	want := map[Archetype]string{
		Residential: "residential", Business: "business", Highway: "highway",
		Venue: "venue", Chronic: "chronic",
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("%d = %q", a, a.String())
		}
	}
	if Archetype(42).String() != "archetype(42)" {
		t.Fatal("unknown archetype name")
	}
}

func TestChronicCellsAreVeryBusy(t *testing.T) {
	m, net := testModel(t)
	var chronicAvg, otherAvg float64
	var nChronic, nOther int
	for _, cell := range net.AllCells() {
		avg := m.AvgUtilization(cell)
		if m.ArchetypeOf(cell) == Chronic {
			chronicAvg += avg
			nChronic++
		} else {
			otherAvg += avg
			nOther++
		}
	}
	if nChronic == 0 {
		t.Skip("no chronic cells in this topology seed")
	}
	chronicAvg /= float64(nChronic)
	otherAvg /= float64(nOther)
	if chronicAvg <= otherAvg+0.15 {
		t.Fatalf("chronic avg %v not clearly above others %v", chronicAvg, otherAvg)
	}
	if chronicAvg < 0.60 {
		t.Fatalf("chronic avg %v too low to ever exceed the very-busy threshold", chronicAvg)
	}
}

func TestVeryBusyCellsMostlyChronic(t *testing.T) {
	m, _ := testModel(t)
	vb := m.VeryBusyCells()
	if len(vb) == 0 {
		t.Fatal("no very busy cells; Figure 11 needs a non-empty population")
	}
	chronic := 0
	for _, cell := range vb {
		if m.ArchetypeOf(cell) == Chronic {
			chronic++
		}
	}
	if float64(chronic) < 0.8*float64(len(vb)) {
		t.Fatalf("only %d/%d very-busy cells are chronic", chronic, len(vb))
	}
}

func TestBusinessCellWeekdayOverWeekend(t *testing.T) {
	m, net := testModel(t)
	var cell radio.CellKey
	found := false
	for _, c := range net.AllCells() {
		if m.ArchetypeOf(c) == Business {
			cell, found = c, true
			break
		}
	}
	if !found {
		t.Skip("no business cell")
	}
	// Wednesday 13:00 vs Sunday 13:00, summed over the period's weeks.
	var wed, sun float64
	for day := 0; day < m.period.Days(); day++ {
		u := m.Utilization(cell, day*simtime.BinsPerDay+13*simtime.BinsPerHour)
		switch m.period.Weekday(day) {
		case time.Wednesday:
			wed += u
		case time.Sunday:
			sun += u
		}
	}
	if wed <= sun {
		t.Fatalf("business cell: Wednesday 13:00 (%v) not above Sunday (%v)", wed, sun)
	}
}

func TestSaturate(t *testing.T) {
	m, net := testModel(t)
	cells := net.AllCells()[:2]
	// The paper's test: download starts 20:45 UTC, lasts 4 hours. The
	// window runs off the end of the day and is clamped, as in Figure 1.
	res := Saturate(m, cells, 3, 20*time.Hour+45*time.Minute, 4*time.Hour, 0.97)
	if res.StartBin != 83 || res.EndBin != simtime.BinsPerDay {
		t.Fatalf("window [%d,%d), want [83,%d)", res.StartBin, res.EndBin, simtime.BinsPerDay)
	}
	if got := res.PeakTestUtilization(0); got < 0.9 {
		t.Fatalf("peak utilization %v during greedy window", got)
	}
}

func TestSaturatePinsUtilizationHigh(t *testing.T) {
	m, net := testModel(t)
	cells := net.AllCells()[:2]
	res := Saturate(m, cells, 3, 18*time.Hour, 4*time.Hour, 0.97)
	for i := range cells {
		peak := res.PeakTestUtilization(i)
		if peak < 0.9 {
			t.Fatalf("cell %d peak %v; greedy flow should pin near 100%%", i, peak)
		}
		// Outside the window the test curve matches the plain model.
		day := res.Day
		for b := 0; b < res.StartBin; b++ {
			want := m.Utilization(cells[i], day*simtime.BinsPerDay+b)
			if res.Test[i][b] != clamp(want, 0, 1) {
				t.Fatalf("test curve altered outside window at bin %d", b)
			}
		}
		// Average curve should look like a normal day: its mean must be
		// well below the saturated peak.
		var avgMean float64
		for _, v := range res.Average[i] {
			avgMean += v
		}
		avgMean /= float64(simtime.BinsPerDay)
		if avgMean > peak-0.1 {
			t.Fatalf("average curve (%v) too close to saturated peak (%v)", avgMean, peak)
		}
	}
}

func TestSaturatePanics(t *testing.T) {
	m, net := testModel(t)
	cells := net.AllCells()[:1]
	cases := map[string]func(){
		"day out of range": func() { Saturate(m, cells, 99, 0, time.Hour, 0.9) },
		"start outside":    func() { Saturate(m, cells, 0, 25*time.Hour, time.Hour, 0.9) },
		"zero duration":    func() { Saturate(m, cells, 0, time.Hour, 0, 0.9) },
		"bad share":        func() { Saturate(m, cells, 0, time.Hour, time.Hour, 0) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSaturateWindowBins(t *testing.T) {
	m, net := testModel(t)
	res := Saturate(m, net.AllCells()[:1], 0, 0, simtime.BinWidth, 0.5)
	if res.StartBin != 0 || res.EndBin != 1 {
		t.Fatalf("window [%d,%d), want [0,1)", res.StartBin, res.EndBin)
	}
}
