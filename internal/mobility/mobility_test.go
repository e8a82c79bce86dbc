package mobility

import (
	"math/rand/v2"
	"testing"
	"time"

	"cellcars/internal/fleet"
	"cellcars/internal/geo"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

func testSetup(t *testing.T) (*Planner, []fleet.Car) {
	t.Helper()
	world := geo.DefaultWorld(40)
	net := radio.Build(radio.Config{World: world}, rand.New(rand.NewPCG(1, 2)))
	period := simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
	cars := fleet.Generate(fleet.DefaultConfig(200), world, rand.New(rand.NewPCG(3, 4)))
	return NewPlanner(net, period), cars
}

func TestSpeedOrdering(t *testing.T) {
	if !(SpeedKmh(geo.Urban) < SpeedKmh(geo.Suburban) && SpeedKmh(geo.Suburban) < SpeedKmh(geo.Rural)) {
		t.Fatal("speeds must increase with sparsity")
	}
	if SpeedKmh(geo.Density(9)) != SpeedKmh(geo.Suburban) {
		t.Fatal("unknown density should fall back to suburban speed")
	}
}

func TestDayTripsStructure(t *testing.T) {
	p, cars := testSetup(t)
	rng := rand.New(rand.NewPCG(5, 6))
	total := 0
	for ci := range cars {
		for day := 0; day < 7; day++ {
			trips := p.DayTrips(&cars[ci], day, rng)
			total += len(trips)
			var prevStart time.Time
			for ti, trip := range trips {
				if ti > 0 && trip.Start.Before(prevStart) {
					t.Fatalf("car %d day %d: trips out of order", ci, day)
				}
				prevStart = trip.Start
				if len(trip.Visits) == 0 {
					t.Fatalf("car %d day %d: empty trip", ci, day)
				}
				// Visits contiguous, starting at 0, monotone.
				if trip.Visits[0].Enter != 0 {
					t.Fatalf("first visit enters at %v", trip.Visits[0].Enter)
				}
				for vi, v := range trip.Visits {
					if v.Exit <= v.Enter {
						t.Fatalf("visit %d has non-positive duration [%v,%v)", vi, v.Enter, v.Exit)
					}
					if vi > 0 {
						prev := trip.Visits[vi-1]
						if v.Enter != prev.Exit {
							t.Fatalf("visit %d not contiguous: enter %v after exit %v", vi, v.Enter, prev.Exit)
						}
						if v.BS == prev.BS {
							t.Fatalf("visit %d repeats base station %d", vi, v.BS)
						}
					}
				}
				if trip.Duration() <= 0 {
					t.Fatalf("trip duration %v", trip.Duration())
				}
				if got := trip.End(); !got.Equal(trip.Start.Add(trip.Duration())) {
					t.Fatalf("End mismatch")
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no trips generated for 200 cars over a week")
	}
}

func TestCommuterWeekdayPattern(t *testing.T) {
	p, _ := testSetup(t)
	world := geo.DefaultWorld(40)
	car := fleet.Car{
		ID: 1, Archetype: fleet.CommuterBusy,
		Home: geo.Point{X: 8, Y: 20}, Work: world.Bounds.Center(),
		TZOffsetSeconds: -5 * 3600,
	}
	rng := rand.New(rand.NewPCG(7, 8))
	weekdayTrips, weekendTrips := 0, 0
	for rep := 0; rep < 5; rep++ {
		for day := 0; day < 7; day++ {
			n := len(p.DayTrips(&car, day, rng))
			if day < 5 {
				weekdayTrips += n
			} else {
				weekendTrips += n
			}
		}
	}
	if weekdayTrips <= weekendTrips {
		t.Fatalf("commuter: weekday trips %d not above weekend %d", weekdayTrips, weekendTrips)
	}
	// ~2 commute legs per weekday across 25 weekdays → expect >= 30.
	if weekdayTrips < 30 {
		t.Fatalf("commuter made only %d weekday trips in 25 days", weekdayTrips)
	}
}

func TestCommuteCrossesMultipleStations(t *testing.T) {
	p, _ := testSetup(t)
	world := geo.DefaultWorld(40)
	// A suburban home ~12 km from the core.
	car := fleet.Car{
		ID: 2, Archetype: fleet.CommuterBusy,
		Home: geo.Point{X: 10, Y: 20}, Work: world.Bounds.Center(),
		TZOffsetSeconds: -5 * 3600,
	}
	rng := rand.New(rand.NewPCG(9, 10))
	maxVisits := 0
	for day := 0; day < 5; day++ {
		for _, trip := range p.DayTrips(&car, day, rng) {
			if trip.Kind == fleet.KindCommuteOut && len(trip.Visits) > maxVisits {
				maxVisits = len(trip.Visits)
			}
		}
	}
	if maxVisits < 3 {
		t.Fatalf("a 10 km commute visits only %d stations; expected >= 3 for handover analysis", maxVisits)
	}
}

func TestErrandIsRoundTrip(t *testing.T) {
	p, _ := testSetup(t)
	car := fleet.Car{
		ID: 3, Archetype: fleet.Occasional,
		Home: geo.Point{X: 20, Y: 12}, Work: geo.Point{X: 22, Y: 12},
		TZOffsetSeconds: -5 * 3600,
	}
	rng := rand.New(rand.NewPCG(11, 12))
	for day := 0; day < 14; day++ {
		trips := p.DayTrips(&car, day%7, rng)
		if len(trips) == 0 {
			continue
		}
		if len(trips)%2 != 0 {
			t.Fatalf("errand produced %d legs, want out+back pairs", len(trips))
		}
		// The return leg starts after the outbound leg ends (dwell > 0).
		if !trips[1].Start.After(trips[0].End()) {
			t.Fatal("return leg overlaps outbound leg")
		}
		return
	}
	t.Skip("occasional car never drove in 14 sampled days")
}

func TestTimeZoneShiftsUTCStart(t *testing.T) {
	p, _ := testSetup(t)
	car := fleet.Car{
		ID: 4, Archetype: fleet.CommuterEarly,
		Home: geo.Point{X: 12, Y: 20}, Work: geo.Point{X: 20, Y: 20},
		TZOffsetSeconds: -5 * 3600,
	}
	rng := rand.New(rand.NewPCG(13, 14))
	for day := 0; day < 5; day++ {
		for _, trip := range p.DayTrips(&car, day, rng) {
			if trip.Kind != fleet.KindCommuteOut {
				continue
			}
			// Local 5:36 ± noise → UTC = local + 5 h, so ~10:36 UTC.
			utcHour := trip.Start.UTC().Sub(p.period.DayStart(day)).Hours()
			if utcHour < 9 || utcHour > 13 {
				t.Fatalf("commute-out at UTC hour %.1f, want ~10.6", utcHour)
			}
			return
		}
	}
	t.Fatal("no commute-out generated in 5 weekdays")
}

func TestDegenerateRouteStillConnects(t *testing.T) {
	p, _ := testSetup(t)
	trip := p.route(geo.Point{X: 20, Y: 20}, geo.Point{X: 20.1, Y: 20}, p.period.Start(), fleet.KindErrand)
	if len(trip.Visits) != 1 {
		t.Fatalf("degenerate route visits = %d, want 1", len(trip.Visits))
	}
	if trip.Visits[0].Exit <= trip.Visits[0].Enter {
		t.Fatal("degenerate visit has no duration")
	}
}

func TestRouteTravelTimePlausible(t *testing.T) {
	p, _ := testSetup(t)
	a := geo.Point{X: 5, Y: 20}
	b := geo.Point{X: 35, Y: 20}
	trip := p.route(a, b, p.period.Start(), fleet.KindLong)
	dist := a.Dist(b)
	hours := trip.Duration().Hours()
	// 30 km across mixed densities: between 30/90=0.33h (all rural) and
	// 30/30=1h (all urban).
	if hours < dist/95 || hours > dist/25 {
		t.Fatalf("30 km leg took %.2f h", hours)
	}
}

func TestDayTripsPanicsOutsidePeriod(t *testing.T) {
	p, cars := testSetup(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.DayTrips(&cars[0], 99, rand.New(rand.NewPCG(1, 1)))
}

func TestNewPlannerPanicsOnNilNetwork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlanner(nil, simtime.DefaultPeriod())
}

func TestEmptyTripDuration(t *testing.T) {
	var trip Trip
	if trip.Duration() != 0 {
		t.Fatal("empty trip duration")
	}
}

// TestTripsMayCrossMidnightUTC: a late-evening local trip starts the
// next UTC day; the planner must emit it (clamping to the period is
// the generator's job).
func TestTripsMayCrossMidnightUTC(t *testing.T) {
	p, _ := testSetup(t)
	car := fleet.Car{
		ID: 9, Archetype: fleet.NightShift,
		Home: geo.Point{X: 15, Y: 20}, Work: geo.Point{X: 20, Y: 20},
		TZOffsetSeconds: -5 * 3600,
	}
	rng := rand.New(rand.NewPCG(31, 32))
	crossed := false
	for day := 0; day < 5; day++ {
		for _, trip := range p.DayTrips(&car, day, rng) {
			// 21:30 local = 02:30 UTC next day.
			if p.period.DayIndex(trip.Start) != day && p.period.Contains(trip.Start) {
				crossed = true
			}
		}
	}
	if !crossed {
		t.Fatal("night-shift trips never crossed midnight UTC")
	}
}
