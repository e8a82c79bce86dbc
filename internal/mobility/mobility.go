// Package mobility turns fleet trip plans into concrete trips: timed
// sequences of base-station visits along routes through the world.
// A trip is one driving leg; round-trip plans (errands, weekend
// drives) expand into an outbound and a return leg separated by a
// dwell with the engine off.
//
// Routes are straight-line paths sampled at sub-spacing resolution;
// each sample snaps to the nearest base station, and consecutive
// samples under the same station collapse into one visit. Travel
// speed follows the local density class (slow downtown, fast rural),
// so visit durations — and therefore per-cell connection durations
// (Figure 9) and handover counts (§4.5) — fall out of the geography
// rather than being drawn from a target distribution.
package mobility

import (
	"fmt"
	"math/rand/v2"
	"time"

	"cellcars/internal/fleet"
	"cellcars/internal/geo"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// Visit is one contiguous stretch of a trip spent under a single base
// station.
type Visit struct {
	// BS is the serving base station.
	BS radio.BSID
	// Enter and Exit are offsets from the trip start.
	Enter, Exit time.Duration
	// Pos is a representative position during the visit, used for
	// sector selection.
	Pos geo.Point
}

// Trip is one driving leg.
type Trip struct {
	// Start is the (UTC) instant the engine starts.
	Start time.Time
	// Kind is the plan kind that produced the leg.
	Kind fleet.TripKind
	// Visits is the base-station sequence, in time order, covering
	// [0, Duration) without gaps.
	Visits []Visit
}

// Duration returns the total driving time of the leg.
func (t *Trip) Duration() time.Duration {
	if len(t.Visits) == 0 {
		return 0
	}
	return t.Visits[len(t.Visits)-1].Exit
}

// End returns the instant the leg ends.
func (t *Trip) End() time.Time { return t.Start.Add(t.Duration()) }

// SpeedKmh returns the modelled driving speed for a density class.
func SpeedKmh(d geo.Density) float64 {
	switch d {
	case geo.Urban:
		return 20
	case geo.Suburban:
		return 35
	case geo.Rural:
		return 70
	default:
		return 35
	}
}

// Planner generates daily trips for cars over a network and study
// period.
type Planner struct {
	net    *radio.Network
	period simtime.Period

	// stepKm is the route sampling resolution.
	stepKm float64
}

// NewPlanner returns a planner over the network and period.
func NewPlanner(net *radio.Network, period simtime.Period) *Planner {
	if net == nil {
		panic("mobility: NewPlanner requires a network")
	}
	return &Planner{net: net, period: period, stepKm: 0.5}
}

// DayTrips generates the car's trips for the given study day, in start
// order. Trips whose plan dictates a local start late in the day may
// begin after midnight UTC of the next day; callers clamp to the
// period. It panics on a day outside the period.
func (p *Planner) DayTrips(car *fleet.Car, day int, rng *rand.Rand) []Trip {
	if day < 0 || day >= p.period.Days() {
		panic(fmt.Sprintf("mobility: day %d outside period", day))
	}
	weekday := (int(p.period.Weekday(day)) + 6) % 7 // Monday=0

	var trips []Trip
	for _, plan := range car.Archetype.Plans() {
		if !plan.Days[weekday] || rng.Float64() >= plan.Prob {
			continue
		}
		startLocal := plan.StartHour + rng.NormFloat64()*plan.StartStd
		if startLocal < 0 {
			startLocal = 0
		}
		if startLocal > 23.9 {
			startLocal = 23.9
		}
		start := p.period.DayStart(day).
			Add(time.Duration(startLocal*3600) * time.Second).
			Add(-time.Duration(car.TZOffsetSeconds) * time.Second)

		from, to := p.endpoints(car, plan, rng)
		out := p.route(from, to, start, plan.Kind)
		if len(out.Visits) == 0 {
			continue
		}
		trips = append(trips, out)

		if plan.Kind == fleet.KindErrand || plan.Kind == fleet.KindLong {
			// Round trip: dwell at the destination with the engine off,
			// then drive home.
			dwell := time.Duration(15+rng.Float64()*90) * time.Minute
			back := p.route(to, from, out.End().Add(dwell), plan.Kind)
			if len(back.Visits) > 0 {
				trips = append(trips, back)
			}
		}
	}
	sortTrips(trips)
	return trips
}

// endpoints resolves a plan's origin and destination for the car.
func (p *Planner) endpoints(car *fleet.Car, plan fleet.TripPlan, rng *rand.Rand) (from, to geo.Point) {
	b := p.net.World.Bounds
	switch plan.Dest {
	case fleet.DestWork:
		return car.Home, car.Work
	case fleet.DestHome:
		return car.Work, car.Home
	case fleet.DestLocal:
		r := 1.5 + rng.Float64()*4.5
		dst := b.Clamp(car.Home.Add((rng.Float64()*2-1)*r, (rng.Float64()*2-1)*r))
		return car.Home, dst
	default: // DestFar
		r := 8 + rng.Float64()*22
		dst := b.Clamp(car.Home.Add((rng.Float64()*2-1)*r, (rng.Float64()*2-1)*r))
		return car.Home, dst
	}
}

// route builds the visit sequence for a leg from a to b starting at
// start. A degenerate leg (a ≈ b) still produces one short visit under
// the local station: the engine ran, so the car appeared on the
// network.
func (p *Planner) route(a, b geo.Point, start time.Time, kind fleet.TripKind) Trip {
	trip := Trip{Start: start, Kind: kind}
	dist := a.Dist(b)
	if dist < p.stepKm {
		bs := p.net.NearestStation(a)
		trip.Visits = []Visit{{BS: bs, Enter: 0, Exit: 2 * time.Minute, Pos: a}}
		return trip
	}

	n := int(dist/p.stepKm) + 1
	elapsed := time.Duration(0)
	var visits []Visit
	prev := a
	for i := 0; i <= n; i++ {
		pos := a.Lerp(b, float64(i)/float64(n))
		segKm := prev.Dist(pos)
		speed := SpeedKmh(p.net.World.DensityAt(pos))
		dt := time.Duration(segKm / speed * float64(time.Hour))
		elapsed += dt
		bs := p.net.NearestStation(pos)
		if len(visits) > 0 && visits[len(visits)-1].BS == bs {
			visits[len(visits)-1].Exit = elapsed
		} else {
			if len(visits) > 0 {
				visits[len(visits)-1].Exit = elapsed
			}
			visits = append(visits, Visit{BS: bs, Enter: elapsed, Exit: elapsed, Pos: pos})
		}
		prev = pos
	}
	// Normalize: first visit starts at 0; final exit is total travel time.
	if len(visits) > 0 {
		visits[0].Enter = 0
		if visits[len(visits)-1].Exit == visits[len(visits)-1].Enter {
			visits[len(visits)-1].Exit += 30 * time.Second
		}
	}
	trip.Visits = visits
	return trip
}

func sortTrips(trips []Trip) {
	// Insertion sort: daily trip counts are tiny.
	for i := 1; i < len(trips); i++ {
		for j := i; j > 0 && trips[j].Start.Before(trips[j-1].Start); j-- {
			trips[j], trips[j-1] = trips[j-1], trips[j]
		}
	}
}
