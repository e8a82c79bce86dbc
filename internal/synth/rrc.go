package synth

import (
	"math/rand/v2"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/fleet"
	"cellcars/internal/mobility"
	"cellcars/internal/radio"
)

// interval is a connected stretch within a leg, as offsets from the
// leg start.
type interval struct {
	start, end time.Duration
}

// legRecords converts one driving leg into radio-level CDR records:
// data-activity bursts become RRC connections that ride across the
// leg's base-station visits (handovers), end 10-12 s after activity
// stops, and occasionally linger (stuck teardown) or duplicate as
// spurious one-hour ghosts.
func (w *World) legRecords(car *fleet.Car, trip *mobility.Trip, rng *rand.Rand, stats *Stats) []cdr.Record {
	legDur := trip.Duration()
	if legDur <= 0 || len(trip.Visits) == 0 {
		return nil
	}
	intervals := w.connectedIntervals(legDur, rng)
	if len(intervals) == 0 {
		return nil
	}

	// The modem camps on one carrier for the whole leg, re-selecting
	// only where that carrier is not deployed. Without this stickiness
	// every idle-reconnect would flip carriers and the §4.5 handover
	// mix would show far more inter-carrier transitions than the
	// "negligible numbers" the paper reports.
	legCarrier, legOK := w.chooseCarrier(trip.Visits[0].BS, car.Modem, rng)

	var records []cdr.Record
	for _, iv := range intervals {
		carrier, ok := legCarrier, legOK
		if !ok {
			carrier, ok = w.chooseCarrier(trip.Visits[visitAt(trip.Visits, iv.start)].BS, car.Modem, rng)
			if !ok {
				continue
			}
			legCarrier, legOK = carrier, true
		}
		last := len(records)
		for vi := range trip.Visits {
			v := &trip.Visits[vi]
			s, e := maxDur(iv.start, v.Enter), minDur(iv.end, v.Exit)
			if e-s < time.Second {
				continue
			}
			st := w.Net.Station(v.BS)
			vc := carrier
			if !st.HasCarrier(vc) || !car.Modem.Supports(vc) {
				var ok2 bool
				vc, ok2 = w.chooseCarrier(v.BS, car.Modem, rng)
				if !ok2 {
					continue
				}
				carrier, legCarrier = vc, vc
			}
			sector := st.SectorToward(v.Pos)
			cell := radio.MakeCellKey(v.BS, sector, vc)

			// Rare intra-station reselection: split the visit across two
			// cells of the same base station, producing the paper's
			// "negligible numbers" of inter-sector/carrier/tech handovers.
			if e-s > 90*time.Second && rng.Float64() < 0.004 {
				mid := s + (e-s)/2
				alt := w.reselectCell(st, cell, car.Modem, rng)
				if alt != cell {
					records = append(records,
						w.record(car, trip, cell, s, mid),
						w.record(car, trip, alt, mid, e))
					continue
				}
			}
			records = append(records, w.record(car, trip, cell, s, e))
		}
		// Stuck teardown: the network side fails to release a session
		// and its final record lingers long after the radio moved on.
		// The paper's Figure 9 implies this affects a large share of
		// records (its 73rd duration percentile sits at the 600 s
		// truncation cap), so the fault applies per connection, not
		// just at trip end.
		if len(records) > last {
			p, mean := w.Config.StuckProb, w.Config.StuckMean
			if car.Sticky {
				p, mean = w.Config.StickyStuckProb, w.Config.StickyStuckMean
			}
			if rng.Float64() < p {
				extra := time.Duration(rng.ExpFloat64() * float64(mean))
				records[len(records)-1].Duration += extra.Truncate(time.Second)
				stats.Stuck++
			}
		}
	}

	// Spurious exactly-one-hour ghost record (§3 preprocessing target).
	if rng.Float64() < w.Config.GhostProb {
		v := &trip.Visits[rng.IntN(len(trip.Visits))]
		if carrier, ok := w.chooseCarrier(v.BS, car.Modem, rng); ok {
			st := w.Net.Station(v.BS)
			cell := radio.MakeCellKey(v.BS, st.SectorToward(v.Pos), carrier)
			g := w.record(car, trip, cell, v.Enter, v.Enter+time.Second)
			g.Duration = time.Hour
			if g.Validate() == nil && w.Config.Period.Contains(g.Start) {
				records = append(records, g)
				stats.Ghosts++
			}
		}
	}

	// Clamp to the study period and drop empties.
	out := records[:0]
	for _, r := range records {
		start, d := w.Config.Period.Clamp(r.Start, r.Duration)
		if d < time.Second {
			continue
		}
		r.Start, r.Duration = start, d.Truncate(time.Second)
		out = append(out, r)
	}
	cdr.Sort(out)
	return out
}

// record builds a CDR record for the car on the cell covering the leg
// offsets [s, e).
func (w *World) record(car *fleet.Car, trip *mobility.Trip, cell radio.CellKey, s, e time.Duration) cdr.Record {
	start := trip.Start.Add(s).Truncate(time.Second)
	return cdr.Record{
		Car:      cdr.CarID(car.ID),
		Cell:     cell,
		Start:    start,
		Duration: (e - s).Truncate(time.Second),
	}
}

// connectedIntervals builds the leg's RRC-connected stretches: data
// bursts alternating with silence, where a connection survives gaps
// shorter than the idle timeout and tears down idleTimeout after the
// last activity.
func (w *World) connectedIntervals(legDur time.Duration, rng *rand.Rand) []interval {
	idle := func() time.Duration {
		span := w.Config.IdleTimeoutMax - w.Config.IdleTimeoutMin
		return w.Config.IdleTimeoutMin + time.Duration(rng.Float64()*float64(span))
	}
	var out []interval
	// Engine-start telemetry burst.
	t := time.Duration(0)
	burst := time.Duration(15+rng.Float64()*30) * time.Second
	connStart := t
	actEnd := t + burst
	for actEnd < legDur {
		gap := time.Duration(rng.ExpFloat64() * float64(w.Config.ActivityOffMean))
		next := time.Duration(rng.ExpFloat64() * float64(w.Config.ActivityOnMean))
		timeout := idle()
		if gap <= timeout {
			// Connection survives the gap; activity resumes.
			actEnd += gap + next
			continue
		}
		end := actEnd + timeout
		if end > legDur {
			end = legDur
		}
		out = append(out, interval{connStart, end})
		connStart = actEnd + gap
		if connStart >= legDur {
			connStart = -1
			break
		}
		actEnd = connStart + next
	}
	if connStart >= 0 {
		end := actEnd + idle()
		if end > legDur {
			end = legDur
		}
		if end > connStart {
			out = append(out, interval{connStart, end})
		}
	}
	return out
}

// carrierWeights are the selection preferences calibrated against
// Table 3's time-share row (C3 51.9%, C4 22.1%, C1 18.6%, C2 7.4%).
// The C4 weight sits well above its target share because carrier
// stickiness erodes it: any leg crossing a site without C4 (one in
// five) re-camps elsewhere and stays there.
var carrierWeights = map[radio.CarrierID]float64{
	radio.C1: 0.13,
	radio.C2: 0.07,
	radio.C3: 0.50,
	radio.C4: 0.46,
	radio.C5: 0.40, // only reachable by next-gen modems
}

// chooseCarrier picks a carrier available at the station and supported
// by the modem, weighted by preference. ok is false when the
// intersection is empty (e.g. a 3G-only car at an LTE-only site).
func (w *World) chooseCarrier(bs radio.BSID, m fleet.Modem, rng *rand.Rand) (radio.CarrierID, bool) {
	st := w.Net.Station(bs)
	var total float64
	for _, c := range st.Carriers {
		if m.Supports(c) {
			total += carrierWeights[c]
		}
	}
	if total == 0 {
		return 0, false
	}
	u := rng.Float64() * total
	for _, c := range st.Carriers {
		if !m.Supports(c) {
			continue
		}
		u -= carrierWeights[c]
		if u <= 0 {
			return c, true
		}
	}
	return st.Carriers[len(st.Carriers)-1], true
}

// reselectCell picks a different cell of the same station: usually a
// neighbouring sector, sometimes another carrier.
func (w *World) reselectCell(st *radio.BaseStation, cur radio.CellKey, m fleet.Modem, rng *rand.Rand) radio.CellKey {
	if rng.Float64() < 0.5 && st.Sectors > 1 {
		next := radio.SectorID((int(cur.Sector()) + 1) % st.Sectors)
		return radio.MakeCellKey(st.ID, next, cur.Carrier())
	}
	for _, c := range st.Carriers {
		if c != cur.Carrier() && m.Supports(c) {
			return radio.MakeCellKey(st.ID, cur.Sector(), c)
		}
	}
	return cur
}

func visitAt(visits []mobility.Visit, t time.Duration) int {
	for i := range visits {
		if t < visits[i].Exit {
			return i
		}
	}
	return len(visits) - 1
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
