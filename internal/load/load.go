// Package load models radio-cell PRB (Physical Resource Block)
// utilization over the study period: per-cell diurnal/weekly curves
// with deterministic noise, the busy-cell classification used for car
// segmentation (Table 2), and the single-greedy-download saturation
// experiment of Figure 1.
//
// In a real deployment this package would be replaced by a feed of
// measured per-cell UPRB counters; the model reproduces their *shape*
// (diurnal peaks, weekday/weekend structure, a small population of
// chronically busy cells) so every downstream analysis exercises the
// same code path it would with production data.
//
// All values are deterministic functions of (cell, time bin, seed):
// the model stores no per-bin state, so it scales to arbitrarily many
// cells and days with O(1) memory.
package load

import (
	"fmt"
	"math"

	"cellcars/internal/geo"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// Archetype is the daily/weekly load shape class of a cell.
type Archetype uint8

// Load archetypes. Mixes of these cover the qualitative cell
// behaviours in the paper's figures: commute-peaked highway cells,
// business-hour office cells, evening residential cells, weekend-heavy
// venue cells, and the small set of chronically busy cells whose
// average weekly utilization exceeds 70% (the Figure 11 population).
const (
	Residential Archetype = iota
	Business
	Highway
	Venue
	Chronic
)

// String returns the lowercase archetype name.
func (a Archetype) String() string {
	switch a {
	case Residential:
		return "residential"
	case Business:
		return "business"
	case Highway:
		return "highway"
	case Venue:
		return "venue"
	case Chronic:
		return "chronic"
	default:
		return fmt.Sprintf("archetype(%d)", uint8(a))
	}
}

// Config parameterizes the load model.
type Config struct {
	// Seed drives all deterministic noise. Two models with the same
	// seed, network and period produce identical utilization values.
	Seed uint64
	// BusyThreshold is the UPRB level above which a cell-bin counts as
	// busy. The paper uses 80% (§4.3).
	BusyThreshold float64
	// VeryBusyAvg is the average weekly utilization at or above which a
	// cell joins the Figure 11 clustering population. The paper uses 70%.
	VeryBusyAvg float64
	// ChronicFrac is the fraction of urban cells assigned the Chronic
	// archetype. Default 0.06.
	ChronicFrac float64
	// NoiseAmp is the amplitude of per-bin deterministic noise. Default
	// 0.06.
	NoiseAmp float64
}

// DefaultConfig returns the standard model parameters, including the
// paper's 80% busy threshold and 70% very-busy average.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		BusyThreshold: 0.80,
		VeryBusyAvg:   0.70,
		ChronicFrac:   0.10,
		NoiseAmp:      0.06,
	}
}

// Source is the abstraction the analyses consume: per-cell utilization
// in a 15-minute study bin, in [0, 1]. *Model implements Source; a
// production deployment would implement it over measured counters.
type Source interface {
	// Utilization returns UPRB for the cell in the given study bin.
	Utilization(cell radio.CellKey, bin int) float64
	// BusyThreshold returns the classification threshold in [0,1].
	BusyThreshold() float64
}

// Model is the synthetic PRB utilization model.
type Model struct {
	net    *radio.Network
	period simtime.Period
	cfg    Config
}

// New builds a model over the network and study period. The config's
// zero values are replaced by defaults.
func New(net *radio.Network, period simtime.Period, cfg Config) *Model {
	def := DefaultConfig()
	if cfg.BusyThreshold == 0 {
		cfg.BusyThreshold = def.BusyThreshold
	}
	if cfg.VeryBusyAvg == 0 {
		cfg.VeryBusyAvg = def.VeryBusyAvg
	}
	if cfg.ChronicFrac == 0 {
		cfg.ChronicFrac = def.ChronicFrac
	}
	if cfg.NoiseAmp == 0 {
		cfg.NoiseAmp = def.NoiseAmp
	}
	return &Model{net: net, period: period, cfg: cfg}
}

// BusyThreshold returns the busy classification threshold.
func (m *Model) BusyThreshold() float64 { return m.cfg.BusyThreshold }

// VeryBusyAvg returns the very-busy average threshold (Figure 11).
func (m *Model) VeryBusyAvg() float64 { return m.cfg.VeryBusyAvg }

// ArchetypeOf returns the load archetype of a cell. Assignment hashes
// the host base station (not the individual cell), so all sectors and
// carriers of a site share one archetype — a downtown site is
// congested as a whole — conditioned on density: chronic sites occur
// only in urban cores, highway sites dominate rural areas.
func (m *Model) ArchetypeOf(cell radio.CellKey) Archetype {
	st := m.net.Station(cell.BS())
	d := st.Density
	h := mix(uint64(cell.BS()), m.cfg.Seed, 0xA0)
	u := float64(h%10000) / 10000
	switch d {
	case geo.Urban:
		// Chronic congestion concentrates in one downtown district so
		// that cars living there spend essentially all their connected
		// time on busy radios (Figure 7's ~1% tail), rather than being
		// scattered across isolated sites.
		c := m.net.World.Bounds.Center()
		coreHalf := 0.1 * m.net.World.Bounds.Width()
		radius := math.Sqrt(m.cfg.ChronicFrac) * coreHalf
		// Never let the district shrink below one site spacing, or small
		// test worlds would have no chronic sites at all.
		if minR := 1.1 * geo.Urban.SiteSpacingKm(); radius < minR {
			radius = minR
		}
		if st.Loc.Dist(c) <= radius {
			return Chronic
		}
		switch {
		case u < 0.45:
			return Business
		case u < 0.75:
			return Residential
		case u < 0.90:
			return Venue
		default:
			return Highway
		}
	case geo.Suburban:
		switch {
		case u < 0.40:
			return Residential
		case u < 0.65:
			return Highway
		case u < 0.85:
			return Business
		default:
			return Venue
		}
	default: // rural
		switch {
		case u < 0.55:
			return Highway
		case u < 0.85:
			return Residential
		default:
			return Venue
		}
	}
}

// levelOf returns the per-cell (base, amplitude) utilization levels.
// Base is the overnight floor; amplitude scales the diurnal shape.
func (m *Model) levelOf(cell radio.CellKey) (base, amp float64) {
	a := m.ArchetypeOf(cell)
	h := mix(uint64(cell), m.cfg.Seed, 0xB1)
	jitter := (float64(h%1000)/1000 - 0.5) * 0.12 // ±0.06
	// Peak levels are set so that commute-corridor and office cells
	// regularly cross the 80% busy threshold during their peaks — the
	// paper's Table 2 finds ~37% of cars with a *balanced* busy/non-busy
	// split, which requires busy hours to be widespread, while Figure 7
	// still needs most connected time to fall outside busy cells.
	switch a {
	case Chronic:
		return clamp(0.68+jitter*0.5, 0, 1), 0.30
	case Business:
		return clamp(0.25+jitter, 0, 1), 0.65
	case Residential:
		return clamp(0.28+jitter, 0, 1), 0.62
	case Highway:
		return clamp(0.25+jitter, 0, 1), 0.70
	default: // Venue
		return clamp(0.15+jitter, 0, 1), 0.75
	}
}

// Utilization returns the modelled UPRB of the cell during the given
// study bin, in [0.01, 0.995]. It panics on a bin outside the period.
func (m *Model) Utilization(cell radio.CellKey, bin int) float64 {
	if bin < 0 || bin >= m.period.NumBins() {
		panic(fmt.Sprintf("load: bin %d outside period", bin))
	}
	day := bin / simtime.BinsPerDay
	binOfDay := bin % simtime.BinsPerDay
	weekday := int((int(m.period.Weekday(day)) + 6) % 7) // Monday=0
	hour := float64(binOfDay) / float64(simtime.BinsPerHour)

	base, amp := m.levelOf(cell)
	shape := shapeOf(m.ArchetypeOf(cell), hour, weekday)

	// Slow day-scale modulation: each day the whole cell runs a few
	// percent hotter or cooler, plus a slight upward trend over the
	// study (Figure 2's trend lines).
	dh := mix(uint64(cell), m.cfg.Seed+uint64(day), 0xC2)
	dayFactor := 1 + (float64(dh%1000)/1000-0.5)*0.08 + 0.0004*float64(day)

	// Fast per-bin noise.
	nh := mix(uint64(cell), m.cfg.Seed+uint64(bin), 0xD3)
	noise := (float64(nh%1000)/1000 - 0.5) * 2 * m.cfg.NoiseAmp

	return clamp((base+amp*shape)*dayFactor+noise, 0.01, 0.995)
}

// AvgUtilization returns the cell's mean utilization over the whole
// study period.
func (m *Model) AvgUtilization(cell radio.CellKey) float64 {
	var s float64
	n := m.period.NumBins()
	for bin := 0; bin < n; bin++ {
		s += m.Utilization(cell, bin)
	}
	return s / float64(n)
}

// VeryBusyCells returns every cell whose average weekly utilization is
// at least the VeryBusyAvg threshold — the population Figure 11
// clusters. Order is deterministic (network cell order).
func (m *Model) VeryBusyCells() []radio.CellKey {
	var out []radio.CellKey
	for _, cell := range m.net.AllCells() {
		if m.AvgUtilization(cell) >= m.cfg.VeryBusyAvg {
			out = append(out, cell)
		}
	}
	return out
}

// shapeOf evaluates the archetype's diurnal shape in [0, 1] at the
// given local hour (fractional) and weekday (0=Monday … 6=Sunday).
func shapeOf(a Archetype, hour float64, weekday int) float64 {
	weekend := weekday >= 5
	switch a {
	case Business:
		s := bump(hour, 13.5, 4.0)
		if weekend {
			s *= 0.35
		}
		return s
	case Residential:
		// Evening-heavy: the network's broad 14-24h busy window
		// (Figure 4) comes mostly from residential traffic.
		s := 1.0*bump(hour, 18.5, 2.5) + 0.3*bump(hour, 12, 4.0)
		if weekend {
			s = 0.95*bump(hour, 18.5, 4.0) + 0.35*bump(hour, 13, 4.0)
		}
		return clamp(s, 0, 1)
	case Highway:
		// The morning commute loads corridors well below the evening
		// peak: network busy hours start mid-afternoon (Figure 4), which
		// keeps commuter cars' busy-time fractions below ~50% (Figure 7)
		// while still placing them in Table 2's balanced band.
		s := 0.55*bump(hour, 8, 1.6) + 1.0*bump(hour, 17.5, 2.0) + 0.3*bump(hour, 13, 4)
		if weekend {
			s = 0.62 * bump(hour, 14, 4.5)
		}
		return clamp(s, 0, 1)
	case Venue:
		s := 0.6 * bump(hour, 19, 3)
		if weekend {
			s = 0.80 * bump(hour, 15, 5.5)
		}
		return clamp(s, 0, 1)
	case Chronic:
		// Busy nearly all waking hours, with a shallow overnight dip.
		s := 0.55 + 0.45*bump(hour, 15, 7)
		if hour < 5 {
			s *= 0.55
		}
		return clamp(s, 0, 1)
	default:
		return 0
	}
}

// bump is a smooth unimodal pulse centred at c hours with the given
// width (standard-deviation-like, in hours), wrapping around midnight.
func bump(hour, c, width float64) float64 {
	d := math.Abs(hour - c)
	if d > 12 {
		d = 24 - d
	}
	return math.Exp(-d * d / (2 * width * width))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// mix is a SplitMix64-style deterministic hash over (a, b, salt).
func mix(a, b, salt uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b + salt*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
