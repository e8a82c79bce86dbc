package radio

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cellcars/internal/geo"
)

// BaseStation is one cell site: a location, a set of sectors, and the
// carriers deployed at the site. Every (sector, carrier) pair is one
// cell.
type BaseStation struct {
	ID       BSID
	Loc      geo.Point
	Sectors  int
	Carriers []CarrierID
	Density  geo.Density
}

// Cells returns the keys of every cell hosted by the base station, in
// deterministic (sector-major, carrier-minor) order.
func (b *BaseStation) Cells() []CellKey {
	out := make([]CellKey, 0, b.Sectors*len(b.Carriers))
	for s := 0; s < b.Sectors; s++ {
		for _, c := range b.Carriers {
			out = append(out, MakeCellKey(b.ID, SectorID(s), c))
		}
	}
	return out
}

// HasCarrier reports whether the site deploys the given carrier.
func (b *BaseStation) HasCarrier(c CarrierID) bool {
	for _, have := range b.Carriers {
		if have == c {
			return true
		}
	}
	return false
}

// SectorToward returns the sector whose ~(360/Sectors)° wedge contains
// the heading (radians from +X) from the site to the given point.
func (b *BaseStation) SectorToward(p geo.Point) SectorID {
	if b.Sectors <= 1 {
		return 0
	}
	h := b.Loc.Heading(p) // (-π, π]
	frac := (h + math.Pi) / (2 * math.Pi)
	s := int(frac * float64(b.Sectors))
	if s >= b.Sectors {
		s = b.Sectors - 1
	}
	return SectorID(s)
}

// Network is the full radio topology: base stations with a spatial
// index for nearest-site queries.
type Network struct {
	World    *geo.World
	Stations []BaseStation

	grid spatialGrid
}

// NumStations returns the number of base stations.
func (n *Network) NumStations() int { return len(n.Stations) }

// NumCells returns the total number of cells across all stations.
func (n *Network) NumCells() int {
	total := 0
	for i := range n.Stations {
		total += n.Stations[i].Sectors * len(n.Stations[i].Carriers)
	}
	return total
}

// Station returns the base station with the given id. It panics on an
// unknown id: station ids are dense indices assigned by the builder.
func (n *Network) Station(id BSID) *BaseStation {
	if int(id) >= len(n.Stations) {
		panic(fmt.Sprintf("radio: unknown base station %d", id))
	}
	return &n.Stations[id]
}

// AllCells returns every cell key in the network in deterministic order.
func (n *Network) AllCells() []CellKey {
	out := make([]CellKey, 0, n.NumCells())
	for i := range n.Stations {
		out = append(out, n.Stations[i].Cells()...)
	}
	return out
}

// NearestStation returns the id of the base station closest to p.
// It panics on an empty network.
func (n *Network) NearestStation(p geo.Point) BSID {
	if len(n.Stations) == 0 {
		panic("radio: NearestStation on empty network")
	}
	return n.grid.nearest(n.Stations, p)
}

// Config controls topology construction.
type Config struct {
	// World is the geography to cover. Required.
	World *geo.World
	// SectorsPerSite is the number of sectors at each site. Default 3.
	SectorsPerSite int
	// CarrierAvailability maps each carrier to the probability that a
	// given site deploys it. Defaults to DefaultCarrierAvailability.
	CarrierAvailability map[CarrierID]float64
	// JitterFrac displaces each site from its grid position by up to
	// this fraction of the local spacing in each axis. Default 0.35.
	JitterFrac float64
}

// DefaultCarrierAvailability is the per-site deployment probability of
// each carrier. The low-band coverage layer C1 and the 3G layer C2 are
// near-universal; the capacity layers are common; C5 is a sparse new
// deployment, matching the paper's observation that C5 traffic is
// negligible (§4.6).
func DefaultCarrierAvailability() map[CarrierID]float64 {
	return map[CarrierID]float64{
		C1: 0.97,
		C2: 0.93,
		C3: 0.90,
		C4: 0.80,
		C5: 0.12,
	}
}

// Build places base stations over the world on a jittered grid whose
// spacing follows each region's density class, assigns sectors and
// carriers, and precomputes the spatial index and neighbour graph.
// The source drives jitter and carrier assignment only; a fixed seed
// yields an identical network.
func Build(cfg Config, rng *rand.Rand) *Network {
	if cfg.World == nil {
		panic("radio: Build requires a World")
	}
	if cfg.SectorsPerSite <= 0 {
		cfg.SectorsPerSite = 3
	}
	if cfg.CarrierAvailability == nil {
		cfg.CarrierAvailability = DefaultCarrierAvailability()
	}
	if cfg.JitterFrac == 0 {
		cfg.JitterFrac = 0.35
	}

	n := &Network{World: cfg.World}

	// Lay a grid at the finest spacing and keep a site when the local
	// density calls for one at that position: a site at a coarse-density
	// point is kept only every (coarse/fine) steps. This produces dense
	// urban cores and sparse fringes without region seams.
	fine := geo.Urban.SiteSpacingKm()
	b := cfg.World.Bounds
	cols := int(b.Width() / fine)
	rows := int(b.Height() / fine)
	for gy := 0; gy < rows; gy++ {
		for gx := 0; gx < cols; gx++ {
			p := geo.Point{
				X: b.Min.X + (float64(gx)+0.5)*fine,
				Y: b.Min.Y + (float64(gy)+0.5)*fine,
			}
			d := cfg.World.DensityAt(p)
			step := int(math.Round(d.SiteSpacingKm() / fine))
			if step < 1 {
				step = 1
			}
			if gx%step != 0 || gy%step != 0 {
				continue
			}
			spacing := d.SiteSpacingKm()
			jx := (rng.Float64()*2 - 1) * cfg.JitterFrac * spacing
			jy := (rng.Float64()*2 - 1) * cfg.JitterFrac * spacing
			loc := b.Clamp(p.Add(jx, jy))

			carriers := make([]CarrierID, 0, NumCarriers)
			for _, c := range Carriers() {
				avail := cfg.CarrierAvailability[c.ID]
				// Urban sites get the capacity layers more often; rural
				// sites skew toward the coverage layers.
				switch d {
				case geo.Urban:
					if c.ID == C3 || c.ID == C4 || c.ID == C5 {
						avail = math.Min(1, avail*1.15)
					}
				case geo.Rural:
					if c.ID == C3 || c.ID == C4 {
						avail *= 0.75
					}
					if c.ID == C5 {
						avail *= 0.2
					}
				}
				if rng.Float64() < avail {
					carriers = append(carriers, c.ID)
				}
			}
			if len(carriers) == 0 {
				// Every real site has at least a coverage layer.
				carriers = append(carriers, C1)
			}

			n.Stations = append(n.Stations, BaseStation{
				ID:       BSID(len(n.Stations)),
				Loc:      loc,
				Sectors:  cfg.SectorsPerSite,
				Carriers: carriers,
				Density:  d,
			})
		}
	}
	if len(n.Stations) == 0 {
		panic("radio: world too small for any site; increase its size")
	}

	n.grid.build(n.Stations, fine*2)
	return n
}

// spatialGrid is a uniform grid over station locations for
// nearest-neighbour queries: cells[y*cols+x] holds the ids of the
// stations in grid cell (x, y), in id order.
type spatialGrid struct {
	cellKm float64
	origin geo.Point
	cols   int
	rows   int
	cells  [][]BSID
}

func (g *spatialGrid) build(stations []BaseStation, cellKm float64) {
	g.cellKm = cellKm
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range stations {
		p := stations[i].Loc
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g.origin = geo.Point{X: minX, Y: minY}
	g.cols = int((maxX-minX)/cellKm) + 1
	g.rows = int((maxY-minY)/cellKm) + 1
	g.cells = make([][]BSID, g.cols*g.rows)
	for i := range stations {
		x, y := g.cell(stations[i].Loc)
		g.cells[y*g.cols+x] = append(g.cells[y*g.cols+x], stations[i].ID)
	}
}

// cell returns the grid cell holding p, clamped to the grid.
func (g *spatialGrid) cell(p geo.Point) (x, y int) {
	return clampInt(int((p.X-g.origin.X)/g.cellKm), 0, g.cols-1),
		clampInt(int((p.Y-g.origin.Y)/g.cellKm), 0, g.rows-1)
}

// nearest returns the id of the station closest to p, the lower id on
// an exact tie. Grid cells are visited in expanding Chebyshev rings
// around p's (clamped) cell, keeping a running argmin under (distance,
// id); the search stops once the best distance is provably closer than
// anything a further ring could hold. The bound uses the fact that any
// point of a ring-r cell lies at least (r-1)·cellKm from every point of
// the centre cell, and clamping p to the (convex) grid only shrinks
// distances to in-grid stations. The stop is strict so that no station
// that could tie the best, and hold the lower id, goes unvisited.
func (g *spatialGrid) nearest(stations []BaseStation, p geo.Point) BSID {
	cx, cy := g.cell(p)
	best, bestD := BSID(0), math.Inf(1)
	maxRing := g.cols + g.rows
	for ring := 0; ring <= maxRing; ring++ {
		if float64(ring-1)*g.cellKm > bestD {
			break
		}
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if ring > 0 && abs(dx) != ring && abs(dy) != ring {
					continue // interior already visited
				}
				x, y := cx+dx, cy+dy
				if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
					continue
				}
				for _, id := range g.cells[y*g.cols+x] {
					if d := stations[id].Loc.Dist(p); d < bestD || d == bestD && id < best {
						best, bestD = id, d
					}
				}
			}
		}
	}
	return best
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
