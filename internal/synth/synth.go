// Package synth is the end-to-end synthetic data generator: it wires
// the world geography, radio topology, car fleet, mobility engine and
// RRC connection model into a deterministic, seeded stream of CDR
// records shaped like the paper's closed data set.
//
// The generator stands in for the production network's logging plane.
// Everything downstream (cleaning, sessionization, analysis) consumes
// only the CDR stream plus the load model, exactly as it would consume
// real CDRs plus measured PRB counters.
package synth

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/fleet"
	"cellcars/internal/geo"
	"cellcars/internal/load"
	"cellcars/internal/mobility"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// Config parameterizes a full synthetic scene.
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// NumCars is the fleet size.
	NumCars int
	// WorldSizeKm is the side length of the square world. Default 60.
	WorldSizeKm float64
	// Period is the study window. Defaults to the 90-day default period.
	Period simtime.Period
	// Fleet optionally overrides population parameters; NumCars wins
	// over Fleet.NumCars.
	Fleet *fleet.Config
	// Radio optionally overrides topology parameters; the world is
	// always the generated one.
	Radio *radio.Config
	// Load optionally overrides the PRB model parameters.
	Load *load.Config

	// RRC connection model.

	// IdleTimeoutMin/Max bound the radio idle timer: a connection ends
	// this long after data activity stops (the paper cites 10-12 s).
	IdleTimeoutMin, IdleTimeoutMax time.Duration
	// ActivityOnMean is the mean length of a data-activity burst while
	// driving. Connected-car modems chatter nearly continuously
	// (telemetry, infotainment, hotspot); default 150 s.
	ActivityOnMean time.Duration
	// ActivityOffMean is the mean silent gap between bursts. Default
	// 55 s.
	ActivityOffMean time.Duration

	// Fault injection.

	// StuckProb is the per-connection probability that the session
	// fails to tear down and its record lingers (§3: "some modems
	// tendency to improperly disconnect"). Default 0.28.
	StuckProb float64
	// StuckMean is the mean lingering time for a normal stuck
	// connection. Default 22 min.
	StuckMean time.Duration
	// StickyStuckProb and StickyStuckMean are the same for cars with
	// chronically sticky modems, calibrated so those cars' total
	// reported time lands near the paper's 99.5th percentile (27% of
	// the study period). Defaults 0.5 and 45 min.
	StickyStuckProb float64
	StickyStuckMean time.Duration
	// GhostProb is the per-leg probability of emitting a spurious
	// exactly-one-hour record, the artifact the paper's preprocessing
	// removes (§3). Default 0.02.
	GhostProb float64
	// LossDays lists study days with partial data loss; LossFrac of
	// records on those days are dropped. Defaults to 3 consecutive days
	// in the second half at 40%, reproducing the dip in Figure 2.
	LossDays []int
	// LossFrac is the record drop probability on LossDays.
	LossFrac float64
}

// DefaultConfig returns the standard generator configuration for a
// fleet of the given size over the default 90-day period.
func DefaultConfig(numCars int) Config {
	return Config{
		Seed:            1,
		NumCars:         numCars,
		WorldSizeKm:     60,
		Period:          simtime.DefaultPeriod(),
		IdleTimeoutMin:  10 * time.Second,
		IdleTimeoutMax:  12 * time.Second,
		ActivityOnMean:  150 * time.Second,
		ActivityOffMean: 55 * time.Second,
		StuckProb:       0.28,
		StuckMean:       22 * time.Minute,
		StickyStuckProb: 0.50,
		StickyStuckMean: 45 * time.Minute,
		GhostProb:       0.02,
		LossDays:        nil, // filled by World for the configured period
		LossFrac:        0.40,
	}
}

// World is a fully assembled synthetic scene: geography, radio
// network, load model, fleet, and mobility planner.
type World struct {
	Config  Config
	Geo     *geo.World
	Net     *radio.Network
	Load    *load.Model
	Cars    []fleet.Car
	Planner *mobility.Planner
}

// CheckWorldSize returns an error unless NewWorld can lay a radio
// network over a world of side sizeKm: radio.Build places its sites on a
// grid at the urban site spacing, so a shorter side, or one that is not
// a finite number, holds no site.
func CheckWorldSize(sizeKm float64) error {
	if pitch := geo.Urban.SiteSpacingKm(); !(sizeKm >= pitch) || math.IsInf(sizeKm, 1) {
		return fmt.Errorf("want a finite side of at least %g km, the spacing of the radio grid", pitch)
	}
	return nil
}

// NewWorld assembles a scene from the config. Construction is
// deterministic in Config.Seed. It panics on a non-positive fleet
// size.
func NewWorld(cfg Config) *World {
	if cfg.NumCars <= 0 {
		panic(fmt.Sprintf("synth: non-positive fleet size %d", cfg.NumCars))
	}
	def := DefaultConfig(cfg.NumCars)
	if cfg.WorldSizeKm == 0 {
		cfg.WorldSizeKm = def.WorldSizeKm
	}
	if cfg.Period == (simtime.Period{}) {
		cfg.Period = def.Period
	}
	if cfg.IdleTimeoutMin == 0 {
		cfg.IdleTimeoutMin = def.IdleTimeoutMin
	}
	if cfg.IdleTimeoutMax == 0 {
		cfg.IdleTimeoutMax = def.IdleTimeoutMax
	}
	if cfg.ActivityOnMean == 0 {
		cfg.ActivityOnMean = def.ActivityOnMean
	}
	if cfg.ActivityOffMean == 0 {
		cfg.ActivityOffMean = def.ActivityOffMean
	}
	if cfg.StuckProb == 0 {
		cfg.StuckProb = def.StuckProb
	}
	if cfg.StuckMean == 0 {
		cfg.StuckMean = def.StuckMean
	}
	if cfg.StickyStuckProb == 0 {
		cfg.StickyStuckProb = def.StickyStuckProb
	}
	if cfg.StickyStuckMean == 0 {
		cfg.StickyStuckMean = def.StickyStuckMean
	}
	if cfg.GhostProb == 0 {
		cfg.GhostProb = def.GhostProb
	}
	if cfg.LossFrac == 0 {
		cfg.LossFrac = def.LossFrac
	}
	if cfg.LossDays == nil && cfg.Period.Days() >= 14 {
		// Three consecutive loss days in the second half, as in Fig 2.
		mid := cfg.Period.Days()/2 + cfg.Period.Days()/6
		cfg.LossDays = []int{mid, mid + 1, mid + 2}
	}

	g := geo.DefaultWorld(cfg.WorldSizeKm)

	rcfg := radio.Config{World: g}
	if cfg.Radio != nil {
		rcfg = *cfg.Radio
		rcfg.World = g
	}
	net := radio.Build(rcfg, rand.New(rand.NewPCG(cfg.Seed, 0xAD10)))

	lcfg := load.DefaultConfig()
	if cfg.Load != nil {
		lcfg = *cfg.Load
	}
	lcfg.Seed = cfg.Seed ^ 0x10AD
	model := load.New(net, cfg.Period, lcfg)

	fcfg := fleet.DefaultConfig(cfg.NumCars)
	if cfg.Fleet != nil {
		fcfg = *cfg.Fleet
		fcfg.NumCars = cfg.NumCars
	}
	if fcfg.GrowthDays == 0 {
		// New cars activate throughout the study, giving Figure 2 its
		// slow upward trend.
		fcfg.GrowthDays = cfg.Period.Days()
	}
	cars := fleet.Generate(fcfg, g, rand.New(rand.NewPCG(cfg.Seed, 0xF1EE7)))

	return &World{
		Config:  cfg,
		Geo:     g,
		Net:     net,
		Load:    model,
		Cars:    cars,
		Planner: mobility.NewPlanner(net, cfg.Period),
	}
}

// Stats summarizes a generation run.
type Stats struct {
	Records      int64
	Ghosts       int64
	Stuck        int64
	Dropped      int64
	Trips        int64
	CarsWithData int64
}

// GenerateAll generates the full stream into memory and returns it
// globally sorted by (start, car, cell) with the run's counters. Cars
// are generated on runtime.GOMAXPROCS(0) goroutines, each into its own
// slot; the slots are joined in car order, so the sort's input is cars
// in id order, each in time order, whatever the goroutine count, and so
// is its placement of equal-key records: the output does not depend on
// the count.
func (w *World) GenerateAll() ([]cdr.Record, Stats) {
	slots := make([][]cdr.Record, len(w.Cars))
	stats := make([]Stats, len(w.Cars))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(w.Cars)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(w.Cars)); i = next.Add(1) - 1 {
				slots[i], stats[i] = w.carRecords(&w.Cars[i])
			}
		}()
	}
	wg.Wait()
	var total Stats
	for _, s := range stats {
		total.add(s)
	}
	records := slices.Concat(slots...)
	cdr.Sort(records)
	return records, total
}

// carRecords generates one car's full record stream, in time order. It
// touches no shared mutable state: every car has an independent random
// stream derived from (seed, car id), so cars can be generated
// concurrently and in any order with identical results.
func (w *World) carRecords(car *fleet.Car) ([]cdr.Record, Stats) {
	var stats Stats
	rng := rand.New(rand.NewPCG(w.Config.Seed^0xCA4, car.ID))
	var out []cdr.Record
	for day := car.ActiveFromDay; day < w.Config.Period.Days(); day++ {
		trips := w.Planner.DayTrips(car, day, rng)
		stats.Trips += int64(len(trips))
		for ti := range trips {
			for _, rec := range w.legRecords(car, &trips[ti], rng, &stats) {
				if w.dropRecord(rec, rng) {
					stats.Dropped++
					continue
				}
				out = append(out, rec)
				stats.Records++
			}
		}
	}
	if len(out) > 0 {
		stats.CarsWithData = 1
	}
	return out, stats
}

// add accumulates another stats bundle.
func (s *Stats) add(o Stats) {
	s.Records += o.Records
	s.Ghosts += o.Ghosts
	s.Stuck += o.Stuck
	s.Dropped += o.Dropped
	s.Trips += o.Trips
	s.CarsWithData += o.CarsWithData
}

// dropRecord applies the data-loss-day filter.
func (w *World) dropRecord(rec cdr.Record, rng *rand.Rand) bool {
	day := w.Config.Period.DayIndex(rec.Start)
	for _, loss := range w.Config.LossDays {
		if day == loss {
			return rng.Float64() < w.Config.LossFrac
		}
	}
	return false
}
