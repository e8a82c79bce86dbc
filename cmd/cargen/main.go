// Command cargen generates a synthetic connected-car CDR data set.
//
// Usage:
//
//	cargen -cars 10000 -days 90 -seed 1 -out cars.cdr
//	cargen -cars 2000 -days 28 -format csv -out cars.csv
//
// The output stream is globally sorted by (start, car, cell). A
// companion line on stderr reports generation statistics. The file can
// be analyzed with caranalyze or any consumer of the cellcars CDR
// formats.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/simtime"
	"cellcars/internal/synth"
)

func main() {
	var (
		cars      = flag.Int("cars", 2000, "fleet size")
		days      = flag.Int("days", 28, "study length in days")
		seed      = flag.Uint64("seed", 1, "generator seed")
		world     = flag.Float64("world", 60, "world side length in km")
		out       = flag.String("out", "cars.cdr", "output file")
		format    = flag.String("format", "", "output format: binary or csv (default: by extension, .csv = csv)")
		start     = flag.String("start", "2017-01-02", "study start date (YYYY-MM-DD)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while generating")
	)
	flag.Parse()

	// Every flag is checked before the world is built: generation is
	// the expensive part, minutes at a 100 k-car fleet.
	if *cars <= 0 {
		fatal("-cars must be positive, got %d", *cars)
	}
	if *format != "" && *format != "csv" && *format != "binary" {
		fatal("unknown -format %q", *format)
	}
	useCSV := *format == "csv" || (*format == "" && strings.HasSuffix(*out, ".csv"))
	startDay, err := time.Parse("2006-01-02", *start)
	if err != nil {
		fatal("bad -start date: %v", err)
	}
	if err := simtime.CheckPeriod(startDay, *days); err != nil {
		fatal("bad study period: %v", err)
	}

	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.New())
		if err != nil {
			fatal("debug server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cargen: debug server on http://%s\n", srv.Addr())
	}

	cfg := synth.DefaultConfig(*cars)
	cfg.Seed = *seed
	cfg.WorldSizeKm = *world
	cfg.Period = simtime.NewPeriod(startDay, *days)

	fmt.Fprintf(os.Stderr, "building world: %d cars, %d days, seed %d\n", *cars, *days, *seed)
	w := synth.NewWorld(cfg)
	fmt.Fprintf(os.Stderr, "network: %d base stations, %d cells\n", w.Net.NumStations(), w.Net.NumCells())

	records, stats, err := w.GenerateAll()
	if err != nil {
		fatal("generate: %v", err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal("create %s: %v", *out, err)
	}
	if useCSV {
		cw := cdr.NewCSVWriter(f)
		if err := cdr.WriteAll(cw, records); err != nil {
			fatal("write: %v", err)
		}
		if err := cw.Close(); err != nil {
			fatal("flush: %v", err)
		}
	} else {
		bw := cdr.NewBinaryWriter(f)
		if err := cdr.WriteAll(bw, records); err != nil {
			fatal("write: %v", err)
		}
		if err := bw.Close(); err != nil {
			fatal("flush: %v", err)
		}
	}
	// An unchecked close can silently drop the tail of the data set
	// (full disk, quota); the exit code must reflect it.
	if err := f.Sync(); err != nil {
		fatal("sync %s: %v", *out, err)
	}
	if err := f.Close(); err != nil {
		fatal("close %s: %v", *out, err)
	}

	fmt.Fprintf(os.Stderr,
		"wrote %d records to %s (trips %d, ghosts %d, stuck %d, loss-day drops %d, cars with data %d)\n",
		stats.Records, *out, stats.Trips, stats.Ghosts, stats.Stuck, stats.Dropped, stats.CarsWithData)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cargen: "+format+"\n", args...)
	os.Exit(1)
}
