// Package studyflags declares the study and ingest flags caranalyze,
// carqueryd and cardrive share, and turns them into the study
// configuration. "Served ≡ batch ≡ distributed" holds only while the
// three binaries agree on this policy — how the rare-day thresholds
// scale with the study length, how wide the plausible-date window is,
// what a zero error budget means — so it is written once, here.
package studyflags

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/simtime"
)

// Flags holds the parsed values.
type Flags struct {
	Start      string
	Days       int
	TZ         int
	Seed       uint64
	Strict     bool
	Budget     float64
	Quarantine string
}

// Register declares the flags on fs; days is the binary's default study
// length. Binaries that read records themselves pass sink to also get
// -quarantine; a coordinator, which only forwards the flags to its
// workers, has no sink of its own.
func Register(fs *flag.FlagSet, days int, sink bool) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Start, "start", "2017-01-02", "study start date (YYYY-MM-DD)")
	fs.IntVar(&f.Days, "days", days, "study length in days")
	fs.IntVar(&f.TZ, "tz", -5, "local-time offset from UTC in hours")
	fs.Uint64Var(&f.Seed, "seed", 1, "seed")
	fs.BoolVar(&f.Strict, "strict", false, "abort on the first malformed input record")
	fs.Float64Var(&f.Budget, "budget", 1.0, "ingest error budget: max % of malformed input records before aborting (0 aborts on the first, negative disables)")
	if sink {
		fs.StringVar(&f.Quarantine, "quarantine", "", "write quarantined input records to this file (TSV)")
	}
	return f
}

// Context returns the analysis context: the study period and the local
// time offset. It fails on a malformed -start and on a study the engine
// cannot clock (simtime.CheckPeriod): a non-positive -days, or a period
// outside 1677-09-22 .. 2262-04-11, whose session clocks and snapshot
// timestamps would silently wrap.
func (f *Flags) Context() (analysis.Context, error) {
	start, err := time.Parse("2006-01-02", f.Start)
	if err != nil {
		return analysis.Context{}, fmt.Errorf("bad -start date: %w", err)
	}
	if err := simtime.CheckPeriod(start, f.Days); err != nil {
		return analysis.Context{}, fmt.Errorf("bad study period (-start %s -days %d): %w", f.Start, f.Days, err)
	}
	return analysis.Context{Period: simtime.NewPeriod(start, f.Days), TZOffsetSeconds: f.TZ * 3600}, nil
}

// RunOptions returns the analysis options the flags determine: the
// seed, and the Table 2 rare-day thresholds scaled with the study
// length (the paper's 10 and 30 days of 90).
func (f *Flags) RunOptions() analysis.RunOptions {
	return analysis.RunOptions{
		Seed:     f.Seed,
		RareDays: []int{max(1, f.Days/9), max(2, f.Days/3)},
	}
}

// Ingest returns the resilient-ingest configuration — malformed records
// are quarantined within the error budget instead of killing the run,
// and records dated more than a week outside the study period count as
// corrupt (the week of slack keeps boundary spillover out of
// quarantine) — and opens the -quarantine file as its sink. closeSink
// flushes and closes that file (a no-op without one); every exit path
// must call it, and a failure means the audit trail is incomplete.
func (f *Flags) Ingest(period simtime.Period, reg *obs.Registry) (cfg cdr.ResilientConfig, closeSink func() error, err error) {
	cfg = cdr.ResilientConfig{
		// A zero budget means zero tolerance, not "use the default":
		// the first malformed record aborts, same as -strict.
		Strict:     f.Strict || f.Budget == 0,
		MaxBadFrac: f.Budget / 100,
		MinStart:   period.Start().AddDate(0, 0, -7),
		MaxStart:   period.End().AddDate(0, 0, 7),
		Obs:        reg,
	}
	if f.Quarantine == "" {
		return cfg, func() error { return nil }, nil
	}
	qf, err := os.Create(f.Quarantine)
	if err != nil {
		return cfg, nil, fmt.Errorf("open quarantine file: %w", err)
	}
	qw := cdr.NewQuarantineWriter(qf)
	cfg.Sink = qw
	return cfg, func() error {
		if err := qw.Close(); err != nil {
			qf.Close()
			return err
		}
		return qf.Close()
	}, nil
}

// WorkerArgs returns the flags as the command-line arguments that give
// a worker process the same study.
func (f *Flags) WorkerArgs() []string {
	args := []string{
		"-days", strconv.Itoa(f.Days),
		"-start", f.Start,
		"-seed", strconv.FormatUint(f.Seed, 10),
		"-tz", strconv.Itoa(f.TZ),
		"-budget", strconv.FormatFloat(f.Budget, 'f', -1, 64),
	}
	if f.Strict {
		args = append(args, "-strict")
	}
	return args
}
