package drive

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
)

// WorkerConfig describes one shard attempt as run inside a worker
// process (caranalyze -partial, or a test helper binary). Every worker
// scans ALL inputs and keeps only the records whose car hashes into
// its shard: input files may interleave cars freely, and car-disjoint
// shards are what make the partials merge bit-identically.
type WorkerConfig struct {
	// Inputs are the CDR files to scan (binary or .csv).
	Inputs []string
	// Shard/Shards select the car-hash slice: records with
	// cdr.ShardOfCar(car, Shards) == Shard are kept. Shards <= 1 keeps
	// everything.
	Shard, Shards int
	// Attempt is the coordinator's attempt ordinal, used only as the
	// chaos draw key.
	Attempt int
	// Out is the snapshot path to write. The write is atomic
	// (tmp+fsync+rename), so a killed worker never leaves a torn Out.
	Out string
	// Ctx and Opts configure the analysis accumulators.
	Ctx  analysis.Context
	Opts analysis.RunOptions
	// Ingest configures the resilient ingest layer (error budget,
	// quarantine sink, ...).
	Ingest cdr.ResilientConfig
	// Chaos, when non-nil, injects the drawn fault for this attempt.
	Chaos *Chaos
}

// WorkerStats is what a worker reports back to the coordinator on
// stdout: how many records its shard absorbed and how many the full
// input scan quarantined.
type WorkerStats struct {
	// Records counts records accepted into the shard's accumulators.
	Records int64 `json:"records"`
	// Quarantined counts records the resilient ingest rejected across
	// the worker's full scan of all inputs (not shard-scoped: every
	// worker sees every malformed record).
	Quarantined int64 `json:"quarantined"`
}

// statsPrefix marks the machine-readable stats line a worker prints on
// stdout for the coordinator to parse.
const statsPrefix = "DRIVE_STATS "

// PrintStats emits the stats line RunWorker's caller should print for
// the coordinator.
func PrintStats(w io.Writer, st WorkerStats) {
	b, _ := json.Marshal(st)
	fmt.Fprintf(w, "%s%s\n", statsPrefix, b)
}

// parseWorkerStats scans process output for the last stats line.
func parseWorkerStats(out []byte) (WorkerStats, bool) {
	var st WorkerStats
	found := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if !bytes.HasPrefix(line, []byte(statsPrefix)) {
			continue
		}
		var parsed WorkerStats
		if json.Unmarshal(line[len(statsPrefix):], &parsed) == nil {
			st, found = parsed, true
		}
	}
	return st, found
}

// RunWorker executes one shard attempt: read the inputs as one
// stream, filter to the shard's cars through the resilient ingest
// layer, accumulate, and write the partial snapshot atomically. It is
// the single implementation behind caranalyze -partial, so a
// coordinator-spawned worker and a hand-run one behave identically.
func RunWorker(cfg WorkerConfig) (WorkerStats, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return WorkerStats{}, fmt.Errorf("drive: shard %d outside [0, %d)", cfg.Shard, cfg.Shards)
	}
	if len(cfg.Inputs) == 0 {
		return WorkerStats{}, fmt.Errorf("drive: no inputs")
	}
	if cfg.Out == "" {
		return WorkerStats{}, fmt.Errorf("drive: no output path")
	}

	files, closer, err := cdr.OpenFiles(cfg.Inputs...)
	if err != nil {
		return WorkerStats{}, fmt.Errorf("drive: open input: %w", err)
	}
	defer closer.Close()

	rr := cdr.NewResilientReader(files, cfg.Ingest)
	var stream cdr.Reader = rr
	if cfg.Shards > 1 {
		shard, shards := cfg.Shard, cfg.Shards
		stream = cdr.FilterFunc(rr, func(rec cdr.Record) bool {
			return cdr.ShardOfCar(rec.Car, shards) == shard
		})
	}
	plan := cfg.Chaos.plan(cfg.Shard, cfg.Attempt)
	stream = plan.wrap(stream)

	acc := analysis.NewStreamingWithOptions(cfg.Ctx, cfg.Opts)
	if err := acc.AddAll(stream); err != nil {
		ist := rr.Stats()
		return WorkerStats{Records: acc.Watermark(), Quarantined: ist.QuarantinedTotal()},
			fmt.Errorf("drive: shard %d/%d ingest: %w", cfg.Shard, cfg.Shards, err)
	}
	ist := rr.Stats()
	st := WorkerStats{Records: acc.Watermark(), Quarantined: ist.QuarantinedTotal()}
	if err := acc.WriteSnapshot(cfg.Out); err != nil {
		return st, fmt.Errorf("drive: shard %d/%d snapshot: %w", cfg.Shard, cfg.Shards, err)
	}
	if plan.mode == chaosFlip {
		if err := flipFile(cfg.Out, plan.seed); err != nil {
			return st, fmt.Errorf("drive: chaos flip: %w", err)
		}
	}
	return st, nil
}
