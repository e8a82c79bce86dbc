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
// reads the bytes of ALL inputs and keeps only the rows its shard owns
// (cdr.OpenShard): input files may interleave cars freely, and
// car-disjoint shards are what make the partials merge bit-identically.
type WorkerConfig struct {
	// Inputs are the CDR files to scan (binary or .csv).
	Inputs []string
	// Shard/Shards select the car-hash slice: the rows cdr.OpenShard
	// gives shard Shard of Shards — records with cdr.ShardOfCar(car,
	// Shards) == Shard, and this shard's share of the rows that do not
	// parse. Shards <= 1 keeps everything.
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
// stdout: how many records its shard absorbed, how many of its rows the
// ingest quarantined, and what the scan for them cost.
type WorkerStats struct {
	// Records counts records accepted into the shard's accumulators.
	Records int64 `json:"records"`
	// Quarantined counts the rows the resilient ingest rejected among
	// those this shard owns, and ByClass splits it by failure class.
	// Every input row is judged by exactly one worker (cdr.OpenShard), so
	// both add up across the shards of a run to what one reader of the
	// whole input counts.
	Quarantined int64            `json:"quarantined"`
	ByClass     map[string]int64 `json:"by_class,omitempty"`
	// Rows counts every row and frame of the inputs, Skipped the ones
	// dropped unjudged because another shard owns them: Rows == Skipped +
	// records read + Quarantined, and Rows over records read is the
	// worker's decode amplification.
	Rows    int64 `json:"rows"`
	Skipped int64 `json:"skipped"`
}

// ExitInputRefused is the exit code of a worker whose ingest refused
// the input (cdr.ErrRefused: -strict met a malformed record, or the
// error budget ran out). The coordinator does not retry it.
const ExitInputRefused = 4

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

// RunWorker executes one shard attempt: read the shard's rows of the
// inputs as one stream through the resilient ingest layer, accumulate,
// and write the partial snapshot atomically. It is
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

	files, err := cdr.OpenShard(cfg.Shard, cfg.Shards, cfg.Inputs...)
	if err != nil {
		return WorkerStats{}, fmt.Errorf("drive: open input: %w", err)
	}
	defer files.Close()

	rr := cdr.NewResilientReader(files, cfg.Ingest)
	plan := cfg.Chaos.plan(cfg.Shard, cfg.Attempt)

	acc := analysis.NewStreamingWithOptions(cfg.Ctx, cfg.Opts)
	err = acc.AddAll(plan.wrap(rr))
	ist, scan := rr.Stats(), files.Scan()
	st := WorkerStats{
		Records:     acc.Watermark(),
		Quarantined: ist.QuarantinedTotal(),
		ByClass:     ist.ByClass(),
		Rows:        scan.Rows,
		Skipped:     scan.Skipped,
	}
	if err != nil {
		return st, fmt.Errorf("drive: shard %d/%d ingest: %w", cfg.Shard, cfg.Shards, err)
	}
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
