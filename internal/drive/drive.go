// Package drive implements the fault-tolerant shard coordinator
// behind cmd/cardrive. It plans car-disjoint shards over a set of CDR
// input files, fans the shards out to worker subprocesses (caranalyze
// -partial), and survives the faults a real fleet-scale run hits:
// crashed workers are retried with exponential backoff and jitter,
// hung workers are killed by per-attempt timeouts, stragglers get a
// speculative duplicate attempt (first validated writer wins), and a
// shard that keeps failing — a poisoned shard — is quarantined after
// its attempt budget so the run degrades to a report that names the
// excluded shards instead of dying. A fsynced journal makes the run
// resumable: a crashed coordinator re-plans only incomplete shards.
package drive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
)

// Failure classifications for worker attempts.
const (
	// ClassCrash: the worker exited non-zero or was killed (by the
	// chaos wrapper, the OS, or anything else).
	ClassCrash = "crash"
	// ClassTimeout: the attempt exceeded its deadline and was killed
	// by the coordinator.
	ClassTimeout = "timeout"
	// ClassBadSnapshot: the worker exited cleanly but its output
	// failed snapshot validation (ErrBadSnapshot) or belongs to a
	// different study configuration.
	ClassBadSnapshot = "bad-snapshot"
	// ClassInput: the worker's ingest refused the input (it exited
	// ExitInputRefused). Another attempt would read the same rows under
	// the same policy, so there is none: the run aborts, naming the
	// shard and what its worker said of the row.
	ClassInput = "input"
)

// Config tunes a Coordinator. Inputs, WorkDir and Command are
// required; zero values elsewhere select the documented defaults.
type Config struct {
	// Inputs are the CDR files the run covers. Every worker reads the
	// bytes of all of them and parses, judges and keeps only the rows
	// its car-hash shard owns (cdr.OpenShard), so files may interleave
	// cars freely.
	Inputs []string
	// Shards is the car-hash shard count. Default 2×GOMAXPROCS.
	Shards int
	// Parallel bounds concurrently running worker processes. Default
	// GOMAXPROCS.
	Parallel int
	// MaxAttempts is the per-shard attempt budget; a shard failing
	// this many times is quarantined. Default 3.
	MaxAttempts int
	// AttemptTimeout kills an attempt running longer than this and
	// classifies it as a timeout. 0 disables deadlines.
	AttemptTimeout time.Duration
	// RetryBackoff is the base delay before a failed shard is retried;
	// it doubles per failure (capped at MaxBackoff) with ±50% jitter.
	// Default 250ms; MaxBackoff default 30s.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// JitterSeed seeds the backoff jitter; a fixed seed makes
	// scheduling reproducible in tests. 0 seeds from the clock.
	JitterSeed uint64
	// SpeculativeFactor triggers a duplicate attempt for a shard whose
	// sole running attempt exceeds factor × p95 of completed attempt
	// durations (once SpeculativeMin attempts have completed; default
	// 3). The first attempt to produce a valid snapshot wins; the
	// loser is killed. <= 0 disables speculation.
	SpeculativeFactor float64
	SpeculativeMin    int
	// WorkDir holds shard snapshots and the journal.
	WorkDir string
	// JournalPath overrides the journal location. Default
	// WorkDir/journal.jsonl.
	JournalPath string
	// Resume re-reads the journal and re-plans only shards not yet
	// done. Without Resume, an existing journal is an error — refusing
	// to silently clobber a previous run is part of the fault model.
	Resume bool
	// KeepPartials leaves per-shard snapshots in WorkDir after the
	// merge.
	KeepPartials bool
	// Tag names the study configuration in the journal plan event;
	// resume refuses a journal whose tag differs.
	Tag string
	// Command builds the worker subprocess for one attempt. Required.
	// The coordinator sets AttemptEnv (and ChaosEnv when Chaos is
	// set) on the returned command.
	Command func(spec WorkerSpec) *exec.Cmd
	// Chaos, when non-nil, is forwarded to workers via ChaosEnv.
	Chaos *Chaos
	// Obs receives coordinator metrics (attempts, retries, speculative
	// wins, quarantined shards, merge inputs). Nil disables.
	Obs *obs.Registry
	// Logger receives structured progress records (shard launches,
	// failures, quarantines, merge). Nil discards.
	Logger *slog.Logger
	// Trace, when non-nil, receives plan/attempt/merge spans.
	Trace *obs.Trace
}

// WorkerSpec is what Command receives to build one attempt's process.
type WorkerSpec struct {
	Shard, Shards, Attempt int
	Inputs                 []string
	// Out is the attempt-unique snapshot path the worker must write.
	Out string
}

// Result summarizes a completed run.
type Result struct {
	// Report is the merged analysis report over all completed shards.
	Report *analysis.Report
	// Header is the merged snapshot header (Watermark sums the
	// completed shards' raw record counts).
	Header analysis.SnapshotHeader
	// Excluded lists quarantined shards, ready for
	// DataQuality.ExcludedShards.
	Excluded []analysis.ExcludedShard
	// Done and Quarantined count shard outcomes.
	Done, Quarantined int
	// Attempts counts worker processes launched; Retries counts
	// re-launches after failures; SpeculativeLaunches/Wins count
	// straggler duplicates and how many beat the original.
	Attempts, Retries   int
	SpeculativeLaunches int
	SpeculativeWins     int
	// Records sums completed shards' accepted records, and
	// IngestQuarantined and IngestByClass the rows their ingest
	// rejected, in total and by failure class: each input row is judged
	// once, by the shard that owns it, so the shards' counts add up to
	// what one reader of the whole input counts.
	Records           int64
	IngestQuarantined int64
	IngestByClass     map[string]int64
	// Elapsed is the wall time of the whole run including the merge.
	Elapsed time.Duration
}

// shard states.
type shardState int

const (
	shardPending shardState = iota
	shardRunning
	shardDone
	shardQuarantined
)

// attempt is one worker process.
type attempt struct {
	shard, n    int
	speculative bool
	out         string
	cmd         *exec.Cmd
	stdout      bytes.Buffer
	stderr      bytes.Buffer
	start       time.Time
	timer       *time.Timer
	// waitErr and dur are set by the goroutine that waits for the
	// process, before it hands the attempt back on Coordinator.results.
	waitErr error
	dur     time.Duration
	// timedOut is set from the deadline timer's goroutine and read by
	// the coordinator loop after Wait returns, hence atomic.
	timedOut atomic.Bool
	// canceled is only touched by the coordinator loop.
	canceled bool
}

func (a *attempt) kill() {
	if a.cmd != nil && a.cmd.Process != nil {
		a.cmd.Process.Kill()
	}
}

// shardRun is the one record of a shard: the schedule loop plans from
// it, Status renders it, finishResult counts it and -resume rebuilds
// it by replaying the journal through apply.
type shardRun struct {
	id       int
	state    shardState
	attempts int // next attempt ordinal: above every journaled one
	failures int
	nextTry  time.Time
	inflight map[*attempt]bool
	// speculated: a duplicate was already launched for the current
	// generation of attempts.
	speculated bool

	lastClass, lastErr string
	// stats of the winning attempt; for quarantined shards, the best
	// observation from any failed attempt.
	stats WorkerStats
	final string // promoted snapshot path
	// timeline holds the attempts this process launched, in launch
	// order; a resumed run starts it empty.
	timeline []AttemptStatus
}

// apply is the ledger's one transition function: what a journal event
// does to its shard, whether the event was just appended by one of the
// Coordinator's event methods or is being replayed on -resume.
func (s *shardRun) apply(ev journalEvent) {
	switch ev.Event {
	case evAttempt, evDone, evFail:
		// Ordinals only grow, so a new attempt's output path never
		// collides with an orphan's — a launch without a recorded
		// outcome, or a speculative loser numbered above the winner.
		s.attempts = max(s.attempts, ev.Attempt+1)
	}
	switch ev.Event {
	case evDone:
		s.state = shardDone
		s.stats = WorkerStats{Records: ev.Records, Quarantined: ev.Quarantined, ByClass: ev.ByClass}
	case evFail:
		s.failures++
		s.lastClass, s.lastErr = ev.Class, ev.Err
		// A failed attempt may still have reported how far it got; keep
		// the best observation for the excluded-shard accounting.
		s.stats.Records = max(s.stats.Records, ev.Records)
	case evQuarantine:
		s.state = shardQuarantined
	}
}

// settle records how a ended on the shard's timeline.
func (s *shardRun) settle(a *attempt, outcome, errMsg string) {
	for i := range s.timeline {
		if t := &s.timeline[i]; t.Attempt == a.n {
			t.Outcome, t.Err, t.Seconds = outcome, errMsg, a.dur.Seconds()
			return
		}
	}
}

// Coordinator runs the fault-tolerant shard schedule. Use New, then
// Run once.
type Coordinator struct {
	cfg Config
	log *slog.Logger
	met driveMetrics
	jr  *journal
	// mu orders the schedule loop's writes to phase and shards with
	// Status on other goroutines; the loop is the only writer, so its
	// own reads take no lock.
	mu      sync.Mutex
	phase   string // planning | running | merging | done
	shards  []*shardRun
	results chan *attempt
	rng     *rand.Rand
	// durations of completed (successful) attempts, seconds — the
	// speculation baseline.
	durations []float64
	inflight  int
	hdr       *analysis.SnapshotHeader // first promoted header, the study fingerprint
	res       Result
}

// driveMetrics are nil handles, hence no-ops, without a registry.
type driveMetrics struct {
	retries     *obs.Counter
	specLaunch  *obs.Counter
	specWins    *obs.Counter
	quarantined *obs.Counter
	attemptSec  *obs.Timing
	mergeInputs *obs.Counter
	shardsDone  *obs.Gauge
}

// New validates the config and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Inputs) == 0 {
		return nil, errors.New("drive: no inputs")
	}
	if cfg.WorkDir == "" {
		return nil, errors.New("drive: no work directory")
	}
	if cfg.Command == nil {
		return nil, errors.New("drive: no worker command factory")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.SpeculativeMin <= 0 {
		cfg.SpeculativeMin = 3
	}
	if cfg.JournalPath == "" {
		cfg.JournalPath = filepath.Join(cfg.WorkDir, "journal.jsonl")
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	c := &Coordinator{
		cfg:   cfg,
		log:   cfg.Logger,
		phase: "planning",
		met: driveMetrics{
			retries:     cfg.Obs.Counter("cellcars_drive_retries_total"),
			specLaunch:  cfg.Obs.Counter("cellcars_drive_speculative_launches_total"),
			specWins:    cfg.Obs.Counter("cellcars_drive_speculative_wins_total"),
			quarantined: cfg.Obs.Counter("cellcars_drive_quarantined_shards_total"),
			attemptSec:  cfg.Obs.Timing("cellcars_drive_attempt_seconds"),
			mergeInputs: cfg.Obs.Counter("cellcars_drive_merge_inputs_total"),
			shardsDone:  cfg.Obs.Gauge("cellcars_drive_shards_done"),
		},
		rng:     rand.New(rand.NewPCG(seed, 0xD21FE)),
		results: make(chan *attempt, cfg.Parallel*2+4),
	}
	c.shards = make([]*shardRun, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shardRun{
			id:       i,
			inflight: make(map[*attempt]bool),
			final:    filepath.Join(cfg.WorkDir, fmt.Sprintf("shard%04d.snap", i)),
		}
	}
	return c, nil
}

// Run executes the schedule until every shard is done or quarantined,
// then merges the completed partials. Cancelling ctx kills all
// inflight workers and returns ctx.Err(); the journal allows a later
// Resume run to pick up where this one stopped.
func (c *Coordinator) Run(ctx context.Context) (*Result, error) {
	t0 := time.Now()
	if err := os.MkdirAll(c.cfg.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("drive: workdir: %w", err)
	}
	if err := c.openOrResume(); err != nil {
		return nil, err
	}
	defer c.jr.f.Close()
	c.cfg.Trace.Emit("plan", time.Since(t0), int64(c.cfg.Shards))

	c.setPhase("running")
	if err := c.schedule(ctx); err != nil {
		return nil, err
	}

	if c.count(shardDone) == 0 {
		return nil, errors.New("drive: every shard was quarantined; nothing to merge")
	}
	c.setPhase("merging")
	partial, err := c.mergeDone()
	if err != nil {
		return nil, err
	}
	if err := c.jr.emit(journalEvent{Event: evMerged, Shards: c.count(shardDone)}); err != nil {
		return nil, err
	}
	c.finishResult(partial, t0)
	c.cleanup()
	c.setPhase("done")
	return &c.res, nil
}

func (c *Coordinator) setPhase(p string) {
	c.mu.Lock()
	c.phase = p
	c.mu.Unlock()
}

// openOrResume opens the journal, enforcing the fresh-run/resume
// contract, and for resume replays the log into shard state.
func (c *Coordinator) openOrResume() error {
	_, statErr := os.Stat(c.cfg.JournalPath)
	exists := statErr == nil
	if exists && !c.cfg.Resume {
		return fmt.Errorf("drive: journal %s exists; resume the run or use a fresh work directory", c.cfg.JournalPath)
	}
	if c.cfg.Resume && exists {
		if err := c.replay(); err != nil {
			return err
		}
	}
	jr, err := openJournal(c.cfg.JournalPath)
	if err != nil {
		return err
	}
	c.jr = jr
	if !exists {
		return c.jr.emit(journalEvent{
			Event:  evPlan,
			Shards: c.cfg.Shards,
			Inputs: c.cfg.Inputs,
			Tag:    c.cfg.Tag,
		})
	}
	return nil
}

// replay rebuilds the ledger from the journal of the run being
// resumed: every shard event goes through apply, then done shards are
// revalidated (and re-planned if their snapshot is gone or bad).
// Failure counts carry over and quarantined shards stay quarantined.
func (c *Coordinator) replay() error {
	events, err := readJournal(c.cfg.JournalPath)
	if err != nil {
		return err
	}
	if len(events) == 0 || events[0].Event != evPlan {
		return errors.New("drive: journal has no plan event; cannot resume")
	}
	plan := events[0]
	if plan.Shards != c.cfg.Shards {
		return fmt.Errorf("drive: journal planned %d shards, run configured %d", plan.Shards, c.cfg.Shards)
	}
	if plan.Tag != c.cfg.Tag {
		return fmt.Errorf("drive: journal tag %q does not match run tag %q", plan.Tag, c.cfg.Tag)
	}
	if len(plan.Inputs) != len(c.cfg.Inputs) {
		return fmt.Errorf("drive: journal planned %d inputs, run configured %d", len(plan.Inputs), len(c.cfg.Inputs))
	}
	for i, in := range plan.Inputs {
		if in != c.cfg.Inputs[i] {
			return fmt.Errorf("drive: journal input %d is %q, run configured %q", i, in, c.cfg.Inputs[i])
		}
	}
	c.mu.Lock()
	applyEvents(c.shards, events[1:])
	c.mu.Unlock()
	replanned := 0
	for _, s := range c.shards {
		if s.state != shardDone {
			continue
		}
		// Trust but verify: the snapshot must still exist and parse.
		if _, err := c.validateSnapshot(s.final); err != nil {
			c.log.Warn("resume: shard snapshot invalid; re-planning", "shard", s.id, "class", ClassBadSnapshot, "err", err.Error())
			c.mu.Lock()
			s.state = shardPending
			c.mu.Unlock()
			replanned++
		}
	}
	c.met.shardsDone.Set(float64(c.count(shardDone)))
	c.log.Info("resume", "done", c.count(shardDone), "replanned", replanned, "quarantined", c.count(shardQuarantined))
	return nil
}

// applyEvents replays journaled shard events into a ledger. An event
// naming a shard outside the plan changes nothing.
func applyEvents(shards []*shardRun, events []journalEvent) {
	for _, ev := range events {
		if ev.Shard >= 0 && ev.Shard < len(shards) {
			shards[ev.Shard].apply(ev)
		}
	}
}

// count returns how many shards are in the given state.
func (c *Coordinator) count(state shardState) int {
	n := 0
	for _, s := range c.shards {
		if s.state == state {
			n++
		}
	}
	return n
}

// schedule is the coordinator event loop.
func (c *Coordinator) schedule(ctx context.Context) error {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		if err := c.launchEligible(); err != nil {
			c.abort()
			return err
		}
		if err := c.maybeSpeculate(); err != nil {
			c.abort()
			return err
		}
		if c.settled() {
			return nil
		}
		select {
		case a := <-c.results:
			if err := c.handleResult(a); err != nil {
				c.abort()
				return err
			}
		case <-ctx.Done():
			c.abort()
			return ctx.Err()
		case <-tick.C:
			// Re-evaluate backoff expiries and speculation.
		}
	}
}

// settled reports whether every shard reached a terminal state and all
// worker processes have been reaped.
func (c *Coordinator) settled() bool {
	return c.inflight == 0 && c.count(shardPending)+c.count(shardRunning) == 0
}

// abort kills everything inflight and drains their results, which
// handleResult settles as canceled.
func (c *Coordinator) abort() {
	for _, s := range c.shards {
		for a := range s.inflight {
			a.canceled = true
			a.kill()
		}
	}
	for c.inflight > 0 {
		c.handleResult(<-c.results)
	}
}

// launchEligible starts attempts for pending shards whose backoff has
// expired, while parallelism slots are free.
func (c *Coordinator) launchEligible() error {
	now := time.Now()
	for _, s := range c.shards {
		if c.inflight >= c.cfg.Parallel {
			return nil
		}
		if s.state != shardPending || now.Before(s.nextTry) {
			continue
		}
		if err := c.launch(s, false); err != nil {
			return err
		}
	}
	return nil
}

// launch starts one worker attempt for a shard.
func (c *Coordinator) launch(s *shardRun, speculative bool) error {
	a := &attempt{
		shard:       s.id,
		n:           s.attempts,
		speculative: speculative,
		out:         filepath.Join(c.cfg.WorkDir, fmt.Sprintf("shard%04d.a%02d.snap", s.id, s.attempts)),
		start:       time.Now(),
	}
	spec := WorkerSpec{Shard: s.id, Shards: c.cfg.Shards, Attempt: a.n, Inputs: c.cfg.Inputs, Out: a.out}
	cmd := c.cfg.Command(spec)
	if cmd == nil {
		return fmt.Errorf("drive: command factory returned nil for shard %d", s.id)
	}
	if cmd.Env == nil {
		cmd.Env = os.Environ()
	}
	cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", AttemptEnv, a.n))
	if c.cfg.Chaos != nil {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%s", ChaosEnv, c.cfg.Chaos))
	}
	if cmd.Stdout == nil {
		cmd.Stdout = &a.stdout
	}
	if cmd.Stderr == nil {
		cmd.Stderr = &a.stderr
	}
	a.cmd = cmd

	if err := c.attempt(s, a); err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		// Spawn failure is a crash-class failure of this attempt, not
		// a coordinator error: the retry/quarantine machinery owns it.
		c.log.Error("worker failed to start", "shard", s.id, "attempt", a.n, "err", err.Error())
		return c.fail(s, a, ClassCrash, fmt.Sprintf("start worker: %v", err))
	}
	s.inflight[a] = true
	c.inflight++
	if c.cfg.AttemptTimeout > 0 {
		a.timer = time.AfterFunc(c.cfg.AttemptTimeout, func() {
			a.timedOut.Store(true)
			a.kill()
		})
	}
	go func() {
		a.waitErr = a.cmd.Wait()
		a.dur = time.Since(a.start)
		c.results <- a
	}()
	return nil
}

// handleResult classifies a finished attempt and hands it to the event
// method for its outcome.
func (c *Coordinator) handleResult(a *attempt) error {
	s := c.shards[a.shard]
	delete(s.inflight, a)
	c.inflight--
	if a.timer != nil {
		a.timer.Stop()
	}

	if a.canceled {
		c.drop(a)
		return nil
	}
	if a.timedOut.Load() {
		return c.fail(s, a, ClassTimeout, fmt.Sprintf("attempt exceeded %s", c.cfg.AttemptTimeout))
	}
	if a.waitErr != nil {
		msg := a.waitErr.Error()
		if tail := lastLines(a.stderr.Bytes(), 3); tail != "" {
			msg += ": " + tail
		}
		class := ClassCrash
		var exit *exec.ExitError
		if errors.As(a.waitErr, &exit) && exit.ExitCode() == ExitInputRefused {
			class = ClassInput
		}
		return c.fail(s, a, class, msg)
	}

	p, err := c.validateSnapshot(a.out)
	if err != nil {
		return c.fail(s, a, ClassBadSnapshot, err.Error())
	}
	if s.state == shardDone {
		// A speculative sibling already won; this valid result is
		// redundant.
		c.drop(a)
		return nil
	}
	// Promote: renaming the validated attempt snapshot to the shard's
	// final path is the atomic first-writer-wins step.
	if err := os.Rename(a.out, s.final); err != nil {
		return fmt.Errorf("drive: promote shard %d: %w", s.id, err)
	}
	st, ok := parseWorkerStats(a.stdout.Bytes())
	if !ok {
		st = WorkerStats{Records: p.Records()}
	}
	// Kill the losing siblings; their results are reaped as canceled.
	for sib := range s.inflight {
		sib.canceled = true
		sib.kill()
	}
	return c.done(s, a, st)
}

// The event methods below are the ledger's only writers while a run is
// live, one per journal event: each appends the fsynced journal line,
// applies it to the shard, and does that event's metric, log and trace.
// drop settles the one outcome the journal does not record.

// attempt journals the launch of a and puts it on s's timeline.
func (c *Coordinator) attempt(s *shardRun, a *attempt) error {
	ev := journalEvent{Event: evAttempt, Shard: s.id, Attempt: a.n, Speculative: a.speculative}
	if err := c.jr.emit(ev); err != nil {
		return err
	}
	c.mu.Lock()
	s.apply(ev)
	s.state, s.nextTry = shardRunning, time.Time{}
	s.timeline = append(s.timeline, AttemptStatus{Attempt: a.n, Speculative: a.speculative, Started: a.start})
	c.mu.Unlock()
	switch {
	case a.speculative:
		c.met.specLaunch.Inc()
		c.log.Info("speculative attempt launched", "shard", s.id, "attempt", a.n)
	case a.n > 0:
		c.met.retries.Inc()
	}
	return nil
}

// done settles s on a's promoted snapshot.
func (c *Coordinator) done(s *shardRun, a *attempt, st WorkerStats) error {
	ev := journalEvent{
		Event: evDone, Shard: s.id, Attempt: a.n, Speculative: a.speculative,
		Records: st.Records, Quarantined: st.Quarantined, ByClass: st.ByClass, Seconds: a.dur.Seconds(),
	}
	if err := c.jr.emit(ev); err != nil {
		return err
	}
	c.mu.Lock()
	s.apply(ev)
	s.settle(a, "ok", "")
	c.mu.Unlock()
	c.durations = append(c.durations, ev.Seconds)
	c.countAttempt("ok")
	c.met.attemptSec.Observe(a.dur)
	c.met.shardsDone.Set(float64(c.count(shardDone)))
	c.cfg.Trace.Emit(fmt.Sprintf("attempt:%d.%d", s.id, a.n), a.dur, st.Records)
	if a.speculative {
		c.met.specWins.Inc()
		c.log.Info("speculative attempt won", "shard", s.id, "attempt", a.n, "seconds", ev.Seconds)
	} else {
		c.log.Info("shard done", "shard", s.id, "attempt", a.n, "seconds", ev.Seconds,
			"records", st.Records, "rows", st.Rows, "skipped", st.Skipped)
	}
	return nil
}

// fail records a failed attempt, then schedules the retry or, once the
// shard's budget is spent, quarantines it. An input refusal is recorded
// like any failure and then ends the run.
func (c *Coordinator) fail(s *shardRun, a *attempt, class, msg string) error {
	os.Remove(a.out)
	c.countAttempt(class)
	c.cfg.Trace.Emit(fmt.Sprintf("attempt:%d.%d", s.id, a.n), a.dur, 0)
	if s.state == shardDone {
		// A speculative loser failing after the win is noise: it keeps
		// its outcome on the timeline and costs the shard nothing.
		c.mu.Lock()
		s.settle(a, class, msg)
		c.mu.Unlock()
		return nil
	}
	st, _ := parseWorkerStats(a.stdout.Bytes())
	ev := journalEvent{
		Event: evFail, Shard: s.id, Attempt: a.n, Class: class, Err: msg,
		Records: max(s.stats.Records, st.Records), Failures: s.failures + 1,
	}
	c.log.Warn("attempt failed", "shard", s.id, "attempt", a.n, "class", class, "err", msg)
	if err := c.jr.emit(ev); err != nil {
		return err
	}
	// A sibling attempt still running may yet succeed: the shard is
	// retried, or quarantined, only when its last attempt has failed.
	last := len(s.inflight) == 0
	retry := last && s.failures+1 < c.cfg.MaxAttempts && class != ClassInput
	c.mu.Lock()
	s.apply(ev)
	s.settle(a, class, msg)
	if retry {
		s.state, s.speculated = shardPending, false
		s.nextTry = time.Now().Add(c.backoff(s.failures))
	}
	c.mu.Unlock()
	if class == ClassInput {
		return fmt.Errorf("drive: shard %d attempt %d: %s: %s", s.id, a.n, class, msg)
	}
	if last && !retry {
		return c.quarantine(s)
	}
	return nil
}

// quarantine retires a shard whose attempt budget is spent.
func (c *Coordinator) quarantine(s *shardRun) error {
	ev := journalEvent{Event: evQuarantine, Shard: s.id, Failures: s.failures}
	if err := c.jr.emit(ev); err != nil {
		return err
	}
	c.mu.Lock()
	s.apply(ev)
	c.mu.Unlock()
	c.met.quarantined.Inc()
	c.log.Error("shard quarantined", "shard", s.id, "failures", s.failures,
		"last_class", s.lastClass, "last_err", s.lastErr)
	return nil
}

// drop settles an attempt whose result no longer matters — killed for
// a sibling's win or an aborted run, or valid but second.
func (c *Coordinator) drop(a *attempt) {
	os.Remove(a.out)
	c.countAttempt("canceled")
	c.mu.Lock()
	c.shards[a.shard].settle(a, "canceled", "")
	c.mu.Unlock()
}

func (c *Coordinator) countAttempt(outcome string) {
	c.cfg.Obs.Counter("cellcars_drive_attempts_total", obs.Label{Key: "outcome", Value: outcome}).Inc()
}

// backoff computes the jittered exponential delay after the given
// failure count (>= 1): base × 2^(failures-1), capped, ±50% jitter.
func (c *Coordinator) backoff(failures int) time.Duration {
	d := c.cfg.RetryBackoff
	for i := 1; i < failures && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(c.rng.Int64N(int64(d)+1))
}

// maybeSpeculate launches duplicate attempts for stragglers: shards
// whose single running attempt has exceeded SpeculativeFactor × p95 of
// completed attempt durations.
func (c *Coordinator) maybeSpeculate() error {
	if c.cfg.SpeculativeFactor <= 0 || len(c.durations) < c.cfg.SpeculativeMin {
		return nil
	}
	threshold := time.Duration(c.p95() * c.cfg.SpeculativeFactor * float64(time.Second))
	if threshold < 50*time.Millisecond {
		threshold = 50 * time.Millisecond
	}
	now := time.Now()
	for _, s := range c.shards {
		if c.inflight >= c.cfg.Parallel {
			return nil
		}
		if s.state != shardRunning || s.speculated || len(s.inflight) != 1 {
			continue
		}
		var running *attempt
		for a := range s.inflight {
			running = a
		}
		if now.Sub(running.start) <= threshold {
			continue
		}
		s.speculated = true
		if err := c.launch(s, true); err != nil {
			return err
		}
	}
	return nil
}

// p95 of completed attempt durations, in seconds.
func (c *Coordinator) p95() float64 {
	d := append([]float64(nil), c.durations...)
	sort.Float64s(d)
	idx := int(math.Ceil(0.95*float64(len(d)))) - 1
	if idx < 0 {
		idx = 0
	}
	return d[idx]
}

// validateSnapshot parses an attempt's output and checks it belongs to
// the same study as earlier promoted shards. The full parse is what
// turns a bit-flipped file into ErrBadSnapshot before it can poison
// the merge.
func (c *Coordinator) validateSnapshot(path string) (*analysis.Partial, error) {
	p, err := analysis.ReadPartialFile(path)
	if err != nil {
		return nil, err
	}
	if c.hdr == nil {
		h := p.Header // a copy: a pointer into p would keep the whole partial alive
		c.hdr = &h
	} else if err := c.hdr.SameStudy(p.Header); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", filepath.Base(path), err)
	}
	return p, nil
}

// finishResult assembles the Result from the merged partial and the
// shard ledger.
func (c *Coordinator) finishResult(p *analysis.Partial, t0 time.Time) {
	c.res.Report = p.Finalize()
	c.res.Header = p.Header
	c.res.Elapsed = time.Since(t0)
	estimate := c.estimateShardRecords()
	var whole int64 // the input's count as a pre-ownership worker journaled it
	for _, s := range c.shards {
		for _, a := range s.timeline {
			c.res.Attempts++
			switch {
			case a.Speculative:
				c.res.SpeculativeLaunches++
				if a.Outcome == "ok" {
					c.res.SpeculativeWins++
				}
			case a.Attempt > 0:
				c.res.Retries++
			}
		}
		switch s.state {
		case shardDone:
			c.res.Done++
			c.res.Records += s.stats.Records
			c.res.IngestQuarantined += s.stats.Quarantined
			for class, n := range s.stats.ByClass {
				if c.res.IngestByClass == nil {
					c.res.IngestByClass = make(map[string]int64)
				}
				c.res.IngestByClass[class] += n
			}
			if s.stats.Quarantined > 0 && len(s.stats.ByClass) == 0 {
				whole = max(whole, s.stats.Quarantined)
			}
		case shardQuarantined:
			c.res.Quarantined++
			ex := analysis.ExcludedShard{
				Shard:     s.id,
				Attempts:  s.failures,
				LastClass: s.lastClass,
				LastErr:   s.lastErr,
				Records:   s.stats.Records,
			}
			if ex.Records == 0 {
				ex.Records, ex.Estimated = estimate, true
			}
			c.res.Excluded = append(c.res.Excluded, ex)
		}
	}
	if whole > 0 {
		// A resumed work directory whose done events predate row
		// ownership: such a worker judged every row of the input, so its
		// count without classes is the whole input's, not a share to add.
		c.res.IngestQuarantined, c.res.IngestByClass = whole, nil
	}
}

// estimateShardRecords approximates one shard's record count from the
// binary input sizes — the fallback when a quarantined shard never
// reported its own progress. CSV inputs contribute 0 (record size is
// variable), so the estimate is a floor.
func (c *Coordinator) estimateShardRecords() int64 {
	var total int64
	for _, in := range c.cfg.Inputs {
		if strings.HasSuffix(in, ".csv") {
			continue
		}
		if fi, err := os.Stat(in); err == nil {
			total += cdr.BinaryRecordCount(fi.Size())
		}
	}
	return total / int64(c.cfg.Shards)
}

// cleanup removes attempt leftovers and, unless KeepPartials, the
// promoted shard snapshots.
func (c *Coordinator) cleanup() {
	if leftovers, err := filepath.Glob(filepath.Join(c.cfg.WorkDir, "shard*.a*.snap")); err == nil {
		for _, f := range leftovers {
			os.Remove(f)
		}
	}
	for _, s := range c.shards {
		if s.state == shardDone && !c.cfg.KeepPartials {
			os.Remove(s.final)
		}
	}
}

// lastLines returns up to n trailing non-empty lines of b, joined with
// "; " — enough stderr to diagnose a crash without flooding the log.
func lastLines(b []byte, n int) string {
	var lines []string
	for _, line := range bytes.Split(b, []byte("\n")) {
		if s := strings.TrimSpace(string(line)); s != "" {
			lines = append(lines, s)
		}
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "; ")
}
