package drive

import (
	"context"
	"encoding/json"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// newLedger builds a coordinator that is never Run: no journal file, no
// worker processes. The event methods are driven by hand, which is all
// the ledger tests need.
func newLedger(t *testing.T, shards, maxAttempts int) *Coordinator {
	t.Helper()
	c, err := New(Config{
		Inputs:       []string{"unused.cdr"},
		Shards:       shards,
		MaxAttempts:  maxAttempts,
		RetryBackoff: 400 * time.Millisecond,
		JitterSeed:   1,
		WorkDir:      t.TempDir(),
		Command:      func(WorkerSpec) *exec.Cmd { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// launched journals the next attempt of s the way launch does.
func launched(t *testing.T, c *Coordinator, s *shardRun, start time.Time) *attempt {
	t.Helper()
	a := &attempt{shard: s.id, n: s.attempts, start: start}
	if err := c.attempt(s, a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestLedgerTimeline drives one shard through a retry-and-recover
// sequence with the event methods and checks what Status derives from
// the ledger, and that it is a deep copy.
func TestLedgerTimeline(t *testing.T) {
	c := newLedger(t, 3, 3)
	st := c.Status()
	if st.Phase != "planning" || len(st.Shards) != 3 {
		t.Fatalf("fresh ledger: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.State != "pending" || len(sh.Attempts) != 0 {
			t.Fatalf("fresh shard not pending/empty: %+v", sh)
		}
	}

	c.setPhase("running")
	s := c.shards[1]
	t0 := time.Date(2017, 1, 2, 9, 0, 0, 0, time.UTC)
	a0 := launched(t, c, s, t0)
	st = c.Status()
	if st.Inflight != 1 || st.Attempts != 1 || st.Shards[1].State != "running" {
		t.Fatalf("after launch: %+v", st)
	}

	// First attempt crashes: outcome settles, shard returns to pending
	// with a backoff expiry.
	a0.dur = 250 * time.Millisecond
	before := time.Now()
	if err := c.fail(s, a0, ClassCrash, "signal: killed"); err != nil {
		t.Fatal(err)
	}
	st = c.Status()
	sh := st.Shards[1]
	if st.Inflight != 0 || sh.State != "pending" || sh.Failures != 1 {
		t.Fatalf("after crash: %+v", st)
	}
	// 400ms base backoff with ±50% jitter.
	if sh.NextTry == nil || sh.NextTry.Before(before.Add(200*time.Millisecond)) || sh.NextTry.After(time.Now().Add(600*time.Millisecond)) {
		t.Fatalf("backoff expiry not exposed: %+v", sh)
	}
	a := sh.Attempts[0]
	if a.Outcome != "crash" || a.Err != "signal: killed" || a.Seconds != 0.25 || !a.Started.Equal(t0) {
		t.Fatalf("crash attempt: %+v", a)
	}

	// Retry succeeds: timeline keeps both attempts, NextTry clears on
	// launch.
	a1 := launched(t, c, s, t0.Add(time.Second))
	if a1.n != 1 {
		t.Fatalf("retry ordinal %d, want 1", a1.n)
	}
	if sh := c.Status().Shards[1]; sh.State != "running" || sh.NextTry != nil {
		t.Fatalf("after relaunch: %+v", sh)
	}
	a1.dur = 300 * time.Millisecond
	if err := c.done(s, a1, WorkerStats{Records: 7}); err != nil {
		t.Fatal(err)
	}
	c.setPhase("done")
	st = c.Status()
	sh = st.Shards[1]
	if st.Done != 1 || st.Attempts != 2 || st.Inflight != 0 || sh.State != "done" || sh.NextTry != nil {
		t.Fatalf("after retry: %+v", st)
	}
	if len(sh.Attempts) != 2 || sh.Attempts[0].Outcome != "crash" || sh.Attempts[1].Outcome != "ok" {
		t.Fatalf("timeline lost the crash attempt: %+v", sh.Attempts)
	}

	// Status must be a deep copy: mutating it cannot leak back.
	st.Shards[1].Attempts[0].Outcome = "mutated"
	if got := c.Status().Shards[1].Attempts[0].Outcome; got != "crash" {
		t.Fatalf("status aliases ledger state: %q", got)
	}

	// The wire shape is stable JSON with snake_case keys.
	body, err := json.Marshal(c.Status())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"phase"`, `"shards"`, `"attempts"`, `"updated_at"`} {
		if !strings.Contains(string(body), key) {
			t.Fatalf("status JSON missing %s:\n%s", key, body)
		}
	}
}

// TestLedgerQuarantine: a shard whose budget is spent is quarantined by
// the failing event itself, and a speculative sibling still running
// holds the decision back until it fails too.
func TestLedgerQuarantine(t *testing.T) {
	c := newLedger(t, 2, 2)
	s := c.shards[0]
	a0 := launched(t, c, s, time.Now())
	a0.dur = time.Second
	if err := c.fail(s, a0, ClassBadSnapshot, "checksum mismatch"); err != nil {
		t.Fatal(err)
	}
	a1 := launched(t, c, s, time.Now())
	a2 := &attempt{shard: 0, n: s.attempts, speculative: true, start: time.Now()}
	if err := c.attempt(s, a2); err != nil {
		t.Fatal(err)
	}
	s.inflight[a2] = true
	if err := c.fail(s, a1, ClassBadSnapshot, "checksum mismatch"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Quarantined != 0 || st.Shards[0].State != "running" || st.Shards[0].Failures != 2 || st.Inflight != 1 {
		t.Fatalf("budget spent with a sibling inflight: %+v", st)
	}
	delete(s.inflight, a2)
	if err := c.fail(s, a2, ClassTimeout, "attempt exceeded 1s"); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Quarantined != 1 || st.Shards[0].State != "quarantined" || st.Shards[0].Failures != 3 || st.Shards[0].NextTry != nil {
		t.Fatalf("quarantine not reflected: %+v", st)
	}
	if st.Shards[1].State != "pending" || st.Attempts != 3 || st.Inflight != 0 {
		t.Fatalf("other shard or totals disturbed: %+v", st)
	}
}

// TestStatusDuringChaosRun polls Status from a second goroutine for the
// whole of a run whose workers are killed at random: the ledger must
// never show more attempts inflight than Parallel allows, and by the
// end every attempt launched has an outcome.
func TestStatusDuringChaosRun(t *testing.T) {
	inputs := writeChaosInputs(t, t.TempDir(), 30_000)
	chaos, err := ParseChaos("kill=0.4,n=2000,seed=18")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosTestConfig(t, inputs, 6)
	cfg.MaxAttempts = 6
	cfg.Chaos = chaos
	cfg.Command = helperCommand(nil)
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		settled := map[[2]int]string{}
		for {
			st := coord.Status()
			if st.Inflight > cfg.Parallel {
				t.Errorf("status shows %d inflight, parallel is %d", st.Inflight, cfg.Parallel)
			}
			for _, sh := range st.Shards {
				for _, a := range sh.Attempts {
					key := [2]int{sh.Shard, a.Attempt}
					if was, ok := settled[key]; ok && was != a.Outcome {
						t.Errorf("attempt %d.%d went from %q to %q", sh.Shard, a.Attempt, was, a.Outcome)
					}
					if a.Outcome != "" {
						settled[key] = a.Outcome
					}
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	res, err := coord.Run(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	st := coord.Status()
	if st.Phase != "done" || st.Inflight != 0 || st.Done != res.Done || st.Attempts != res.Attempts {
		t.Fatalf("final status %+v disagrees with result %+v", st, res)
	}
	retries := 0
	for _, sh := range st.Shards {
		for _, a := range sh.Attempts {
			if a.Outcome == "" {
				t.Errorf("attempt %d.%d lost its outcome", sh.Shard, a.Attempt)
			}
			if a.Attempt > 0 {
				retries++
			}
		}
	}
	if retries == 0 || retries != res.Retries {
		t.Fatalf("timeline shows %d retries, result %d", retries, res.Retries)
	}
}
