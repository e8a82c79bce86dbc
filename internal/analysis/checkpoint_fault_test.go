package analysis

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
)

// stubCheckpointIO replaces the filesystem the checkpoint write goes
// through, and the backoff sleep, for one test and restores them on
// cleanup. Tests using it must not run in parallel.
func stubCheckpointIO(t *testing.T, create func(string) (snapshot.File, error), rename func(string, string) error) {
	t.Helper()
	origFS, origSleep := snapshot.FS, checkpointSleep
	if create != nil {
		snapshot.FS.Create = create
	}
	if rename != nil {
		snapshot.FS.Rename = rename
	}
	checkpointSleep = func(time.Duration) {}
	t.Cleanup(func() { snapshot.FS, checkpointSleep = origFS, origSleep })
}

func faultTestStreaming(t *testing.T) *Streaming {
	t.Helper()
	period := simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 7)
	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	for i := 0; i < 100; i++ {
		s.Add(cdr.Record{
			Car:      cdr.CarID(i % 7),
			Cell:     radio.MakeCellKey(radio.BSID(1+i%5), 0, radio.C1),
			Start:    period.Start().Add(time.Duration(i) * time.Hour),
			Duration: 90 * time.Second,
		})
	}
	return s
}

// TestCheckpointWriteRetriesTransientCreate injects transient create
// failures and expects the atomic write to succeed after retries, with
// the retries counted in the registry.
func TestCheckpointWriteRetriesTransientCreate(t *testing.T) {
	fails := 2
	stubCheckpointIO(t, func(name string) (snapshot.File, error) {
		if fails > 0 {
			fails--
			return nil, fmt.Errorf("injected create fault: %w", cdr.ErrTransient)
		}
		return os.Create(name)
	}, nil)

	reg := obs.New()
	s := faultTestStreaming(t)
	s.opts.Obs = reg
	path := t.TempDir() + "/ckpt.snap"
	if err := s.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot after transient faults: %v", err)
	}
	if fails != 0 {
		t.Fatalf("create stub called too few times; %d injected faults unused", fails)
	}
	if got := reg.Counter("cellcars_checkpoint_retries_total").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
	if got := reg.Counter("cellcars_checkpoint_writes_total").Value(); got != 1 {
		t.Fatalf("writes counter = %d, want 1", got)
	}
	if p, err := ReadPartialFile(path); err != nil {
		t.Fatalf("snapshot written under faults does not restore: %v", err)
	} else if p.Records() != 100 {
		t.Fatalf("restored %d records, want 100", p.Records())
	}
}

// TestCheckpointWriteRetriesTransientRename injects transient rename
// failures: the retried attempt rewrites a fresh temp file and the
// final file must restore cleanly, with no temp file left behind.
func TestCheckpointWriteRetriesTransientRename(t *testing.T) {
	fails := 1
	stubCheckpointIO(t, nil, func(oldpath, newpath string) error {
		if fails > 0 {
			fails--
			return fmt.Errorf("injected rename fault: %w", cdr.ErrTransient)
		}
		return os.Rename(oldpath, newpath)
	})

	s := faultTestStreaming(t)
	path := t.TempDir() + "/ckpt.snap"
	if err := s.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot after transient rename fault: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind after retried rename (stat err %v)", err)
	}
	if _, err := ReadPartialFile(path); err != nil {
		t.Fatalf("snapshot does not restore: %v", err)
	}
}

// TestCheckpointWriteGivesUpAfterBudget exhausts the retry budget and
// expects the transient error to surface, not an infinite loop.
func TestCheckpointWriteGivesUpAfterBudget(t *testing.T) {
	calls := 0
	stubCheckpointIO(t, func(string) (snapshot.File, error) {
		calls++
		return nil, fmt.Errorf("injected persistent fault: %w", cdr.ErrTransient)
	}, nil)

	s := faultTestStreaming(t)
	err := s.WriteSnapshot(t.TempDir() + "/ckpt.snap")
	if err == nil || !cdr.IsTransient(err) {
		t.Fatalf("want surfaced transient error, got %v", err)
	}
	if want := checkpointRetryAttempts + 1; calls != want {
		t.Fatalf("create attempted %d times, want %d", calls, want)
	}
}

// TestCheckpointWriteNonTransientFailsFast: a permanent failure is not
// retried at all.
func TestCheckpointWriteNonTransientFailsFast(t *testing.T) {
	calls := 0
	permanent := errors.New("disk on fire")
	stubCheckpointIO(t, func(string) (snapshot.File, error) {
		calls++
		return nil, permanent
	}, nil)

	s := faultTestStreaming(t)
	err := s.WriteSnapshot(t.TempDir() + "/ckpt.snap")
	if !errors.Is(err, permanent) {
		t.Fatalf("want the permanent error surfaced, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("create attempted %d times, want 1 (no retries on permanent errors)", calls)
	}
}
