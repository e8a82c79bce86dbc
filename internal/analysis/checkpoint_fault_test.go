package analysis

import (
	"errors"
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
// through for one test and restores it on cleanup. Tests using it must
// not run in parallel.
func stubCheckpointIO(t *testing.T, create func(string) (snapshot.File, error), rename func(string, string) error) {
	t.Helper()
	orig := snapshot.FS
	if create != nil {
		snapshot.FS.Create = create
	}
	if rename != nil {
		snapshot.FS.Rename = rename
	}
	t.Cleanup(func() { snapshot.FS = orig })
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

// TestCheckpointWriteFailsAtFirstAttempt: a failed create or rename is
// tried once, its error returned, and the write leaves neither the file
// nor its temp file behind, nor a write counted.
func TestCheckpointWriteFailsAtFirstAttempt(t *testing.T) {
	permanent := errors.New("disk on fire")
	for _, step := range []string{"create", "rename"} {
		t.Run(step, func(t *testing.T) {
			calls := 0
			if step == "create" {
				stubCheckpointIO(t, func(string) (snapshot.File, error) {
					calls++
					return nil, permanent
				}, nil)
			} else {
				stubCheckpointIO(t, nil, func(string, string) error {
					calls++
					return permanent
				})
			}
			reg := obs.New()
			s := faultTestStreaming(t)
			s.opts.Obs = reg
			path := t.TempDir() + "/ckpt.snap"
			if err := s.WriteSnapshot(path); !errors.Is(err, permanent) {
				t.Fatalf("want the %s error surfaced, got %v", step, err)
			}
			if calls != 1 {
				t.Fatalf("%s attempted %d times, want 1", step, calls)
			}
			for _, p := range []string{path, path + ".tmp"} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("failed write left %s behind (stat err %v)", p, err)
				}
			}
			if got := reg.Counter("cellcars_checkpoint_writes_total").Value(); got != 0 {
				t.Fatalf("writes counter = %d, want 0", got)
			}
		})
	}
}
