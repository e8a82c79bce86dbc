package query

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/snapshot"
)

// A cut is one snapshot container holding the whole store:
//
//	"queryheader"  bucket width, watermark, live index, bucket count
//	"bucket:<i>"   bucket i's full Streaming snapshot stream, embedded
//
// Consistency comes from the encode step: every bucket's encoding is
// refreshed under the store mutex in one critical section (the dirty
// ones on every core, refreshLocked), so the frames written afterwards
// describe a single instant of the ingest even while records keep
// arriving. The same step seals every bucket the live index has
// passed, and a sealed bucket's frame is the bytes it already is. The
// write streams those immutable encodings straight into the file: no
// cut buffer is built, so it can run behind ingest (CheckpointBehind)
// at the cost of no more memory than the store already holds.
// Roll-ups are not in a cut.
const (
	cutHeaderFrame = "queryheader"
	cutBucketPfx   = "bucket:"
)

// ErrNoSnapshots marks durability calls on a store configured without
// a snapshot directory.
var ErrNoSnapshots = errors.New("query: no snapshot directory configured")

// cutState is one consistent encoding of the store, taken under the
// lock at start and written outside it.
type cutState struct {
	start     time.Time
	watermark int64
	live      int
	idxs      []int
	encs      [][]byte
}

func (s *Store) cutLocked() (*cutState, error) {
	st := &cutState{watermark: s.watermark, live: s.live}
	for idx := range s.buckets {
		st.idxs = append(st.idxs, idx)
	}
	sort.Ints(st.idxs)
	if err := s.refreshLocked(st.idxs); err != nil {
		return nil, err
	}
	st.encs = make([][]byte, len(st.idxs))
	for i, idx := range st.idxs {
		st.encs[i] = s.buckets[idx].encoded
	}
	return st, nil
}

func (s *Store) writeCut(w io.Writer, st *cutState) error {
	sw := snapshot.NewWriter(w)
	e := sw.Begin(cutHeaderFrame)
	e.Varint(int64(s.width))
	e.Varint(st.watermark)
	e.Varint(int64(st.live))
	e.Uvarint(uint64(len(st.idxs)))
	sw.End()
	for i, idx := range st.idxs {
		sw.RawFrame(cutBucketPfx+strconv.Itoa(idx), st.encs[i])
	}
	return sw.Close()
}

// Checkpoint writes one consistent cut of every live bucket to the
// snapshot directory and prunes old cuts. It returns the new cut's
// sequence number once the cut is renamed into place. Success and
// failure both update the freshness SLIs (last-cut age/duration, last
// cut error, cut-failure counter). A write CheckpointBehind left in
// flight is joined first; its outcome is in the SLIs already, and this
// cut supersedes it.
//
// A store no record has reached since the last cut it wrote would write
// the same bytes again — a periodic cut on the input's last record, the
// cut at EOF and the cut on SIGTERM are one state — so Checkpoint then
// returns that cut's sequence number and writes nothing. Every Add
// moves the watermark, late records included, and a failed cut or a
// Restore leaves no cut of this store's to stand for the next one.
func (s *Store) Checkpoint() (uint64, error) {
	if s.snaps == nil {
		return 0, ErrNoSnapshots
	}
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	s.joinCut()
	st, seq, err := s.encodeCut()
	if st == nil {
		return seq, err
	}
	return s.commitCut(st)
}

// CheckpointBehind is Checkpoint for an ingest loop: it returns once
// the cut is encoded, and the cut's write, fsync and rename run on a
// goroutine behind the caller's next records. At most one such write
// is in flight — every Checkpoint, CheckpointBehind and Restore joins
// it first — so a crash costs at most one cut interval more replay
// than with Checkpoint. The SLIs, cut metrics and trace span are
// updated when the write lands, and only a landed rename makes a state
// "cut". It returns the joined write's error, so a failed periodic
// cut is reported one cut later, together with any error of its own
// encode.
func (s *Store) CheckpointBehind() error {
	if s.snaps == nil {
		return ErrNoSnapshots
	}
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	prev := s.joinCut()
	st, _, err := s.encodeCut()
	if st == nil {
		return errors.Join(prev, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.commitCut(st)
		done <- err
	}()
	s.pending = done
	return prev
}

// joinCut waits for the cut write in flight, if there is one, and
// returns its error. Callers hold cutMu, which the write never takes,
// so the wait keeps the other cut-takers out without deadlocking.
func (s *Store) joinCut() error {
	if s.pending == nil {
		return nil
	}
	err := <-s.pending
	s.pending = nil
	return err
}

// encodeCut encodes the store for a cut, holding the store mutex for
// the encode alone — the time it observes as the cut's stall, and the
// start of the cut. When the last cut this store wrote is of this very
// state it encodes nothing and returns a nil state and that cut's
// sequence number.
func (s *Store) encodeCut() (*cutState, uint64, error) {
	s.mu.Lock()
	if s.cutAt == s.watermark {
		seq := s.lastCutSeq
		s.mu.Unlock()
		return nil, seq, nil
	}
	start := time.Now()
	st, err := s.cutLocked()
	s.mu.Unlock()
	s.met.cutStall.Observe(time.Since(start))
	if err != nil {
		return nil, 0, s.noteCutFailure(err)
	}
	st.start = start
	return st, 0, nil
}

// commitCut writes an encoded cut through the snapshot directory and
// records the outcome in the freshness SLIs: the cut's duration is
// start → rename.
func (s *Store) commitCut(st *cutState) (uint64, error) {
	seq, err := s.snaps.WriteCut(func(w io.Writer) error {
		return s.writeCut(w, st)
	})
	if err != nil {
		return 0, s.noteCutFailure(err)
	}
	dur := time.Since(st.start)
	s.met.cuts.Inc()
	s.met.cutSeconds.Observe(dur)
	s.trace.Emit("cut", dur, st.watermark)
	s.mu.Lock()
	s.lastCutAt = time.Now()
	s.lastCutSeq = seq
	s.lastCutDur = dur
	s.lastCutErr = ""
	s.cutAt = st.watermark
	s.mu.Unlock()
	return seq, nil
}

// noteCutFailure records a failed cut in the freshness SLIs and passes
// the error through.
func (s *Store) noteCutFailure(err error) error {
	s.met.cutFailures.Inc()
	s.mu.Lock()
	s.lastCutErr = err.Error()
	s.mu.Unlock()
	return err
}

// restoredCut is a validated cut, decoded off disk but not yet
// installed.
type restoredCut struct {
	watermark int64
	live      int
	buckets   map[int]*bucket
}

// readCut parses and fully validates one cut stream: container
// integrity, header sanity, every bucket restorable under the store's
// study configuration, and the header watermark equal to the sum of
// bucket record counts. Any failure means "try the previous cut".
func (s *Store) readCut(r io.Reader) (*restoredCut, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}
	name, d, err := sr.Next()
	if err != nil {
		return nil, err
	}
	if name != cutHeaderFrame {
		return nil, fmt.Errorf("query: cut starts with frame %q, want %q", name, cutHeaderFrame)
	}
	width := time.Duration(d.Varint())
	watermark := d.Varint()
	live := int(d.Varint())
	n := d.Len(1 << 20)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if width != s.width {
		return nil, fmt.Errorf("query: cut bucket width %v, store configured for %v", width, s.width)
	}
	if watermark < 0 || live < -1 || live > s.maxIdx {
		return nil, fmt.Errorf("query: cut header implausible (watermark %d, live %d)", watermark, live)
	}

	out := &restoredCut{watermark: watermark, live: live, buckets: make(map[int]*bucket, n)}
	var sum int64
	for i := 0; i < n; i++ {
		name, payload, err := sr.NextFrame()
		if err != nil {
			return nil, err
		}
		idxStr, ok := strings.CutPrefix(name, cutBucketPfx)
		if !ok {
			return nil, fmt.Errorf("query: unexpected cut frame %q", name)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 || idx > s.maxIdx {
			return nil, fmt.Errorf("query: cut bucket index %q out of range", idxStr)
		}
		if _, dup := out.buckets[idx]; dup {
			return nil, fmt.Errorf("query: duplicate cut bucket %d", idx)
		}
		stream, err := analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewBuffer(payload))
		if err != nil {
			return nil, fmt.Errorf("query: restore cut bucket %d: %w", idx, err)
		}
		sum += stream.Watermark()
		if idx < live {
			// Passed buckets come back sealed: restored to prove the
			// payload, kept as the payload.
			stream = nil
		}
		// NextFrame hands over an exact-size payload, ours to keep.
		out.buckets[idx] = &bucket{stream: stream, encoded: payload}
	}
	if _, _, err := sr.NextFrame(); err != io.EOF {
		return nil, fmt.Errorf("query: trailing cut frames: %v", err)
	}
	if sum != watermark {
		return nil, fmt.Errorf("query: cut watermark %d but buckets hold %d records", watermark, sum)
	}
	return out, nil
}

// Restore warm-starts the store from the newest valid cut in the
// snapshot directory, skipping torn, corrupt or other-version cuts
// (SkippedCuts says why). It returns the restored watermark — the
// record count the caller must cdr.Skip on the re-opened stream — and
// ok=false on a cold start (no valid cut). The store must be empty
// (freshly built) when Restore is called.
func (s *Store) Restore() (watermark int64, ok bool, err error) {
	if s.snaps == nil {
		return 0, false, ErrNoSnapshots
	}
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	s.joinCut()
	s.skipped = nil
	_, res, ok, err := s.snaps.LatestValid(func(seq uint64, r io.Reader) (any, error) {
		cut, err := s.readCut(r)
		if err != nil {
			s.skipped = append(s.skipped, fmt.Errorf("%s: %w", s.snaps.CutPath(seq), err))
		}
		return cut, err
	})
	if err != nil || !ok {
		return 0, false, err
	}
	cut := res.(*restoredCut)
	s.mu.Lock()
	s.buckets = cut.buckets
	s.live = cut.live
	s.watermark = cut.watermark
	s.restored = cut.watermark
	s.cutAt = -1
	s.reports = make(map[string]cachedReport)
	s.met.buckets.Set(float64(len(s.buckets)))
	s.met.epoch.Set(float64(s.live))
	s.mu.Unlock()
	s.met.restores.Inc()
	return cut.watermark, true, nil
}

// SkippedCuts returns the error of each cut the last Restore passed
// over, newest first: every cut in the directory on a cold start.
func (s *Store) SkippedCuts() []error {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	return s.skipped
}
