package snapshot_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
	"cellcars/internal/synth"
)

// stagePayloads returns the stage frames of the benchmark's main fleet
// (1 600 generated cars over 14 days, about 320 k records) fully
// ingested: every primitive in the proportions real state has them.
func stagePayloads(tb testing.TB) map[string][]byte {
	cfg := synth.DefaultConfig(1600)
	cfg.Period = simtime.NewPeriod(time.Date(2017, 3, 6, 0, 0, 0, 0, time.UTC), 14)
	records, _, err := synth.NewWorld(cfg).GenerateAll()
	if err != nil {
		tb.Fatal(err)
	}
	s := analysis.NewStreamingWithOptions(analysis.Context{Period: cfg.Period}, analysis.RunOptions{})
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		tb.Fatal(err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string][]byte)
	for {
		name, payload, err := r.NextFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			tb.Fatal(err)
		}
		if strings.HasPrefix(name, "stage:") {
			out[name] = payload
		}
	}
}

// FuzzDecoderMatchesReference drives the in-place Decoder and the
// reader-based one it replaced (decoder_oracle_test.go) over the same
// payload bytes with the same fuzz-chosen sequence of reads. They must
// return the same values, fail at the same read, and agree on
// error-or-not after every read; the in-place decoder's error always
// wraps ErrBadSnapshot.
//
// One difference is allowed, and it is the bug this decoder fixes: a
// varint that overflows 64 bits fails both at the same read, but the
// reference reports encoding/binary's bare error where the in-place
// decoder reports ErrBadSnapshot. The error classes are therefore not
// compared.
func FuzzDecoderMatchesReference(f *testing.F) {
	// Scripts that walk real payloads the way their stages do: mostly
	// varints, a tally's length then its (uvarint, uvarint) pairs, a
	// carrier's time and car list, sessions with their spans and a flag.
	scripts := [][]byte{
		bytes.Repeat([]byte{0, 0, 1, 1}, 64),
		append([]byte{4}, bytes.Repeat([]byte{0, 0}, 150)...),
		bytes.Repeat([]byte{4, 0, 1, 34, 0, 0, 0}, 48),
		bytes.Repeat([]byte{4, 0, 34, 0, 1, 1, 2, 11}, 32),
	}
	for _, payload := range stagePayloads(f) {
		if len(payload) > 1<<16 {
			// The front of a long payload has its shape; the whole of
			// it only slows the mutator down.
			payload = payload[:1<<16]
		}
		for _, script := range scripts {
			f.Add(payload, script)
		}
	}
	f.Add(bytes.Repeat([]byte{0xff}, 11), []byte{0})
	f.Add(bytes.Repeat([]byte{0xff}, 10), []byte{1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 7}, []byte{0, 2})
	f.Add([]byte{3, 'a', 'b', 'c', 2, 1, 0}, []byte{3, 4, 2, 2})
	f.Add([]byte{}, []byte{2})

	f.Fuzz(func(t *testing.T, payload, script []byte) {
		ref := snapshot.NewRefDecoder(bytes.NewReader(payload))
		var d *snapshot.Decoder
		how := byte(0)
		if len(script) > 0 {
			how = script[0] >> 6
		}
		switch how {
		case 0:
			d = snapshot.NewDecoderBytes(payload)
		case 1:
			d = snapshot.NewDecoder(bytes.NewBuffer(payload))
		case 2:
			d = snapshot.NewDecoder(bytes.NewReader(payload))
		default:
			d = snapshot.NewDecoder(iotest.OneByteReader(bytes.NewReader(payload)))
		}
		for step, op := range script {
			var got, want any
			switch op % 5 {
			case 0:
				got, want = d.Uvarint(), ref.Uvarint()
			case 1:
				got, want = d.Varint(), ref.Varint()
			case 2:
				got, want = d.Bool(), ref.Bool()
			case 3:
				got, want = d.String(), ref.String()
			case 4:
				// Limits from none (-1) through tight to generous.
				max := []int{-1, 0, 1, 100, 1 << 20, 1 << 40}[int(op>>3)%6]
				got, want = d.Len(max), ref.Len(max)
			}
			if got != want {
				t.Fatalf("read %d (op %d): in-place decoder returned %v, reference %v", step, op%5, got, want)
			}
			if (d.Err() == nil) != (ref.Err() == nil) {
				t.Fatalf("read %d (op %d): in-place decoder error %v, reference error %v", step, op%5, d.Err(), ref.Err())
			}
			if d.Err() != nil {
				if !errors.Is(d.Err(), snapshot.ErrBadSnapshot) {
					t.Fatalf("read %d (op %d): error %v does not wrap ErrBadSnapshot", step, op%5, d.Err())
				}
				return
			}
		}
	})
}
