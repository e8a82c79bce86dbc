package snapshot

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReader: arbitrary input must either parse as a frame stream or
// return an error wrapping ErrBadSnapshot — never panic, never report
// a frame whose CRC did not validate — and whatever the primitive
// decoders make of a frame's payload is no error or one wrapping
// ErrBadSnapshot too.
func FuzzReader(f *testing.F) {
	// Seed with a valid stream and a few near-valid mutations.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e := w.Begin("header")
	e.Uvarint(14)
	e.Varint(-18000)
	e.Bool(true)
	e.String("seed")
	w.End()
	w.RawFrame("stage:days", bytes.Repeat([]byte{0xAB}, 64))
	_ = w.Close()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	mut := append([]byte(nil), valid...)
	mut[9] ^= 0x10
	f.Add(mut)
	f.Add([]byte("CCARSNAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("NewReader error %v does not wrap ErrBadSnapshot", err)
			}
			return
		}
		for {
			_, d, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("Next error %v does not wrap ErrBadSnapshot", err)
				}
				return
			}
			// Exercise the primitive decoders on the frame; they must
			// not panic regardless of payload contents.
			_ = d.Uvarint()
			_ = d.Varint()
			_ = d.String()
			_ = d.Len(1 << 20)
			_ = d.Bool()
			if err := d.Err(); err != nil && !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decoder error %v does not wrap ErrBadSnapshot", err)
			}
		}
	})
}
