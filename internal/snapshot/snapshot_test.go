package snapshot

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
)

// buildStream writes a two-frame snapshot exercising every primitive.
func buildStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e := w.Begin("header")
	e.Uvarint(90)
	e.Varint(-5 * 3600)
	e.Bool(true)
	e.String("study")
	w.End()
	w.RawFrame("stage:presence", []byte{1, 2, 3, 4})
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	data := buildStream(t)
	if data[len(magic)] != Version {
		t.Fatalf("stream written at version %d, want %d", data[len(magic)], Version)
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	name, d, err := r.Next()
	if err != nil || name != "header" {
		t.Fatalf("frame 1: %q, %v", name, err)
	}
	if got := d.Uvarint(); got != 90 {
		t.Fatalf("uvarint %d", got)
	}
	if got := d.Varint(); got != -5*3600 {
		t.Fatalf("varint %d", got)
	}
	if !d.Bool() {
		t.Fatal("bool")
	}
	if got := d.String(); got != "study" {
		t.Fatalf("string %q", got)
	}
	if d.Err() != nil {
		t.Fatalf("decode err: %v", d.Err())
	}

	name, d, err = r.Next()
	if err != nil || name != "stage:presence" {
		t.Fatalf("frame 2: %q, %v", name, err)
	}
	var payload [4]byte
	if d.Uvarint() != 1 {
		t.Fatalf("raw payload: %v", payload)
	}

	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end marker, got %v", err)
	}
	// Next after EOF stays EOF.
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("second Next: %v", err)
	}
}

// TestTruncationsReturnErrBadSnapshot: every strict prefix of a valid
// stream must produce ErrBadSnapshot (from NewReader or Next), never a
// panic and never a clean EOF.
func TestTruncationsReturnErrBadSnapshot(t *testing.T) {
	data := buildStream(t)
	for cut := 0; cut < len(data); cut++ {
		err := drain(data[:cut])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed cleanly", cut, len(data))
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("prefix %d: error %v does not wrap ErrBadSnapshot", cut, err)
		}
	}
	if err := drain(data); err != nil {
		t.Fatalf("full stream: %v", err)
	}
}

// TestBitFlipsReturnErrBadSnapshot: flipping any single bit of a valid
// stream must surface as an error (CRC or framing), never a panic.
// Flips inside frame payloads must specifically be caught by the CRC.
func TestBitFlipsReturnErrBadSnapshot(t *testing.T) {
	data := buildStream(t)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if err := drain(mut); err == nil {
				t.Fatalf("flip byte %d bit %d parsed cleanly", i, bit)
			} else if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("flip byte %d bit %d: %v does not wrap ErrBadSnapshot", i, bit, err)
			}
		}
	}
}

// drain parses a stream to completion, decoding nothing (framing and
// CRC only), and returns the first error. A clean stream returns nil.
func drain(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		_, _, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestDecoderLimits(t *testing.T) {
	// A claimed string longer than the limit fails instead of
	// allocating.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Uvarint(1 << 40)
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	if s := d.String(); d.Err() == nil {
		t.Fatalf("oversized string length accepted: %q", s)
	}
	if !errors.Is(d.Err(), ErrBadSnapshot) {
		t.Fatalf("error %v does not wrap ErrBadSnapshot", d.Err())
	}

	// Len enforces the caller's bound.
	buf.Reset()
	NewEncoder(&buf).Uvarint(5000)
	d = NewDecoder(bytes.NewReader(buf.Bytes()))
	if n := d.Len(100); n != -1 || d.Err() == nil {
		t.Fatalf("Len(100) over 5000 = %d, err %v", n, d.Err())
	}

	// Bad boolean byte.
	d = NewDecoder(bytes.NewReader([]byte{7}))
	if d.Bool(); !errors.Is(d.Err(), ErrBadSnapshot) {
		t.Fatalf("bad bool byte: %v", d.Err())
	}
}

// TestDecoderFailuresAreBadSnapshot: everything a payload can do wrong
// to a primitive read is ErrBadSnapshot, from every way of building a
// decoder. A varint overflowing 64 bits used to come back as
// encoding/binary's own error, which wraps nothing.
func TestDecoderFailuresAreBadSnapshot(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, 11)
	reads := map[string]func(*Decoder){
		"Uvarint": func(d *Decoder) { d.Uvarint() },
		"Varint":  func(d *Decoder) { d.Varint() },
		"Len":     func(d *Decoder) { d.Len(-1) },
		"String":  func(d *Decoder) { _ = d.String() },
	}
	for name, read := range reads {
		for how, d := range map[string]*Decoder{
			"bytes":  NewDecoderBytes(overflow),
			"buffer": NewDecoder(bytes.NewBuffer(overflow)),
			"reader": NewDecoder(bytes.NewReader(overflow)),
			"stream": NewDecoder(iotest.OneByteReader(bytes.NewReader(overflow))),
		} {
			if read(d); !errors.Is(d.Err(), ErrBadSnapshot) {
				t.Errorf("%s of an overflowing varint (%s): error %v does not wrap ErrBadSnapshot", name, how, d.Err())
			}
		}
	}
	for name, tc := range map[string]struct {
		in   []byte
		read func(*Decoder)
	}{
		"short string": {[]byte{5, 'a', 'b'}, func(d *Decoder) { _ = d.String() }},
		"short varint": {[]byte{0x80, 0x80}, func(d *Decoder) { d.Varint() }},
		"empty bool":   {nil, func(d *Decoder) { d.Bool() }},
	} {
		d := NewDecoderBytes(tc.in)
		if tc.read(d); !errors.Is(d.Err(), ErrBadSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrBadSnapshot", name, d.Err())
		}
	}
	// A source that fails to read is the caller's I/O error, not a
	// malformed snapshot.
	ioErr := errors.New("disk on fire")
	d := NewDecoder(iotest.ErrReader(ioErr))
	if d.Uvarint(); !errors.Is(d.Err(), ioErr) || errors.Is(d.Err(), ErrBadSnapshot) {
		t.Errorf("failing source: error %v, want the source's own", d.Err())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder(bytes.NewReader(nil))
	_ = d.Uvarint()
	first := d.Err()
	if first == nil {
		t.Fatal("no error on empty input")
	}
	_ = d.Varint()
	_ = d.Bool()
	if d.Err() != first {
		t.Fatal("error not sticky")
	}
}

// TestReaderSources: the same stream read from memory without a copy,
// from memory with one, from a file and from a pipe yields the same
// frames; payloads are exactly sized everywhere, and only the
// *bytes.Buffer source shares its bytes with them.
func TestReaderSources(t *testing.T) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	big := bytes.Repeat([]byte{0xC5}, 3*unvouchedChunk+17) // past the pipe path's one-shot allocation
	w.RawFrame("stage:big", big)
	w.RawFrame("stage:small", []byte{1, 2, 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := stream.Bytes()
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, src := range map[string]io.Reader{
		"buffer": bytes.NewBuffer(data),
		"reader": bytes.NewReader(data),
		"file":   file,
		"pipe":   iotest.HalfReader(bytes.NewReader(data)),
	} {
		r, err := NewReader(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range []struct {
			name    string
			payload []byte
		}{{"stage:big", big}, {"stage:small", []byte{1, 2, 3}}} {
			got, payload, err := r.NextFrame()
			if err != nil || got != want.name || !bytes.Equal(payload, want.payload) {
				t.Fatalf("%s: frame %q (%d bytes), %v; want %q (%d bytes)", name, got, len(payload), err, want.name, len(want.payload))
			}
			if cap(payload) != len(payload) {
				t.Errorf("%s: frame %q payload has capacity %d for %d bytes", name, got, cap(payload), len(payload))
			}
			shares := &payload[0] == &data[bytes.Index(data, want.payload)]
			if shares != (name == "buffer") {
				t.Errorf("%s: frame %q payload shares the source's bytes: %v", name, got, shares)
			}
		}
		if _, _, err := r.NextFrame(); err != io.EOF {
			t.Fatalf("%s: want io.EOF at the end marker, got %v", name, err)
		}
	}
}

// TestForgedLengthDoesNotAllocate: a frame header claiming the largest
// payload the format allows, with a few bytes behind it, is refused
// from every kind of source without that payload ever being allocated.
func TestForgedLengthDoesNotAllocate(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(magic[:])
	e := NewEncoder(&stream)
	e.Uvarint(Version)
	e.String("stage:forged")
	e.Uvarint(maxFrameLen)
	stream.Write([]byte{0, 0, 0, 0, 'x', 'y'})
	data := stream.Bytes()
	path := filepath.Join(t.TempDir(), "forged.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() io.Reader{
		"buffer": func() io.Reader { return bytes.NewBuffer(data) },
		"reader": func() io.Reader { return bytes.NewReader(data) },
		"pipe":   func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
	for name, open := range sources {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewReader(open())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, _, err = r.NextFrame()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: forged frame: error %v does not wrap ErrBadSnapshot", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing a forged %d-byte frame allocated %d bytes", name, maxFrameLen, grew)
		}
	}
}

// TestFramesMatchRawFrame: a payload written in place behind its header
// comes out as the bytes RawFrame writes for it, at every width its
// length prefix can take — the gap Begin leaves for the longest one is
// closed whatever is left of it — alone, behind other frames, written
// whole or through the frame's encoder in pieces; and the buffer joins
// a stream through Append as if the frames had been written there.
func TestFramesMatchRawFrame(t *testing.T) {
	var all Frames
	var want bytes.Buffer
	ww := NewWriter(&want)
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		name := "stage:" + string(rune('a'+n%26))
		var one bytes.Buffer
		w := NewWriter(&one)
		w.RawFrame(name, payload)
		if w.err != nil {
			t.Fatal(w.err)
		}
		frame := one.Bytes()[len(magic)+1:] // past the magic and the version

		var f Frames
		f.Begin(name)
		f.Write(payload)
		f.End()
		if f.Err() != nil || !bytes.Equal(f.buf, frame) {
			t.Fatalf("payload of %d bytes: in-place frame (%d bytes, err %v) differs from RawFrame's (%d bytes)", n, f.Len(), f.Err(), len(frame))
		}

		// Behind the frames before it, a byte at a time through the encoder.
		before := all.Len()
		e := all.Begin(name)
		for _, b := range payload {
			e.write([]byte{b})
		}
		all.End()
		if !bytes.Equal(all.buf[before:], frame) {
			t.Fatalf("payload of %d bytes: frame appended behind %d bytes differs from RawFrame's", n, before)
		}
		ww.RawFrame(name, payload)
	}
	var got bytes.Buffer
	gw := NewWriter(&got)
	gw.Append(&all)
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ww.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a stream of appended frames differs from the stream RawFrame wrote")
	}

	// Reset empties the buffer for the next frame and keeps its memory.
	all.Reset()
	if all.Len() != 0 || cap(all.buf) == 0 {
		t.Fatalf("after Reset: %d bytes buffered, capacity %d", all.Len(), cap(all.buf))
	}
}

// TestFrameLengthLimit: both ways of writing a frame refuse a payload
// over the limit a reader accepts through one check, and a Frames
// buffer that has refused one poisons the stream it is appended to. The
// limit is a gibibyte, so the payload is not built: the check is asked.
func TestFrameLengthLimit(t *testing.T) {
	if err := checkFrameLen("stage:x", maxFrameLen); err != nil {
		t.Fatalf("payload at the limit refused: %v", err)
	}
	over := checkFrameLen("stage:x", maxFrameLen+1)
	if over == nil {
		t.Fatal("payload over the limit accepted")
	}
	f := Frames{err: over}
	var out bytes.Buffer
	w := NewWriter(&out)
	headerLen := out.Len()
	w.Append(&f)
	if err := w.Close(); !errors.Is(err, over) {
		t.Fatalf("Close after appending a refused buffer: %v", err)
	}
	if out.Len() != headerLen {
		t.Fatal("a refused buffer still reached the stream")
	}
}
