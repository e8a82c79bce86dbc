// Package snapshot is the binary codec under the pipeline's durable
// checkpoints: a versioned, length-prefixed frame container with
// per-frame CRC-32 integrity, plus sticky-error primitive encoders
// for the values the analysis accumulators persist.
//
// A snapshot file is
//
//	magic "CCARSNAP" | uvarint version | frame* | end marker
//
// where each frame is
//
//	uvarint len(name) (> 0) | name | uvarint len(payload) | crc32(payload) | payload
//
// and the end marker is a single zero byte (a zero-length name). The
// container knows nothing about frame contents; the analysis layer
// names frames ("header", "worker", "stage:presence", …) and encodes
// payloads with Encoder/Decoder. Length prefixes make unknown frames
// skippable; the CRC makes bit flips a detected error instead of a
// silently corrupt report.
//
// Every malformed-input condition — bad magic, unsupported version,
// truncated stream, CRC mismatch, over-limit lengths, a varint that
// overflows 64 bits, a boolean that is neither 0 nor 1, or a primitive
// read past the end of a frame — is reported as an error wrapping
// ErrBadSnapshot and never as a panic.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// ErrBadSnapshot marks a snapshot stream that is malformed or corrupt:
// truncated, bit-flipped, wrong magic, or an unsupported version.
var ErrBadSnapshot = errors.New("snapshot: malformed or corrupt snapshot")

// Version is the current snapshot schema version. Readers refuse
// other versions: partial-state layouts are not forward compatible.
// Version 3 holds every count a stage keeps — Figure 9's seconds,
// §4.5's handovers per session and by kind, the usage stage's hours of
// the week — as sparse integer (value, count) pairs, and no floats.
// Version 4 writes the usage stage's open sessions and heads as (car,
// start, length) intervals, not span lists. Version 5 keeps each per-car
// fact once: the presence frame carries every car's day bitmap and,
// after its cells, the busy/total split of the cars with binned time,
// and the days, segments and busy stages, derived from it, have no
// frame; every other frame is version 4's. An older file is refused,
// naming the remedy: re-run from the input.
const Version = 5

var magic = [8]byte{'C', 'C', 'A', 'R', 'S', 'N', 'A', 'P'}

const (
	// maxNameLen bounds a frame name; names are short stage labels.
	maxNameLen = 255
	// maxFrameLen bounds one frame's payload (1 GiB). Real stage
	// payloads are far smaller; the bound keeps a forged length from
	// turning into an allocation bomb.
	maxFrameLen = 1 << 30
)

// badf returns a formatted error wrapping ErrBadSnapshot.
func badf(format string, args ...any) error {
	return fmt.Errorf("snapshot: "+format+": %w", append(args, ErrBadSnapshot)...)
}

// ---------------------------------------------------------------------------
// Primitive encoder

// Encoder appends primitive values to an io.Writer with a sticky
// error: the first write failure latches and subsequent calls are
// no-ops, so encoding code reads straight-line and checks Err once.
type Encoder struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

// NewEncoder returns an encoder over w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Err returns the first write error, or nil.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) write(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(x uint64) {
	n := binary.PutUvarint(e.buf[:], x)
	e.write(e.buf[:n])
}

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(x int64) {
	n := binary.PutVarint(e.buf[:], x)
	e.write(e.buf[:n])
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.write([]byte{1})
	} else {
		e.write([]byte{0})
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.write([]byte(s))
}

// ---------------------------------------------------------------------------
// Primitive decoder

// Decoder reads primitive values out of a byte slice it walks in
// place, with a sticky error: the first failure latches, subsequent
// reads return zero values, and decoding code checks Err once at the
// end. A read past the end of the input, a varint that overflows 64
// bits and a boolean byte other than 0 or 1 are all ErrBadSnapshot,
// never a panic. Nothing a Decoder returns aliases its input (String
// copies), so the input may be a sub-slice of a longer-lived buffer.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a decoder over everything r has left. A source
// already in memory is decoded there (see inMemory: a *bytes.Buffer,
// how a frame payload travels behind an io.Reader, without a copy);
// any other reader is drained first, and a failure to read it is the
// decoder's error.
func NewDecoder(r io.Reader) *Decoder {
	if b, ok := inMemory(r); ok {
		return &Decoder{b: b}
	}
	b, err := io.ReadAll(r)
	return &Decoder{b: b, err: err}
}

// NewDecoderBytes returns a decoder over b, which it reads in place.
func NewDecoderBytes(b []byte) *Decoder { return &Decoder{b: b} }

// inMemory consumes and returns what is left of a source that is
// already in memory: a *bytes.Buffer's unread bytes themselves (the
// buffer must not be written to while they are in use), or one
// exact-size copy of a *bytes.Reader's, which does not give its slice
// away. ok is false for a source that has to be streamed.
func inMemory(src io.Reader) (b []byte, ok bool) {
	switch s := src.(type) {
	case *bytes.Buffer:
		return s.Next(s.Len()), true
	case *bytes.Reader:
		b = make([]byte, s.Len())
		n, _ := s.Read(b)
		return b[:n], true
	}
	return nil, false
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records a validation failure (wrapping ErrBadSnapshot) unless
// an error is already latched.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = badf(format, args...)
	}
}

// next returns the next n bytes and steps past them, or nil after
// latching a failure when fewer are left.
func (d *Decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.off {
		d.err = badf("unexpected end of snapshot data")
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// skipVarint steps past the varint binary.Uvarint or binary.Varint
// just parsed at the cursor, latching a failure when n, their second
// result, says they found none.
func (d *Decoder) skipVarint(n int) bool {
	switch {
	case n > 0:
		d.off += n
		return true
	case n == 0:
		d.err = badf("unexpected end of snapshot data")
	default:
		d.err = badf("varint overflows 64 bits")
	}
	return false
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if !d.skipVarint(n) {
		return 0
	}
	return x
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	if !d.skipVarint(n) {
		return 0
	}
	return x
}

// Bool reads a one-byte boolean; any value other than 0 or 1 is a
// decode failure.
func (d *Decoder) Bool() bool {
	b := d.next(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.Failf("bad boolean byte %d", b[0])
		return false
	}
	return b[0] == 1
}

// String reads a length-prefixed string of at most maxNameLen bytes.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxNameLen {
		d.Failf("string length %d exceeds limit %d", n, maxNameLen)
		return ""
	}
	return string(d.next(int(n)))
}

// Len reads a collection length and validates it against max,
// returning -1 on failure. Decoding loops use it so that a corrupt
// count can never drive an allocation or iteration bomb.
func (d *Decoder) Len(max int) int {
	n := d.Uvarint()
	if d.err != nil {
		return -1
	}
	if max >= 0 && n > uint64(max) {
		d.Failf("length %d exceeds limit %d", n, max)
		return -1
	}
	if n > math.MaxInt32 {
		d.Failf("length %d not representable", n)
		return -1
	}
	return int(n)
}

// ---------------------------------------------------------------------------
// Frame container writer

// Writer emits a snapshot frame stream. A frame opened with Begin
// buffers in memory until End so it carries an exact length prefix and
// CRC. Like the encoders, Writer latches the first error; Close reports
// it.
type Writer struct {
	dst    io.Writer
	frame  Frames // the frame Begin opened
	closed bool
	err    error
}

// NewWriter starts a snapshot stream on dst, writing the magic and
// version immediately.
func NewWriter(dst io.Writer) *Writer {
	w := &Writer{dst: dst}
	if _, err := dst.Write(magic[:]); err != nil {
		w.err = err
		return w
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], Version)
	if _, err := dst.Write(buf[:n]); err != nil {
		w.err = err
	}
	return w
}

// Begin opens a named frame and returns the encoder for its payload.
// Frames do not nest; Begin before End of the previous frame panics
// (a programming bug, not a data condition).
func (w *Writer) Begin(name string) *Encoder { return w.frame.Begin(name) }

// End closes the open frame and writes it to the stream.
func (w *Writer) End() {
	w.frame.End()
	w.Append(&w.frame)
	w.frame.Reset()
}

// RawFrame writes a frame with an externally encoded payload — the
// path the analysis layer uses for accumulator SnapshotTo output.
func (w *Writer) RawFrame(name string, payload []byte) {
	if w.frame.name != "" {
		panic(fmt.Sprintf("snapshot: RawFrame(%q) inside open frame %q", name, w.frame.name))
	}
	if name == "" || len(name) > maxNameLen {
		panic(fmt.Sprintf("snapshot: bad frame name %q", name))
	}
	w.writeFrame(name, payload)
}

func (w *Writer) writeFrame(name string, payload []byte) {
	if w.err != nil {
		return
	}
	if w.err = checkFrameLen(name, len(payload)); w.err != nil {
		return
	}
	e := NewEncoder(w.dst)
	e.Uvarint(uint64(len(name)))
	e.write([]byte(name))
	e.Uvarint(uint64(len(payload)))
	// The CRC covers the name as well as the payload so that a bit
	// flip in either is detected.
	sum := crc32.ChecksumIEEE([]byte(name))
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], sum)
	e.write(crc[:])
	e.write(payload)
	w.err = e.Err()
}

// checkFrameLen refuses a payload longer than a reader would accept.
func checkFrameLen(name string, n int) error {
	if n > maxFrameLen {
		return fmt.Errorf("snapshot: frame %q payload %d bytes exceeds limit", name, n)
	}
	return nil
}

// Append writes frames that were encoded elsewhere, a Frames buffer's
// contents, to the stream as they are; the buffer's error becomes the
// writer's.
func (w *Writer) Append(f *Frames) {
	if w.frame.name != "" {
		panic(fmt.Sprintf("snapshot: Append inside open frame %q", w.frame.name))
	}
	if w.err == nil {
		w.err = f.Err()
	}
	if w.err == nil {
		_, w.err = w.dst.Write(f.buf)
	}
}

// Close writes the end marker and returns the first error seen. The
// writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("snapshot: writer already closed")
	}
	if w.frame.name != "" {
		panic(fmt.Sprintf("snapshot: Close inside open frame %q", w.frame.name))
	}
	w.closed = true
	if w.err == nil {
		_, w.err = w.dst.Write([]byte{0})
	}
	return w.err
}

// ---------------------------------------------------------------------------
// Frames encoded in memory

// Frames is a buffer of complete frames, byte for byte what a Writer
// puts on its stream for them, built without a second buffer: Begin
// lays the frame header down with room for the longest length prefix a
// payload may have, the payload is written in place behind it (Frames
// is the io.Writer, or use the Encoder Begin returns), and End, once
// length and checksum are known, closes the gap with one copy. It is
// how a set of accumulators is encoded away from the stream it will
// join (Writer.Append), by whoever owns it. The zero value is ready to
// use; like Writer it latches its first error.
type Frames struct {
	buf     []byte
	enc     Encoder
	name    string
	header  int // where the open frame's length prefix starts
	payload int // where its payload starts
	err     error
}

// maxLenPrefix is the width of the longest payload length prefix.
const maxLenPrefix = (31 + 6) / 7 // uvarint(maxFrameLen), which has 31 bits

// Grow makes room for n more bytes.
func (f *Frames) Grow(n int) { f.buf = slices.Grow(f.buf, n) }

// Len returns the number of bytes buffered.
func (f *Frames) Len() int { return len(f.buf) }

// Reset empties the buffer, keeping its memory and its error.
func (f *Frames) Reset() { f.buf = f.buf[:0] }

// Err returns the first error seen, or nil.
func (f *Frames) Err() error { return f.err }

// Write appends to the open frame's payload. A full buffer doubles, as
// a bytes.Buffer does: append's own growth, a quarter at a time once a
// slice is large, would copy a payload that outgrew Grow's estimate
// several times over.
func (f *Frames) Write(p []byte) (int, error) {
	n := len(f.buf)
	if len(p) > cap(f.buf)-n {
		f.Grow(max(len(p), cap(f.buf)))
	}
	f.buf = f.buf[:n+len(p)]
	copy(f.buf[n:], p)
	return len(p), nil
}

// Begin opens a named frame behind the ones already buffered and
// returns an encoder for its payload. Frames do not nest.
func (f *Frames) Begin(name string) *Encoder {
	if f.name != "" {
		panic(fmt.Sprintf("snapshot: Begin(%q) inside open frame %q", name, f.name))
	}
	if name == "" || len(name) > maxNameLen {
		panic(fmt.Sprintf("snapshot: bad frame name %q", name))
	}
	f.name = name
	f.buf = binary.AppendUvarint(f.buf, uint64(len(name)))
	f.buf = append(f.buf, name...)
	f.header = len(f.buf)
	f.buf = append(f.buf, make([]byte, maxLenPrefix+crc32.Size)...)
	f.payload = len(f.buf)
	f.enc = Encoder{w: f}
	return &f.enc
}

// End closes the open frame: the length prefix at its real width, the
// checksum, and the payload moved up against them.
func (f *Frames) End() {
	if f.name == "" {
		panic("snapshot: End without Begin")
	}
	name := f.name
	f.name = ""
	payload := f.buf[f.payload:]
	if err := checkFrameLen(name, len(payload)); err != nil {
		if f.err == nil {
			f.err = err
		}
		return
	}
	sum := crc32.Update(crc32.ChecksumIEEE([]byte(name)), crc32.IEEETable, payload)
	head := binary.AppendUvarint(f.buf[:f.header], uint64(len(payload)))
	head = binary.LittleEndian.AppendUint32(head, sum)
	f.buf = head[:len(head)+copy(f.buf[len(head):], payload)]
}

// ---------------------------------------------------------------------------
// Frame container reader

// Reader consumes a snapshot frame stream written by Writer.
//
// A source that is already in memory (see inMemory) is walked in place
// and its frame payloads are sub-slices of it. Any other source is
// streamed through a buffer and each payload is one allocation of its
// exact size. Either way a forged length never allocates ahead of bytes
// that are provably there: in memory the bytes are counted, a regular
// file vouches for its size less what was read, and a source nothing
// vouches for (a pipe) has a long payload grown as its bytes arrive.
type Reader struct {
	mem  []byte        // what is left of an in-memory source
	br   *bufio.Reader // a streamed source; nil for an in-memory one
	left int64         // bytes a streamed source still vouches for, -1 for none
	done bool
}

// unvouchedChunk is the most a streamed source of unknown size gets
// allocated on a length prefix's word alone.
const unvouchedChunk = 1 << 16

// NewReader validates the magic and version of the stream and returns
// a frame reader. A bad header is reported as ErrBadSnapshot.
func NewReader(src io.Reader) (*Reader, error) {
	r := &Reader{left: -1}
	if b, ok := inMemory(src); ok {
		r.mem = b
	} else {
		r.br = bufio.NewReaderSize(src, 1<<16)
		if f, ok := src.(*os.File); ok {
			r.left = fileRemaining(f)
		}
	}
	m, ok := r.read(len(magic))
	if !ok {
		return nil, badf("header truncated")
	}
	if !bytes.Equal(m, magic[:]) {
		return nil, badf("bad magic %q", m)
	}
	v, ok := r.uvarint()
	if !ok {
		return nil, badf("version truncated")
	}
	if v != Version {
		return nil, badf("unsupported snapshot version %d (want %d; re-run from the input to rebuild it)", v, Version)
	}
	return r, nil
}

// fileRemaining returns how many bytes a regular file holds past its
// read offset, or -1 when it cannot say.
func fileRemaining(f *os.File) int64 {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return -1
	}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil || pos > fi.Size() {
		return -1
	}
	return fi.Size() - pos
}

// uvarint reads one unsigned varint; ok is false when the source ends
// inside it or it overflows 64 bits.
func (r *Reader) uvarint() (x uint64, ok bool) {
	b := r.mem
	if r.br != nil {
		// A short peek is a source about to end; Uvarint says whether
		// the varint still fits.
		b, _ = r.br.Peek(binary.MaxVarintLen64)
	}
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, false
	}
	if r.br == nil {
		r.mem = r.mem[n:]
		return x, true
	}
	r.br.Discard(n)
	if r.left >= 0 {
		r.left -= int64(n)
	}
	return x, true
}

// read returns the next n bytes, with no spare capacity; ok is false
// when the source ends first. They are cut from an in-memory source
// and one allocation of exactly n bytes from a streamed one that
// vouches for them.
func (r *Reader) read(n int) (b []byte, ok bool) {
	if r.br == nil {
		if n > len(r.mem) {
			return nil, false
		}
		b, r.mem = r.mem[:n:n], r.mem[n:]
		return b, true
	}
	switch {
	case r.left >= 0:
		if int64(n) > r.left {
			return nil, false
		}
		r.left -= int64(n)
	case n > unvouchedChunk:
		// CopyN grows the buffer as bytes actually arrive.
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, r.br, int64(n)); err != nil {
			return nil, false
		}
		return buf.Bytes()[:n:n], true
	}
	b = make([]byte, n)
	if _, err := io.ReadFull(r.br, b); err != nil {
		return nil, false
	}
	return b, true
}

// Next reads the next frame, validates its CRC, and returns its name
// and a decoder over the payload. It returns io.EOF at the end marker;
// a stream that stops without one is ErrBadSnapshot.
func (r *Reader) Next() (string, *Decoder, error) {
	name, payload, err := r.NextFrame()
	if err != nil {
		return "", nil, err
	}
	return name, NewDecoderBytes(payload), nil
}

// NextFrame is Next returning the raw validated payload instead of a
// decoder — the path for frames whose payload is itself a nested
// encoding (accumulator snapshots). The payload is exactly sized and
// the caller's to keep; read from an in-memory source it shares that
// source's bytes.
func (r *Reader) NextFrame() (string, []byte, error) {
	if r.done {
		return "", nil, io.EOF
	}
	nameLen, ok := r.uvarint()
	if !ok {
		return "", nil, badf("frame header truncated")
	}
	if nameLen == 0 {
		r.done = true
		return "", nil, io.EOF
	}
	if nameLen > maxNameLen {
		return "", nil, badf("frame name length %d exceeds limit", nameLen)
	}
	name, ok := r.read(int(nameLen))
	if !ok {
		return "", nil, badf("frame name truncated")
	}
	payLen, ok := r.uvarint()
	if !ok {
		return "", nil, badf("frame %q length truncated", name)
	}
	if payLen > maxFrameLen {
		return "", nil, badf("frame %q payload %d bytes exceeds limit", name, payLen)
	}
	crc, ok := r.read(4)
	if !ok {
		return "", nil, badf("frame %q checksum truncated", name)
	}
	payload, ok := r.read(int(payLen))
	if !ok {
		return "", nil, badf("frame %q payload truncated", name)
	}
	sum := crc32.ChecksumIEEE(name)
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if sum != binary.LittleEndian.Uint32(crc) {
		return "", nil, badf("frame %q checksum mismatch", name)
	}
	return string(name), payload, nil
}
