package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// refDecoder is the Decoder as it stood before the in-place decoder
// replaced it, kept verbatim (type and constructor renamed, and F64
// gone with the format's floats) as the arbiter
// FuzzDecoderMatchesReference holds the new one to: it pulls varints
// through an io.ByteReader one interface call per byte and strings
// through io.ReadFull.
type refDecoder struct {
	r   io.ByteReader
	rd  io.Reader
	err error
}

func newRefDecoder(r io.Reader) *refDecoder {
	if br, ok := r.(interface {
		io.ByteReader
		io.Reader
	}); ok {
		return &refDecoder{r: br, rd: br}
	}
	br := bufio.NewReader(r)
	return &refDecoder{r: br, rd: br}
}

// Err returns the first decode error, or nil.
func (d *refDecoder) Err() error { return d.err }

// Failf records a validation failure (wrapping ErrBadSnapshot) unless
// an error is already latched.
func (d *refDecoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = badf(format, args...)
	}
}

func (d *refDecoder) fail(err error) {
	if d.err != nil {
		return
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		d.err = badf("unexpected end of snapshot data")
		return
	}
	d.err = err
}

// Uvarint reads an unsigned varint.
func (d *refDecoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(err)
		return 0
	}
	return x
}

// Varint reads a zig-zag signed varint.
func (d *refDecoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadVarint(d.r)
	if err != nil {
		d.fail(err)
		return 0
	}
	return x
}

// Bool reads a one-byte boolean; any value other than 0 or 1 is a
// decode failure.
func (d *refDecoder) Bool() bool {
	if d.err != nil {
		return false
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(err)
		return false
	}
	if b > 1 {
		d.Failf("bad boolean byte %d", b)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string of at most maxNameLen bytes.
func (d *refDecoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxNameLen {
		d.Failf("string length %d exceeds limit %d", n, maxNameLen)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.rd, b); err != nil {
		d.fail(err)
		return ""
	}
	return string(b)
}

// Len reads a collection length and validates it against max,
// returning -1 on failure. Decoding loops use it so that a corrupt
// count can never drive an allocation or iteration bomb.
func (d *refDecoder) Len(max int) int {
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

// RefDecoder and NewRefDecoder show the arbiter to the external test
// package, which can import the analysis layer for real payloads.
type RefDecoder = refDecoder

var NewRefDecoder = newRefDecoder
