package cdr

import (
	"io"
	"math/rand/v2"
	"time"
)

// This file is the chaos harness: deterministic fault injectors for
// both the record layer (Reader) and the byte layer (io.Reader). They
// exist so tests can prove that every downstream consumer — cleaning,
// streaming analysis, external sort — degrades gracefully on the
// corruption patterns real carrier feeds exhibit, instead of only
// ever seeing pristine synthetic data.

// ChaosConfig sets per-record fault probabilities. All injections are
// driven by a PCG seeded from Seed, so a given (stream, config) pair
// always produces the same faults.
type ChaosConfig struct {
	// Seed drives the fault RNG.
	Seed uint64
	// CorruptProb mutates a record so it fails Validate (invalid
	// carrier, zero start, or negative duration).
	CorruptProb float64
	// DuplicateProb re-emits the delivered record once more.
	DuplicateProb float64
	// ReorderProb swaps the record with its successor.
	ReorderProb float64
}

// ChaosStats counts the faults actually injected.
type ChaosStats struct {
	Corrupted, Duplicated, Reordered int64
}

// ChaosReader wraps a Reader and injects record-level faults per
// ChaosConfig.
type ChaosReader struct {
	r     Reader
	cfg   ChaosConfig
	rng   *rand.Rand
	queue []Record // records to deliver before reading the source again
	err   error    // deferred source error discovered while reordering
	stats ChaosStats
}

// NewChaosReader wraps r with deterministic fault injection.
func NewChaosReader(r Reader, cfg ChaosConfig) *ChaosReader {
	return &ChaosReader{r: r, cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0xC4A05))}
}

// Stats returns the faults injected so far.
func (c *ChaosReader) Stats() ChaosStats { return c.stats }

func (c *ChaosReader) roll(p float64) bool { return p > 0 && c.rng.Float64() < p }

// Read returns the next (possibly faulty) record.
func (c *ChaosReader) Read() (Record, error) {
	if len(c.queue) > 0 {
		rec := c.queue[0]
		c.queue = c.queue[1:]
		return rec, nil
	}
	if c.err != nil {
		err := c.err
		c.err = nil
		return Record{}, err
	}
	rec, err := c.r.Read()
	if err != nil {
		return Record{}, err
	}
	if c.roll(c.cfg.ReorderProb) {
		next, nerr := c.r.Read()
		if nerr != nil {
			c.err = nerr // deliver rec now, surface the error after
		} else {
			c.queue = append(c.queue, rec)
			rec = next
			c.stats.Reordered++
		}
	}
	if c.roll(c.cfg.CorruptProb) {
		rec = c.corrupt(rec)
		c.stats.Corrupted++
	}
	if c.roll(c.cfg.DuplicateProb) {
		c.queue = append(c.queue, rec)
		c.stats.Duplicated++
	}
	return rec, nil
}

// corrupt mutates one field so the record fails Validate.
func (c *ChaosReader) corrupt(rec Record) Record {
	switch c.rng.IntN(3) {
	case 0:
		rec.Cell &^= 0xff // carrier 0: invalid
	case 1:
		rec.Start = time.Time{} // zero start
	default:
		rec.Duration = -rec.Duration - 1 // negative duration
	}
	return rec
}

// FlipReader wraps an io.Reader and flips one random bit in each byte
// with probability prob, deterministically per seed — the classic
// storage/transport bit-rot model for exercising the binary codec.
type FlipReader struct {
	r    io.Reader
	prob float64
	rng  *rand.Rand
}

// NewFlipReader returns a bit-flipping wrapper over r.
func NewFlipReader(r io.Reader, prob float64, seed uint64) *FlipReader {
	return &FlipReader{r: r, prob: prob, rng: rand.New(rand.NewPCG(seed, 0xB17F11))}
}

// Read reads from the source and damages the returned bytes in place.
func (f *FlipReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	for i := 0; i < n; i++ {
		if f.prob > 0 && f.rng.Float64() < f.prob {
			p[i] ^= 1 << f.rng.IntN(8)
		}
	}
	return n, err
}

// TruncateReader ends the stream cleanly after n bytes, simulating a
// partial file transfer or a torn tail.
type TruncateReader struct {
	r    io.Reader
	left int64
}

// NewTruncateReader returns a reader delivering at most n bytes of r.
func NewTruncateReader(r io.Reader, n int64) *TruncateReader {
	return &TruncateReader{r: r, left: n}
}

// Read reads up to the remaining byte allowance.
func (t *TruncateReader) Read(p []byte) (int, error) {
	if t.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > t.left {
		p = p[:t.left]
	}
	n, err := t.r.Read(p)
	t.left -= int64(n)
	return n, err
}

// FaultReader delivers n bytes of r and then fails every subsequent
// Read with err, simulating a mid-stream I/O failure.
type FaultReader struct {
	r    io.Reader
	left int64
	err  error
}

// NewFaultReader returns a reader failing with err after n bytes.
func NewFaultReader(r io.Reader, n int64, err error) *FaultReader {
	return &FaultReader{r: r, left: n, err: err}
}

// Read reads until the fault offset, then returns the fault.
func (f *FaultReader) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, f.err
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= int64(n)
	return n, err
}
