package snapshot

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// File is what WriteFile needs of the file it creates.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem WriteFile goes through: the three calls that
// bring a name into existence. It is assigned only by tests, which
// fail one step of a durable write — a Create that errors or returns a
// File whose Write, Sync or Close does, a Rename or a SyncDir that
// errors — and put the field back when done.
var FS = struct {
	Create  func(name string) (File, error)
	Rename  func(oldpath, newpath string) error
	SyncDir func(dir string) error
}{
	Create: func(name string) (File, error) { return os.Create(name) },
	Rename: os.Rename,
	SyncDir: func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	},
}

// WriteFile makes path durably hold what write produces, or leaves it
// as it was. It is one attempt at: create path+".tmp", write, fsync,
// close, rename over path, fsync the directory — WriteTemp, then Commit.
// A failure at any step removes the temp file and comes back unwrapped;
// until the rename succeeds path is untouched, and after it path is the
// complete new file. Returns the number of bytes written.
func WriteFile(path string, write func(io.Writer) error) (int64, error) {
	t, err := WriteTemp(path, write)
	if err != nil {
		return 0, err
	}
	return t.Commit()
}

// Temp is the first half of a durable write: path+".tmp", written and
// still open. Commit is the second half. Between the two path is
// untouched, so a writer whose state must stand still only while it is
// being written can let go of it after WriteTemp and Commit elsewhere;
// every Temp must be committed.
type Temp struct {
	f    File
	path string
	n    int64
}

// WriteTemp creates path+".tmp" and writes it. A failure of either step
// removes the temp file.
func WriteTemp(path string, write func(io.Writer) error) (*Temp, error) {
	f, err := FS.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	cw := written{w: f}
	if err := write(&cw); err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return nil, err
	}
	return &Temp{f: f, path: path, n: cw.n}, nil
}

// Commit makes the temp file the file: fsync, close, rename over the
// path, then fsync the path's directory, without which a power loss may
// undo the rename. A failure of any step before the rename removes the
// temp file and leaves the path as it was; a failed directory fsync is
// reported as a failed rename is, though the path may already read the
// new file. Returns the number of bytes written.
func (t *Temp) Commit() (int64, error) {
	tmp := t.path + ".tmp"
	err := t.f.Sync()
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = FS.Rename(tmp, t.path)
	}
	if err == nil {
		err = FS.SyncDir(filepath.Dir(t.path))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return t.n, nil
}

// written counts the bytes that reached the file.
type written struct {
	w io.Writer
	n int64
}

func (c *written) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Dir manages a directory of rotated snapshot cuts for a long-running
// process: each cut is written atomically under a monotonically
// numbered name, old cuts are pruned down to Keep, and restart picks
// the newest cut that still validates — so a crash mid-write (a torn
// tail) silently falls back to the previous good cut instead of
// refusing to start.
type Dir struct {
	// Path is the snapshot directory; WriteCut creates it on demand.
	Path string
	// Keep is how many cuts to retain, newest first. Values below 1
	// mean 1: the directory always keeps the latest good cut.
	Keep int
}

// cutPrefix and cutSuffix frame a cut file name: cut-000042.snap.
const (
	cutPrefix = "cut-"
	cutSuffix = ".snap"
)

func cutName(seq uint64) string {
	return fmt.Sprintf("%s%06d%s", cutPrefix, seq, cutSuffix)
}

// cutSeq parses a cut file name, reporting ok=false for foreign files.
func cutSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, cutPrefix) || !strings.HasSuffix(name, cutSuffix) {
		return 0, false
	}
	mid := name[len(cutPrefix) : len(name)-len(cutSuffix)]
	if mid == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Cuts returns the directory's cut sequence numbers, ascending. A
// missing directory is an empty list, not an error.
func (d *Dir) Cuts() ([]uint64, error) {
	entries, err := os.ReadDir(d.Path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := cutSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// CutPath returns the file path of one cut.
func (d *Dir) CutPath(seq uint64) string {
	return filepath.Join(d.Path, cutName(seq))
}

// WriteCut writes the next cut with WriteFile and prunes old cuts down
// to Keep. write receives the destination stream; any error it returns
// — or any failed step of the write — aborts the cut and leaves the
// directory unchanged, so the next cut takes the same sequence number.
// There is no retry here: the caller's next periodic cut is the retry.
// The new cut's sequence number is returned.
func (d *Dir) WriteCut(write func(w io.Writer) error) (uint64, error) {
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return 0, err
	}
	seqs, err := d.Cuts()
	if err != nil {
		return 0, err
	}
	seq := uint64(1)
	if len(seqs) > 0 {
		seq = seqs[len(seqs)-1] + 1
	}
	if _, err := WriteFile(d.CutPath(seq), write); err != nil {
		return 0, err
	}
	d.prune(append(seqs, seq))
	return seq, nil
}

// prune removes the oldest cuts beyond Keep. Removal failures are
// ignored: a stale extra cut is harmless, and the next cut retries.
func (d *Dir) prune(seqs []uint64) {
	keep := d.Keep
	if keep < 1 {
		keep = 1
	}
	for len(seqs) > keep {
		os.Remove(d.CutPath(seqs[0]))
		seqs = seqs[1:]
	}
}

// LatestValid opens cuts newest-first until validate accepts one,
// returning its sequence number and validate's result. A cut whose
// validation fails (torn tail from a crash mid-rename-window, CRC
// damage) is skipped, not deleted — the next WriteCut rotates past it.
// ok=false with a nil error means no valid cut exists, the cold-start
// case.
func (d *Dir) LatestValid(validate func(seq uint64, r io.Reader) (any, error)) (seq uint64, result any, ok bool, err error) {
	seqs, err := d.Cuts()
	if err != nil {
		return 0, nil, false, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		f, err := os.Open(d.CutPath(seqs[i]))
		if err != nil {
			continue
		}
		res, verr := validate(seqs[i], f)
		f.Close()
		if verr == nil {
			return seqs[i], res, true, nil
		}
	}
	return 0, nil, false, nil
}
