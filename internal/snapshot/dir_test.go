package snapshot

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeTestCut(t *testing.T, d *Dir, payload string) uint64 {
	t.Helper()
	seq, err := d.WriteCut(func(w io.Writer) error {
		sw := NewWriter(w)
		e := sw.Begin("data")
		e.String(payload)
		sw.End()
		return sw.Close()
	})
	if err != nil {
		t.Fatalf("WriteCut: %v", err)
	}
	return seq
}

// readTestCut validates the container end-to-end and returns the
// payload string.
func readTestCut(_ uint64, r io.Reader) (any, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	name, d, err := sr.Next()
	if err != nil {
		return nil, err
	}
	if name != "data" {
		return nil, fmt.Errorf("unexpected frame %q", name)
	}
	s := d.String()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if _, _, err := sr.Next(); err != io.EOF {
		return nil, fmt.Errorf("expected clean end marker, got %v", err)
	}
	return s, nil
}

func TestDirRotationAndPrune(t *testing.T) {
	d := &Dir{Path: filepath.Join(t.TempDir(), "snaps"), Keep: 3}

	// Cold start: no directory, no cuts, no error.
	if seq, _, ok, err := d.LatestValid(readTestCut); err != nil || ok || seq != 0 {
		t.Fatalf("cold start: seq=%d ok=%v err=%v", seq, ok, err)
	}

	for i := 1; i <= 5; i++ {
		if seq := writeTestCut(t, d, fmt.Sprintf("cut %d", i)); seq != uint64(i) {
			t.Fatalf("cut %d got sequence %d", i, seq)
		}
	}
	seqs, err := d.Cuts()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 3 || seqs[2] != 5 {
		t.Fatalf("after 5 cuts with Keep=3, have %v", seqs)
	}

	seq, res, ok, err := d.LatestValid(readTestCut)
	if err != nil || !ok {
		t.Fatalf("LatestValid: ok=%v err=%v", ok, err)
	}
	if seq != 5 || res.(string) != "cut 5" {
		t.Fatalf("LatestValid returned seq=%d payload=%v", seq, res)
	}
}

func TestDirTornTailFallsBack(t *testing.T) {
	d := &Dir{Path: filepath.Join(t.TempDir(), "snaps"), Keep: 4}
	writeTestCut(t, d, "good")
	writeTestCut(t, d, "newer")

	// Simulate a crash that left a torn newest cut: truncate it.
	data, err := os.ReadFile(d.CutPath(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.CutPath(2), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	seq, res, ok, err := d.LatestValid(readTestCut)
	if err != nil || !ok {
		t.Fatalf("LatestValid: ok=%v err=%v", ok, err)
	}
	if seq != 1 || res.(string) != "good" {
		t.Fatalf("expected fallback to cut 1, got seq=%d payload=%v", seq, res)
	}

	// The next cut rotates past the torn one.
	if seq := writeTestCut(t, d, "recovered"); seq != 3 {
		t.Fatalf("post-crash cut got sequence %d, want 3", seq)
	}
	if seq, res, ok, _ := d.LatestValid(readTestCut); !ok || seq != 3 || res.(string) != "recovered" {
		t.Fatalf("after recovery: seq=%d ok=%v payload=%v", seq, ok, res)
	}
}

func TestDirIgnoresForeignFiles(t *testing.T) {
	d := &Dir{Path: t.TempDir(), Keep: 2}
	for _, name := range []string{"README", "cut-.snap", "cut-xyz.snap", "cut-1.tmp"} {
		if err := os.WriteFile(filepath.Join(d.Path, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := d.Cuts()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 0 {
		t.Fatalf("foreign files leaked into cut list: %v", seqs)
	}
	if seq := writeTestCut(t, d, "first"); seq != 1 {
		t.Fatalf("first cut in dirty dir got sequence %d", seq)
	}
}

// faultyFile is a real file whose named step fails.
type faultyFile struct {
	*os.File
	failAt string
}

var errInjected = errors.New("injected fault")

func (f faultyFile) Write(p []byte) (int, error) {
	if f.failAt == "write" {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f faultyFile) Sync() error {
	if f.failAt == "fsync" {
		return errInjected
	}
	return f.File.Sync()
}

func (f faultyFile) Close() error {
	err := f.File.Close()
	if f.failAt == "close" {
		return errInjected
	}
	return err
}

// failStep makes FS fail one step of every WriteFile until the
// returned func puts the real one back. Tests using it must not run in
// parallel.
func failStep(step string) (restore func()) {
	orig := FS
	switch step {
	case "create":
		FS.Create = func(string) (File, error) { return nil, errInjected }
	case "rename":
		FS.Rename = func(string, string) error { return errInjected }
	case "dirsync":
		FS.SyncDir = func(string) error { return errInjected }
	default:
		FS.Create = func(name string) (File, error) {
			f, err := os.Create(name)
			return faultyFile{f, step}, err
		}
	}
	return func() { FS = orig }
}

// TestWriteFileFaultAtEveryStep fails each step of a durable write in
// turn, under both of its spellings — WriteFile, and WriteTemp followed
// by Commit, as a writer that lets go of its state in between calls
// them: the error comes back, no temp file is left and the previous
// file stands.
func TestWriteFileFaultAtEveryStep(t *testing.T) {
	halves := func(path string, write func(io.Writer) error) (int64, error) {
		tmp, err := WriteTemp(path, write)
		if err != nil {
			return 0, err
		}
		return tmp.Commit()
	}
	for _, step := range []string{"create", "write", "fsync", "close", "rename"} {
		t.Run(step, func(t *testing.T) {
			for name, write := range map[string]func(string, func(io.Writer) error) (int64, error){
				"whole": WriteFile, "halves": halves,
			} {
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "state.snap")
					if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
						t.Fatal(err)
					}
					defer failStep(step)()
					n, err := write(path, func(w io.Writer) error {
						_, err := w.Write([]byte("replacement"))
						return err
					})
					if !errors.Is(err, errInjected) || n != 0 {
						t.Fatalf("write = %d, %v; want 0 and the injected fault", n, err)
					}
					if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("temp file left behind (stat err %v)", err)
					}
					if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
						t.Fatalf("previous file now reads %q, %v", got, err)
					}
				})
			}
		})
	}
}

// TestWriteTempLeavesThePathAlone: between the halves the path is what
// it was and the temp file is complete; Commit swaps them.
func TestWriteTempLeavesThePathAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp, err := WriteTemp(path, func(w io.Writer) error { _, err := w.Write([]byte("replacement")); return err })
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "previous" {
		t.Fatalf("path reads %q before Commit", got)
	}
	if got, _ := os.ReadFile(path + ".tmp"); string(got) != "replacement" {
		t.Fatalf("temp file reads %q before Commit", got)
	}
	if n, err := tmp.Commit(); err != nil || n != int64(len("replacement")) {
		t.Fatalf("Commit = %d, %v", n, err)
	}
	if got, _ := os.ReadFile(path); string(got) != "replacement" {
		t.Fatalf("path reads %q after Commit", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file outlived Commit (stat err %v)", err)
	}
}

// TestCommitSyncsTheDirectory: a commit fsyncs the directory it renamed
// in, after the rename, and a failed directory fsync comes back as a
// failed rename does — no size, the fault itself, no temp file — though
// the rename has happened.
func TestCommitSyncsTheDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	orig := FS
	defer func() { FS = orig }()
	var synced []string
	FS.SyncDir = func(dir string) error {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before the rename: %v", err)
		}
		synced = append(synced, dir)
		return orig.SyncDir(dir)
	}
	write := func(w io.Writer) error { _, err := w.Write([]byte("replacement")); return err }
	if _, err := WriteFile(path, write); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != filepath.Dir(path) {
		t.Fatalf("synced %v, want the one directory %s", synced, filepath.Dir(path))
	}

	FS = orig
	defer failStep("dirsync")()
	n, err := WriteFile(path, write)
	if !errors.Is(err, errInjected) || n != 0 {
		t.Fatalf("write = %d, %v; want 0 and the injected fault", n, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind (stat err %v)", err)
	}
}

func TestWriteFileReturnsTheFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	n, err := WriteFile(path, func(w io.Writer) error {
		for i := 0; i < 3; i++ {
			if _, err := w.Write([]byte("twelve bytes")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n || n != 36 {
		t.Fatalf("WriteFile returned %d, file is %v bytes (%v), want 36", n, fi.Size(), err)
	}
}

// A cut whose rename fails never becomes visible: the directory is
// what it was, and the next cut takes the sequence number again.
func TestDirFailedRenameLeavesDirectoryUnchanged(t *testing.T) {
	d := &Dir{Path: filepath.Join(t.TempDir(), "snaps"), Keep: 3}
	writeTestCut(t, d, "good")
	before, err := os.ReadDir(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	restore := failStep("rename")
	_, err = d.WriteCut(func(w io.Writer) error { _, err := w.Write([]byte("lost")); return err })
	restore()
	if !errors.Is(err, errInjected) {
		t.Fatalf("WriteCut under a failing rename: %v", err)
	}
	after, err := os.ReadDir(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) || after[0].Name() != before[0].Name() {
		t.Fatalf("directory changed by a failed cut: %v -> %v", before, after)
	}
	if seq, res, ok, _ := d.LatestValid(readTestCut); !ok || seq != 1 || res.(string) != "good" {
		t.Fatalf("after the failed cut: seq=%d ok=%v payload=%v", seq, ok, res)
	}
	if seq := writeTestCut(t, d, "retried"); seq != 2 {
		t.Fatalf("cut after a failed one got sequence %d, want 2 again", seq)
	}
}
