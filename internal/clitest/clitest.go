// Package clitest is how a test starts a binary: the test binary
// re-executed as the command under test (Main, Command) or a sibling
// command built from source (Build), each child in a process group of
// its own that the test reaps and checks for leaks (Start, Run, Output;
// Adopt for children the test process starts otherwise), fed the binary
// CDR bytes EncodeCDR and WriteCDR make. Only _test.go files import it.
package clitest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cellcars/internal/cdr"
)

// Main runs main, the command's own, when the environment variable env
// is "1" — the test binary was started by Command(env, ...) — and the
// tests otherwise. It does not return.
func Main(m *testing.M, env string, main func()) {
	if os.Getenv(env) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Command is the test binary run with args as the command whose
// TestMain calls Main with env.
func Command(env string, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), env+"=1")
	return cmd
}

// Child is a process Start started.
type Child struct {
	Cmd  *exec.Cmd
	once sync.Once
	err  error
}

// Wait reaps the child on the first call and returns its exit on every
// call, from any goroutine.
func (c *Child) Wait() error {
	c.once.Do(func() { c.err = c.Cmd.Wait() })
	return c.err
}

// Start starts cmd in a process group of its own. When the test ends
// with anything of that group alive — the child, or a process it
// started — the group is SIGKILLed, the child reaped, and the test fails
// with "child left running" unless it had failed already.
func Start(t testing.TB, cmd *exec.Cmd) *Child {
	t.Helper()
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = 2 * time.Second // Wait's bound on a process left holding the child's stdio
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &Child{Cmd: cmd}
	t.Cleanup(func() { c.reap(t) })
	return c
}

// reap SIGKILLs what is alive of c's group and reaps c, failing t if
// anything was.
func (c *Child) reap(t testing.TB) {
	pgid := c.Cmd.Process.Pid
	if syscall.Kill(-pgid, 0) != nil {
		return // the group is empty: everything in it exited and was reaped
	}
	syscall.Kill(-pgid, syscall.SIGKILL)
	c.Wait()
	if !t.Failed() {
		t.Error("child left running")
	}
}

// Run starts cmd as Start does, waits for it and returns what it wrote
// to stdout and stderr and its exit code. The test fails at once if
// anything of the child's group outlives the child, whether or not it
// holds the child's stdio.
func Run(t testing.TB, cmd *exec.Cmd) (stdout, stderr []byte, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	c := Start(t, cmd)
	err := c.Wait()
	c.reap(t)
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case errors.Is(err, exec.ErrWaitDelay):
		// The child exited 0 and left its stdio open: reap failed the test.
	case err != nil:
		t.Fatalf("%v: %v", cmd.Args, err)
	}
	return out.Bytes(), errb.Bytes(), code
}

// Output runs cmd as Run does and returns its stdout, failing the test
// unless it exits 0.
func Output(t testing.TB, cmd *exec.Cmd) []byte {
	t.Helper()
	stdout, stderr, code := Run(t, cmd)
	if code != 0 {
		t.Fatalf("%v: exit %d\n%s", cmd.Args, code, stderr)
	}
	return stdout
}

// Adopt is for the children a test does not start itself, such as the
// workers a coordinator running in the test process starts: a child of
// the test process alive when the test ends is SIGKILLed and reaped, and
// the test fails with "child left running" unless it had failed already.
// Tests that call it must not run in parallel with ones that start
// children.
func Adopt(t testing.TB) {
	t.Cleanup(func() {
		tasks, _ := filepath.Glob("/proc/self/task/*/children")
		left := false
		for _, task := range tasks {
			b, _ := os.ReadFile(task)
			for _, f := range strings.Fields(string(b)) {
				if pid, _ := strconv.Atoi(f); alive(pid) {
					syscall.Kill(pid, syscall.SIGKILL)
					syscall.Wait4(pid, nil, 0, nil) // ECHILD if its own Wait reaped it first
					left = true
				}
			}
		}
		if left && !t.Failed() {
			t.Error("child left running")
		}
	})
}

// alive reports whether process pid exists and is not a zombie, one that
// exited and waits to be reaped.
func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	return err == nil && !strings.Contains(string(b[bytes.LastIndexByte(b, ')'):]), ") Z ")
}

// Build compiles the module's command cmd/<name> into dir and returns
// the binary's path. A test without a go toolchain is skipped.
func Build(t testing.TB, dir, name string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not available to build %s", name)
	}
	bin := filepath.Join(dir, name)
	Output(t, exec.Command("go", "build", "-o", bin, "cellcars/cmd/"+name))
	return bin
}

// EncodeCDR renders records in the binary CDR format: a whole stream
// with magic, or without it the records alone, to append to a stream
// already begun.
func EncodeCDR(t testing.TB, records []cdr.Record, magic bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := cdr.NewBinaryWriter(&buf)
	if err := cdr.WriteAll(w, records); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !magic {
		return buf.Bytes()[len(EncodeCDR(t, nil, true)):]
	}
	return buf.Bytes()
}

// WriteCDR writes records to path as a binary CDR file.
func WriteCDR(t testing.TB, path string, records []cdr.Record) {
	t.Helper()
	if err := os.WriteFile(path, EncodeCDR(t, records, true), 0o644); err != nil {
		t.Fatal(err)
	}
}
