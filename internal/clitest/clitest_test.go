package clitest

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

const mainEnv = "CLITEST_MAIN"

func TestMain(m *testing.M) { Main(m, mainEnv, helper) }

// helper is the command the tests start: "clean" exits 0 saying
// nothing, "exit" writes to both streams and exits 3, "hang" sleeps an
// hour, and "orphan" starts a hang in its own group, prints its pid and
// exits without waiting for it; "orphan-stdout" does so with the hang
// holding its stdout.
func helper() {
	switch os.Args[1] {
	case "exit":
		fmt.Print("to stdout")
		fmt.Fprint(os.Stderr, "to stderr")
		os.Exit(3)
	case "hang":
		time.Sleep(time.Hour)
	case "orphan", "orphan-stdout":
		cmd := Command(mainEnv, "hang")
		if os.Args[1] == "orphan-stdout" {
			cmd.Stdout = os.Stdout
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(cmd.Process.Pid)
	}
}

// watched is a testing.TB whose errors and cleanups the test keeps, so
// that it can watch the harness fail a test.
type watched struct {
	testing.TB
	errs     []string
	cleanups []func()
}

func (w *watched) Cleanup(f func())  { w.cleanups = append(w.cleanups, f) }
func (w *watched) Error(args ...any) { w.errs = append(w.errs, fmt.Sprint(args...)) }
func (w *watched) Failed() bool      { return len(w.errs) > 0 }

// end runs the cleanups, last first, as the end of a test does.
func (w *watched) end() {
	for i := len(w.cleanups) - 1; i >= 0; i-- {
		w.cleanups[i]()
	}
}

// TestCleanChildPasses: a child that exits, waited for by Run or by
// hand, leaves its test passing, under Adopt too.
func TestCleanChildPasses(t *testing.T) {
	w := &watched{TB: t}
	Adopt(w)
	if _, _, code := Run(w, Command(mainEnv, "clean")); code != 0 {
		t.Errorf("clean child exited %d", code)
	}
	if err := Start(w, Command(mainEnv, "clean")).Wait(); err != nil {
		t.Errorf("clean child: %v", err)
	}
	w.end()
	if w.Failed() {
		t.Errorf("a clean child failed its test: %q", w.errs)
	}
}

// TestLeftChildFails: a child that leaves a process of its group
// running, with or without the child's stdout, fails its test with
// "child left running" as soon as Run has waited for it, and nothing of
// its group runs afterwards; so does a child still running when its test
// ends, started by Start or by hand under Adopt, and it is killed.
func TestLeftChildFails(t *testing.T) {
	for _, orphan := range []string{"orphan", "orphan-stdout"} {
		w := &watched{TB: t}
		stdout, _, code := Run(w, Command(mainEnv, orphan))
		if code != 0 {
			t.Fatalf("%s exited %d", orphan, code)
		}
		if strings.Join(w.errs, "\n") != "child left running" {
			t.Errorf("%s: a child that left %s running failed its test with %q", orphan, stdout, w.errs)
		}
		pid, err := strconv.Atoi(string(stdout))
		if err != nil {
			t.Fatalf("%s printed %q, not its grandchild's pid", orphan, stdout)
		}
		for deadline := time.Now().Add(5 * time.Second); alive(pid); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				syscall.Kill(pid, syscall.SIGKILL)
				t.Fatalf("%s: process %d of the child's group still runs", orphan, pid)
			}
		}
	}

	w := &watched{TB: t}
	c := Start(w, Command(mainEnv, "hang"))
	w.end()
	if strings.Join(w.errs, "\n") != "child left running" {
		t.Errorf("a test that ended with its child running failed with %q", w.errs)
	}
	if err := c.Wait(); err == nil || c.Cmd.ProcessState.Exited() {
		t.Errorf("the hung child was not killed: %v", err)
	}

	w = &watched{TB: t}
	Adopt(w)
	cmd := Command(mainEnv, "hang")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Release()
	w.end()
	if strings.Join(w.errs, "\n") != "child left running" {
		t.Errorf("a test that ended with an adopted child running failed with %q", w.errs)
	}
	if pid := cmd.Process.Pid; alive(pid) {
		syscall.Kill(pid, syscall.SIGKILL)
		t.Errorf("the adopted child %d still runs", pid)
	}
}

// TestRunReturnsExitAndStreams: Run hands back the child's exit code
// and both its streams, and a non-zero exit is the caller's to judge.
func TestRunReturnsExitAndStreams(t *testing.T) {
	w := &watched{TB: t}
	stdout, stderr, code := Run(w, Command(mainEnv, "exit"))
	w.end()
	if string(stdout) != "to stdout" || string(stderr) != "to stderr" || code != 3 {
		t.Errorf("Run returned stdout %q, stderr %q, exit %d; want to stdout, to stderr, 3", stdout, stderr, code)
	}
	if w.Failed() {
		t.Errorf("a child's non-zero exit failed its test: %q", w.errs)
	}
}
