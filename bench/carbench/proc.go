package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// childRun is what one finished child process cost and produced.
type childRun struct {
	Wall   time.Duration
	CPU    time.Duration // user + system, the child and the children it reaped
	RSSMB  float64       // ru_maxrss, the larger of the child's and its reaped children's
	Stdout []byte
	Stderr []byte
	Start  time.Time
	Span   int // the run's span in a traced run, else 0
}

// ops counts the operations a workload attempted and failed: a child
// exiting non-zero, a non-200 reply and a failed output check each
// count once.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	checks    []Check
	tr        *tracer // nil unless the run is traced
}

// Check is one named output check and its verdict.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (o *ops) attempt(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
	}
}

// check records an output check; a failure also counts as a failed
// operation. Repeats of one name collapse into a single entry that
// keeps the first failure.
func (o *ops) check(name string, ok bool, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	detail := ""
	if !ok {
		o.failed++
		detail = fmt.Sprintf(format, args...)
	}
	for i := range o.checks {
		if o.checks[i].Name == name {
			if o.checks[i].OK && !ok {
				o.checks[i] = Check{Name: name, OK: false, Detail: detail}
			}
			return
		}
	}
	o.checks = append(o.checks, Check{Name: name, OK: ok, Detail: detail})
}

// run executes one child to completion. A non-zero exit is returned as
// an error that carries the tail of its stderr.
func run(dir, bin string, args ...string) (childRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	res := childRun{Wall: time.Since(start), Stdout: out.Bytes(), Stderr: errb.Bytes(), Start: start}
	if cmd.ProcessState != nil {
		res.CPU, res.RSSMB = usage(cmd.ProcessState)
	}
	if err != nil {
		return res, fmt.Errorf("%s %v: %w: %s", bin, args, err, tail(errb.Bytes(), 400))
	}
	return res, nil
}

func usage(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}

// daemon is a running carqueryd. Its stdout is a stream of JSON log
// records; the ones named "listening" and "drained" are the events the
// benchmark waits for.
type daemon struct {
	cmd    *exec.Cmd
	start  time.Time
	addr   string
	events chan logEvent
	stderr bytes.Buffer
}

type logEvent struct {
	Msg  string `json:"msg"`
	Addr string `json:"addr"`
	at   time.Time
}

// startDaemon launches carqueryd and returns once it has logged the
// address it listens on.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), events: make(chan logEvent, 2)}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = &d.stderr
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go d.scan(stdout)
	ev, err := d.waitFor("listening", 30*time.Second)
	if err != nil {
		d.kill()
		return nil, err
	}
	d.addr = ev.Addr
	return d, nil
}

// scan forwards the two lifecycle records from the daemon's log and
// drops the rest (one per request, mostly). It ends when the daemon
// closes its stdout. A daemon logs each of the two once, so the
// channel's buffer means scan never waits for a reader and the daemon
// never blocks on an unread log.
func (d *daemon) scan(r io.Reader) {
	defer close(d.events)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ev logEvent
		if bytes.Contains(sc.Bytes(), []byte(`"msg":"http request"`)) || json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.Msg == "listening" || ev.Msg == "drained" {
			ev.at = time.Now()
			d.events <- ev
		}
	}
}

func (d *daemon) waitFor(msg string, timeout time.Duration) (logEvent, error) {
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-d.events:
			if !ok {
				return logEvent{}, fmt.Errorf("carqueryd exited before logging %q: %s", msg, tail(d.stderr.Bytes(), 400))
			}
			if ev.Msg == msg {
				return ev, nil
			}
		case <-deadline:
			return logEvent{}, fmt.Errorf("carqueryd did not log %q within %v", msg, timeout)
		}
	}
}

// stop sends SIGTERM, waits for the daemon to exit and reports what it
// cost. The daemon takes its final cut before exiting 0.
func (d *daemon) stop() (childRun, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return childRun{}, err
	}
	for range d.events { // drain until the scanner sees EOF
	}
	err := d.cmd.Wait()
	res := childRun{Wall: time.Since(d.start), Start: d.start}
	if d.cmd.ProcessState != nil {
		res.CPU, res.RSSMB = usage(d.cmd.ProcessState)
	}
	if err != nil {
		return res, fmt.Errorf("carqueryd exit: %w: %s", err, tail(d.stderr.Bytes(), 400))
	}
	return res, nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	for range d.events {
	}
	_ = d.cmd.Wait() // reaps the process; its exit status no longer matters
}
