package drive

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The journal is the coordinator's write-ahead log: one JSON object
// per line, appended and fsynced before the action it records takes
// effect. A crashed coordinator re-reads it on -resume and re-plans
// only what is not yet done. Events:
//
//	plan        — shard count, inputs and study tag of the run
//	attempt     — an attempt was launched (speculative flag set for
//	              duplicates)
//	done        — a shard's snapshot was validated and promoted; carries
//	              the shard's record and quarantine counts, the latter
//	              also by failure class
//	fail        — an attempt failed, with its classification
//	quarantine  — a shard exhausted its attempt budget
//	merged      — the final merge completed
type journalEvent struct {
	Event string `json:"event"`
	Time  string `json:"time,omitempty"`

	// plan
	Shards int      `json:"shards,omitempty"`
	Inputs []string `json:"inputs,omitempty"`
	Tag    string   `json:"tag,omitempty"`

	// attempt / done / fail / quarantine
	Shard       int              `json:"shard"`
	Attempt     int              `json:"attempt,omitempty"`
	Speculative bool             `json:"speculative,omitempty"`
	Class       string           `json:"class,omitempty"`
	Err         string           `json:"error,omitempty"`
	Records     int64            `json:"records,omitempty"`
	Quarantined int64            `json:"quarantined,omitempty"`
	ByClass     map[string]int64 `json:"by_class,omitempty"`
	Seconds     float64          `json:"seconds,omitempty"`
	Failures    int              `json:"failures,omitempty"`
}

// Journal event names.
const (
	evPlan       = "plan"
	evAttempt    = "attempt"
	evDone       = "done"
	evFail       = "fail"
	evQuarantine = "quarantine"
	evMerged     = "merged"
)

type journal struct {
	f *os.File
}

// openJournal opens (appending) or creates the journal file.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("drive: open journal: %w", err)
	}
	return &journal{f: f}, nil
}

// emit appends one event and fsyncs so the record survives a
// coordinator crash. Journal failures are fatal to the run: without a
// durable log the resume contract is void.
func (j *journal) emit(ev journalEvent) error {
	if j == nil {
		return nil
	}
	ev.Time = time.Now().UTC().Format(time.RFC3339Nano)
	b, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("drive: journal encode: %w", err)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("drive: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("drive: journal sync: %w", err)
	}
	return nil
}

// readJournal loads all events from a journal file. A torn final line
// (coordinator died mid-append) is tolerated and dropped; any other
// malformed line is an error, since it means the log cannot be
// trusted.
func readJournal(path string) ([]journalEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []journalEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var bad error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if bad != nil {
			// A malformed line followed by more lines is corruption,
			// not a torn tail.
			return nil, bad
		}
		var ev journalEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			bad = fmt.Errorf("drive: journal line %d: %w", len(events)+1, err)
			continue
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("drive: read journal: %w", err)
	}
	return events, nil
}
