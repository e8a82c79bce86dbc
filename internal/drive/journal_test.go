package drive

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func freshLedger(n int) []*shardRun {
	shards := make([]*shardRun, n)
	for i := range shards {
		shards[i] = &shardRun{id: i}
	}
	return shards
}

// FuzzJournalReplay feeds arbitrary bytes to -resume's two steps,
// readJournal and applyEvents over a fresh 4-shard ledger: neither may
// panic, only a torn last line is forgiven, and the ledger that comes
// out is the one the journaled events add up to.
func FuzzJournalReplay(f *testing.F) {
	// A clean run, a kill=0.4 run, and a run cancelled after two of its
	// shards (TestCoordinatorResume's first half).
	for _, name := range []string{"clean", "kills", "cancelled"} {
		b, err := os.ReadFile(filepath.Join("testdata", "journal-"+name+".jsonl"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-9]) // torn tail
	}
	// A speculative loser numbered above the winner, a shard outside
	// the plan, a malformed line that is not the last.
	f.Add([]byte(`{"event":"attempt","shard":1}
{"event":"attempt","shard":1,"attempt":1,"speculative":true}
{"event":"done","shard":1,"records":5,"quarantined":2}
{"event":"fail","shard":7,"attempt":3,"class":"crash"}
`))
	// Quarantine counts by class on a done event, and an input refusal.
	f.Add([]byte(`{"event":"attempt","shard":0}
{"event":"done","shard":0,"records":7,"quarantined":3,"by_class":{"bad-field":2,"time-range":1}}
{"event":"attempt","shard":3}
{"event":"fail","shard":3,"class":"input","error":"exit status 4: cdr: strict mode: in.csv: line 9: cdr: bad cell \"x\"","failures":1}
`))
	f.Add([]byte("{\"event\":\"attempt\",\"shard\":2}\n{\"event\":\n{\"event\":\"quarantine\",\"shard\":2}\n"))

	// One file for all executions: a directory per input would be most
	// of the target's time.
	path := filepath.Join(f.TempDir(), "journal.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		events, err := readJournal(path)

		// What the file holds, line by line, decoded independently.
		var want []journalEvent
		malformed, lines := -1, 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			var ev journalEvent
			if json.Unmarshal(line, &ev) != nil {
				if malformed < 0 {
					malformed = lines
				}
			} else if malformed < 0 {
				want = append(want, ev)
			}
			lines++
		}
		if malformed >= 0 && malformed < lines-1 {
			if err == nil {
				t.Fatalf("malformed line %d of %d accepted", malformed+1, lines)
			}
			return
		}
		if err != nil {
			t.Fatalf("readJournal: %v", err)
		}
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("read %d events, the file holds %d well-formed ones before its torn tail", len(events), len(want))
		}

		shards := freshLedger(4)
		applyEvents(shards, events)

		var inPlan []journalEvent
		fails := make([]int, len(shards))
		lastDone := make([]*journalEvent, len(shards))
		for i, ev := range events {
			if ev.Shard < 0 || ev.Shard >= len(shards) {
				continue
			}
			inPlan = append(inPlan, ev)
			switch ev.Event {
			case evDone:
				lastDone[ev.Shard] = &events[i]
			case evFail:
				fails[ev.Shard]++
			case evAttempt:
			default:
				continue // no ordinal
			}
			// (MaxInt has no ordinal above it.)
			if next := shards[ev.Shard].attempts; next <= ev.Attempt && ev.Attempt != math.MaxInt {
				t.Fatalf("shard %d would reuse ordinal %d: journaled %s %d", ev.Shard, next, ev.Event, ev.Attempt)
			}
		}
		for i, s := range shards {
			if s.failures != fails[i] {
				t.Fatalf("shard %d: %d failures from %d journaled fails", i, s.failures, fails[i])
			}
			if s.state != shardDone {
				continue
			}
			d := lastDone[i]
			if d == nil {
				t.Fatalf("shard %d is done without a done event", i)
			}
			if s.stats.Quarantined != d.Quarantined || s.stats.Records < d.Records || !reflect.DeepEqual(s.stats.ByClass, d.ByClass) {
				t.Fatalf("shard %d done with stats %+v, journaled %d records, %d quarantined %v", i, s.stats, d.Records, d.Quarantined, d.ByClass)
			}
		}
		// Events naming a shard outside the plan changed nothing.
		only := freshLedger(4)
		applyEvents(only, inPlan)
		if !reflect.DeepEqual(shards, only) {
			t.Fatal("an event outside the plan changed the ledger")
		}
	})
}
