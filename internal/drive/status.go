package drive

import (
	"encoding/json"
	"net/http"
	"time"
)

// AttemptStatus is one worker attempt on a shard's timeline.
type AttemptStatus struct {
	Attempt     int       `json:"attempt"`
	Speculative bool      `json:"speculative,omitempty"`
	Started     time.Time `json:"started"`
	// Outcome is empty while the attempt is running, then one of
	// "ok", "crash", "timeout", "bad-snapshot", "input" or "canceled".
	Outcome string  `json:"outcome,omitempty"`
	Err     string  `json:"err,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
}

// ShardStatus is one shard's live state-machine view.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // pending | running | done | quarantined
	Failures int    `json:"failures"`
	// NextTry is the backoff expiry for a pending retry, omitted
	// otherwise.
	NextTry  *time.Time      `json:"next_try,omitempty"`
	Attempts []AttemptStatus `json:"attempts,omitempty"`
}

// Status is the coordinator's live run snapshot, served as JSON by
// StatusHandler.
type Status struct {
	Phase       string        `json:"phase"` // planning | running | merging | done
	Shards      []ShardStatus `json:"shards"`
	Done        int           `json:"done"`
	Quarantined int           `json:"quarantined"`
	Inflight    int           `json:"inflight"`
	Attempts    int           `json:"attempts"`
	UpdatedAt   time.Time     `json:"updated_at"`
}

// stateNames are the shard states as ShardStatus.State spells them.
var stateNames = [...]string{shardPending: "pending", shardRunning: "running", shardDone: "done", shardQuarantined: "quarantined"}

// Status returns a point-in-time copy of the shard ledger: per-shard
// state machines with the attempt timelines of this process. Safe to
// call from any goroutine while Run is in flight.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Phase:       c.phase,
		Shards:      make([]ShardStatus, len(c.shards)),
		Done:        c.count(shardDone),
		Quarantined: c.count(shardQuarantined),
		UpdatedAt:   time.Now(),
	}
	for i, s := range c.shards {
		sh := ShardStatus{
			Shard:    s.id,
			State:    stateNames[s.state],
			Failures: s.failures,
			Attempts: append([]AttemptStatus(nil), s.timeline...),
		}
		if s.state == shardPending && !s.nextTry.IsZero() {
			t := s.nextTry
			sh.NextTry = &t
		}
		st.Shards[i] = sh
		st.Attempts += len(sh.Attempts)
		for _, a := range sh.Attempts {
			if a.Outcome == "" {
				st.Inflight++
			}
		}
	}
	return st
}

// StatusHandler serves the coordinator's live Status as JSON — the
// body behind cardrive's -status-addr /status endpoint.
func StatusHandler(c *Coordinator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := json.MarshalIndent(c.Status(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n'))
	})
}
