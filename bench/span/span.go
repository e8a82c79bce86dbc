// Package span is the benchmark's in-memory span recorder: carbench
// and layertrace time their calls into each layer with it, from
// outside the layers, and write the spans out when the run ends.
// It imports only the standard library.
package span

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Times are microseconds since the
// recorder's origin; Parent is the ID of the span that caused it, 0
// for a root.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	Records  int64  `json:"records,omitempty"`
	Workload string `json:"workload"`
}

// Dur is the span's length in seconds.
func (s Span) Dur() float64 { return float64(s.EndUS-s.StartUS) / 1e6 }

// Recorder collects spans in memory. It is safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []Span
}

// NewRecorder returns a recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Under names the workload the spans recorded from now on belong to.
func (r *Recorder) Under(workload string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workload = workload
}

// Open is an in-flight span; End closes it.
type Open struct {
	r     *Recorder
	id    int
	start time.Time
}

// ID is the identifier child spans name as their parent.
func (o *Open) ID() int { return o.id }

// Start opens a span under parent (0 for a root).
func (r *Recorder) Start(name string, parent int) *Open {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name,
		StartUS: now.Sub(r.origin).Microseconds(), Workload: r.workload})
	return &Open{r: r, id: id, start: now}
}

// End closes the span, noting how many records it covered, and
// returns its length.
func (o *Open) End(records int64) time.Duration {
	d := time.Since(o.start)
	o.r.mu.Lock()
	defer o.r.mu.Unlock()
	s := &o.r.spans[o.id-1]
	s.EndUS = s.StartUS + d.Microseconds()
	s.Records = records
	return d
}

// Graft adds spans measured on another clock (a child's own trace
// file, or layertrace's recorder) beneath parent: their roots hang
// off parent, IDs are renumbered, times are shifted by offsetUS, and
// a span that names no workload joins the current one.
func (r *Recorder) Graft(parent int, offsetUS int64, spans []Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.StartUS += offsetUS
		s.EndUS += offsetUS
		if s.Workload == "" {
			s.Workload = r.workload
		}
		r.spans = append(r.spans, s)
	}
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SinceOriginUS converts a wall-clock instant to the recorder's clock.
func (r *Recorder) SinceOriginUS(t time.Time) int64 { return t.Sub(r.origin).Microseconds() }

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns, per span ID, the span's duration in microseconds
// minus the part of its interval covered by its direct children.
// Overlapping children (parallel workers) are counted once, and a
// child is clipped to its parent's interval.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartUS, s.EndUS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, edge := int64(0), s.StartUS
		for _, iv := range ivs {
			lo, hi := max(iv[0], edge), min(iv[1], s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndUS - s.StartUS - covered
	}
	return self
}
