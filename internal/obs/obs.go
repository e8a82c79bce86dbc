// Package obs is the pipeline's observability substrate: a
// dependency-free, concurrency-safe metrics registry (counters,
// gauges, callback gauges, timing histograms), lightweight span
// tracing to a JSONL run trace, a throughput/ETA progress reporter,
// structured JSON logging with run/request correlation ids (NewLogger,
// Instrument), a named health-rule evaluator for readiness probes
// (Health), and an optional debug HTTP server exposing net/http/pprof,
// expvar, and a Prometheus-text /metrics endpoint.
//
// Every handle type is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Timing, *Trace or *Span are no-ops, so instrumented code
// needs no "is observability on?" branches — passing a nil registry
// turns the whole layer off.
//
// Metric names follow the convention cellcars_<area>_<name>
// (lower-case, underscore-separated, at least an area and a name after
// the cellcars prefix); Registry constructors panic on names that do
// not conform, and timing metrics must additionally end in _seconds so
// their Prometheus summary rendering is unit-correct. Labels
// discriminate within a metric (stage="presence", class="bad-field",
// worker="3") and are part of the metric identity.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cellcars/internal/stats"
)

// nameRE is the documented metric-name convention:
// cellcars_<area>_<name>, with optional further underscore-separated
// words.
var nameRE = regexp.MustCompile(`^cellcars(_[a-z][a-z0-9]*){2,}$`)

// labelKeyRE constrains label keys to Prometheus-safe identifiers.
var labelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ValidName reports whether a metric name follows the
// cellcars_<area>_<name> convention.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Label is one key=value dimension of a metric. Labels are part of a
// metric's identity: the same name with different labels is a
// different time series.
type Label struct {
	Key, Value string
}

// metricID renders the canonical identity of a metric: its name plus
// its labels sorted by key, in Prometheus exposition syntax.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// checkMetric panics on a name or label that violates the conventions;
// both indicate an instrumentation bug, not a data condition.
func checkMetric(name string, labels []Label) {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match cellcars_<area>_<name>", name))
	}
	for _, l := range labels {
		if !labelKeyRE.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: metric %s label key %q invalid", name, l.Key))
		}
		if strings.ContainsAny(l.Value, "\"\n\\") {
			panic(fmt.Sprintf("obs: metric %s label %s value %q contains quote/backslash/newline", name, l.Key, l.Value))
		}
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative deltas panic: a counter only goes up.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("obs: counter decremented by %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Add shifts the gauge by d (negative deltas allowed) — the natural
// operation for level gauges like in-flight request counts.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timing accumulates wall-time observations: exact count, sum, min and
// max, plus a logarithmic histogram (stats.LogHist over milliseconds,
// ~7% relative bin width) for quantiles.
type Timing struct {
	mu    sync.Mutex
	count int64
	sum   float64 // seconds
	min   float64 // seconds
	max   float64 // seconds
	hist  stats.LogHist
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	if t == nil {
		return
	}
	s := d.Seconds()
	t.mu.Lock()
	t.count++
	t.sum += s
	if t.count == 1 || s < t.min {
		t.min = s
	}
	if s > t.max {
		t.max = s
	}
	t.hist.Add(s * 1000)
	t.mu.Unlock()
}

// Count returns the number of observations.
func (t *Timing) Count() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Sum returns the total observed seconds.
func (t *Timing) Sum() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum
}

// Quantile returns the approximate q-quantile in seconds (one log-bin
// width of error; see stats.LogHist).
func (t *Timing) Quantile(q float64) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hist.Quantile(q) / 1000
}

// value snapshots the timing under its lock.
func (t *Timing) value() TimingValue {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TimingValue{
		Count: t.count,
		Sum:   t.sum,
		Min:   t.min,
		Max:   t.max,
		P50:   t.hist.Quantile(0.5) / 1000,
		P99:   t.hist.Quantile(0.99) / 1000,
	}
}

// Registry is a named, labeled collection of metrics. Get-or-create
// accessors make call sites self-registering; the same (name, labels)
// pair always returns the same metric, so instrumented layers running
// in parallel workers share series naturally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterEntry
	gauges   map[string]*gaugeEntry
	gaugefns map[string]*gaugeFnEntry
	timings  map[string]*timingEntry
}

type counterEntry struct {
	name   string
	labels []Label
	c      *Counter
}

type gaugeEntry struct {
	name   string
	labels []Label
	g      *Gauge
}

type gaugeFnEntry struct {
	name   string
	labels []Label
	fn     func() float64
}

type timingEntry struct {
	name   string
	labels []Label
	t      *Timing
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*counterEntry),
		gauges:   make(map[string]*gaugeEntry),
		gaugefns: make(map[string]*gaugeFnEntry),
		timings:  make(map[string]*timingEntry),
	}
}

// Counter returns the counter with this name and label set, creating
// it on first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	checkMetric(name, labels)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[id]
	if !ok {
		r.checkKind(id, "counter")
		e = &counterEntry{name: name, labels: canonLabels(labels), c: &Counter{}}
		r.counters[id] = e
	}
	return e.c
}

// Gauge returns the gauge with this name and label set, creating it on
// first use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	checkMetric(name, labels)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.gauges[id]
	if !ok {
		r.checkKind(id, "gauge")
		e = &gaugeEntry{name: name, labels: canonLabels(labels), g: &Gauge{}}
		r.gauges[id] = e
	}
	return e.g
}

// GaugeFunc registers a callback gauge: fn is evaluated at every
// Snapshot (and hence every /metrics scrape), which is the right shape
// for derived instantaneous values like "seconds since the last
// ingested record" — ages advance between scrapes without anyone
// ticking a Set loop. Re-registering the same (name, labels) replaces
// the callback; the last registration wins. fn must be safe to call
// from any goroutine and must not call back into this registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	checkMetric(name, labels)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(id, "gaugefn")
	r.gaugefns[id] = &gaugeFnEntry{name: name, labels: canonLabels(labels), fn: fn}
}

// Timing returns the timing with this name and label set, creating it
// on first use. Timing names must end in _seconds. A nil registry
// returns a nil (no-op) timing.
func (r *Registry) Timing(name string, labels ...Label) *Timing {
	if r == nil {
		return nil
	}
	checkMetric(name, labels)
	if !strings.HasSuffix(name, "_seconds") {
		panic(fmt.Sprintf("obs: timing metric %q must end in _seconds", name))
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.timings[id]
	if !ok {
		r.checkKind(id, "timing")
		e = &timingEntry{name: name, labels: canonLabels(labels), t: &Timing{}}
		r.timings[id] = e
	}
	return e.t
}

// checkKind panics when one id is registered under two metric kinds —
// an instrumentation bug that would corrupt rendering. Caller holds
// r.mu.
func (r *Registry) checkKind(id, kind string) {
	if _, ok := r.counters[id]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: metric %s already registered as a counter", id))
	}
	if _, ok := r.gauges[id]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: metric %s already registered as a gauge", id))
	}
	if _, ok := r.gaugefns[id]; ok && kind != "gaugefn" {
		panic(fmt.Sprintf("obs: metric %s already registered as a gauge func", id))
	}
	if _, ok := r.timings[id]; ok && kind != "timing" {
		panic(fmt.Sprintf("obs: metric %s already registered as a timing", id))
	}
}

func canonLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// CounterValue is one counter series in a snapshot.
type CounterValue struct {
	Name   string
	Labels []Label
	Value  int64
}

// GaugeValue is one gauge series in a snapshot.
type GaugeValue struct {
	Name   string
	Labels []Label
	Value  float64
}

// TimingValue is one timing series in a snapshot. Min, Max, Sum, P50
// and P99 are in seconds; P50/P99 carry the log-histogram's ~7%
// relative error.
type TimingValue struct {
	Name   string
	Labels []Label
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	P50    float64
	P99    float64
}

// Snapshot is a point-in-time copy of every registered series, each
// section sorted by metric identity — deterministic regardless of
// registration or goroutine order.
type Snapshot struct {
	Counters []CounterValue
	Gauges   []GaugeValue
	Timings  []TimingValue
}

// Snapshot captures every registered metric. Safe to call while
// writers are active; each series is read atomically (counters,
// gauges) or under its own lock (timings).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*counterEntry, 0, len(r.counters))
	for _, e := range r.counters {
		counters = append(counters, e)
	}
	gauges := make([]*gaugeEntry, 0, len(r.gauges))
	for _, e := range r.gauges {
		gauges = append(gauges, e)
	}
	gaugefns := make([]*gaugeFnEntry, 0, len(r.gaugefns))
	for _, e := range r.gaugefns {
		gaugefns = append(gaugefns, e)
	}
	timings := make([]*timingEntry, 0, len(r.timings))
	for _, e := range r.timings {
		timings = append(timings, e)
	}
	r.mu.Unlock()

	for _, e := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: e.name, Labels: e.labels, Value: e.c.Value()})
	}
	for _, e := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: e.name, Labels: e.labels, Value: e.g.Value()})
	}
	// Callback gauges are evaluated outside the registry lock: a fn may
	// take its owner's lock (e.g. the query store mutex), and holding
	// r.mu across arbitrary callbacks invites ordering deadlocks.
	for _, e := range gaugefns {
		s.Gauges = append(s.Gauges, GaugeValue{Name: e.name, Labels: e.labels, Value: e.fn()})
	}
	for _, e := range timings {
		tv := e.t.value()
		tv.Name, tv.Labels = e.name, e.labels
		s.Timings = append(s.Timings, tv)
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return metricID(s.Counters[i].Name, s.Counters[i].Labels) < metricID(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return metricID(s.Gauges[i].Name, s.Gauges[i].Labels) < metricID(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Timings, func(i, j int) bool {
		return metricID(s.Timings[i].Name, s.Timings[i].Labels) < metricID(s.Timings[j].Name, s.Timings[j].Labels)
	})
	return s
}
