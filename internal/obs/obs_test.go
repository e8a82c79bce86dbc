package obs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestValidName(t *testing.T) {
	valid := []string{
		"cellcars_ingest_records_total",
		"cellcars_stage_add_seconds",
		"cellcars_engine_shard_records_total",
		"cellcars_checkpoint_bytes_total",
	}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{
		"cellcars_records",      // only one group after the prefix
		"ingest_records_total",  // missing prefix
		"cellcars_Ingest_total", // upper case
		"cellcars__records",     // empty group
		"cellcars_ingest_",      // trailing underscore
		"",
	}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestMetricIDSortsLabels(t *testing.T) {
	a := metricID("cellcars_a_b", []Label{{Key: "z", Value: "1"}, {Key: "a", Value: "2"}})
	b := metricID("cellcars_a_b", []Label{{Key: "a", Value: "2"}, {Key: "z", Value: "1"}})
	if a != b {
		t.Fatalf("label order changed identity: %q vs %q", a, b)
	}
	want := `cellcars_a_b{a="2",z="1"}`
	if a != want {
		t.Fatalf("metricID = %q, want %q", a, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	c1 := r.Counter("cellcars_test_total", Label{Key: "k", Value: "v"})
	c2 := r.Counter("cellcars_test_total", Label{Key: "k", Value: "v"})
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c3 := r.Counter("cellcars_test_total", Label{Key: "k", Value: "other"})
	if c1 == c3 {
		t.Fatal("different labels returned the same counter")
	}
}

func TestRegistryPanics(t *testing.T) {
	r := New()
	mustPanic(t, "bad name", func() { r.Counter("bad_name") })
	mustPanic(t, "bad label key", func() { r.Counter("cellcars_test_total", Label{Key: "Bad-Key", Value: "v"}) })
	mustPanic(t, "bad label value", func() { r.Counter("cellcars_test_total", Label{Key: "k", Value: "a\"b"}) })
	mustPanic(t, "timing without _seconds", func() { r.Timing("cellcars_test_total") })
	r.Counter("cellcars_kind_total")
	mustPanic(t, "kind collision", func() { r.Gauge("cellcars_kind_total") })
	mustPanic(t, "negative counter add", func() { r.Counter("cellcars_neg_total").Add(-1) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", what)
		}
	}()
	fn()
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("cellcars_nil_total")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("cellcars_nil_ratio")
	g.Set(1.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	tm := r.Timing("cellcars_nil_seconds")
	tm.Observe(time.Second)
	if tm.Count() != 0 || tm.Sum() != 0 || tm.Quantile(0.5) != 0 {
		t.Fatal("nil timing has observations")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Timings) != 0 {
		t.Fatal("nil registry snapshot is non-empty")
	}
	if names(r) != nil {
		t.Fatal("nil registry has names")
	}
	var tr *Trace
	sp := tr.Start("x")
	sp.AddRecords(1)
	sp.End()
	tr.Emit("y", time.Second, 1)
	if tr.Err() != nil {
		t.Fatal("nil trace has an error")
	}
}

// TestConcurrentMetrics hammers one counter, one gauge and one timing
// from many goroutines; run under -race this is the layer's
// thread-safety proof, and the final values check for lost updates.
func TestConcurrentMetrics(t *testing.T) {
	r := New()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Resolve inside the goroutine: get-or-create races too.
			c := r.Counter("cellcars_conc_total")
			gg := r.Gauge("cellcars_conc_ratio")
			tm := r.Timing("cellcars_conc_seconds")
			shard := r.Counter("cellcars_conc_shard_total",
				Label{Key: "worker", Value: fmt.Sprint(g % 4)})
			for i := 0; i < perG; i++ {
				c.Inc()
				gg.Set(float64(i))
				tm.Observe(time.Duration(i+1) * time.Microsecond)
				shard.Inc()
				if i%100 == 0 {
					r.Snapshot() // readers race writers
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("cellcars_conc_total").Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: got %d, want %d", got, goroutines*perG)
	}
	if got := r.Timing("cellcars_conc_seconds").Count(); got != goroutines*perG {
		t.Fatalf("timing lost observations: got %d, want %d", got, goroutines*perG)
	}
	var shardSum int64
	for w := 0; w < 4; w++ {
		shardSum += r.Counter("cellcars_conc_shard_total", Label{Key: "worker", Value: fmt.Sprint(w)}).Value()
	}
	if shardSum != goroutines*perG {
		t.Fatalf("shard counters sum %d, want %d", shardSum, goroutines*perG)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Two registries populated in opposite orders must snapshot
	// identically: the scrape output cannot depend on map iteration or
	// registration order.
	build := func(reverse bool) *Registry {
		r := New()
		ops := []func(){
			func() { r.Counter("cellcars_a_total").Add(1) },
			func() { r.Counter("cellcars_b_total", Label{Key: "k", Value: "v1"}).Add(2) },
			func() { r.Counter("cellcars_b_total", Label{Key: "k", Value: "v2"}).Add(3) },
			func() { r.Gauge("cellcars_c_ratio").Set(0.5) },
			func() { r.Timing("cellcars_d_seconds").Observe(time.Millisecond) },
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r
	}
	s1, s2 := build(false).Snapshot(), build(true).Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ by registration order:\n%+v\nvs\n%+v", s1, s2)
	}
}

func TestTimingStats(t *testing.T) {
	r := New()
	tm := r.Timing("cellcars_t_seconds")
	for _, ms := range []int{10, 20, 30, 40} {
		tm.Observe(time.Duration(ms) * time.Millisecond)
	}
	if got := tm.Count(); got != 4 {
		t.Fatalf("count = %d", got)
	}
	if got := tm.Sum(); got < 0.099 || got > 0.101 {
		t.Fatalf("sum = %v, want ~0.1", got)
	}
	v := tm.value()
	if v.Min < 0.009 || v.Min > 0.011 {
		t.Fatalf("min = %v, want ~0.01", v.Min)
	}
	if v.Max < 0.039 || v.Max > 0.041 {
		t.Fatalf("max = %v, want ~0.04", v.Max)
	}
	// The log histogram carries ~7% relative error.
	if p50 := tm.Quantile(0.5); p50 < 0.017 || p50 > 0.033 {
		t.Fatalf("p50 = %v, want ~0.02-0.03", p50)
	}
}

// names returns every metric name registered in r (deduplicated across
// label sets), sorted — the input of the naming-convention check.
func names(r *Registry) []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	for _, e := range r.counters {
		seen[e.name] = true
	}
	for _, e := range r.gauges {
		seen[e.name] = true
	}
	for _, e := range r.gaugefns {
		seen[e.name] = true
	}
	for _, e := range r.timings {
		seen[e.name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestNames(t *testing.T) {
	r := New()
	r.Counter("cellcars_b_total", Label{Key: "k", Value: "1"})
	r.Counter("cellcars_b_total", Label{Key: "k", Value: "2"})
	r.Gauge("cellcars_a_ratio")
	r.Timing("cellcars_c_seconds")
	got := names(r)
	want := []string{"cellcars_a_ratio", "cellcars_b_total", "cellcars_c_seconds"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("names() = %v, want %v", got, want)
	}
}
