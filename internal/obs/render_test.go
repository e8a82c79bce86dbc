package obs

import (
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exposition format exactly: one
// # TYPE line per name, label sets in sorted identity order, timings
// as summaries with quantile samples plus _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("cellcars_ingest_records_total").Add(42)
	r.Counter("cellcars_ingest_quarantined_total", Label{Key: "class", Value: "bad-field"}).Add(3)
	r.Counter("cellcars_ingest_quarantined_total", Label{Key: "class", Value: "truncated"}).Add(1)
	r.Gauge("cellcars_ingest_budget_used_ratio").Set(0.25)
	tm := r.Timing("cellcars_checkpoint_write_seconds")
	for i := 0; i < 100; i++ {
		tm.Observe(100 * time.Millisecond)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	// Quantiles come from the log histogram: exact bin membership is
	// the sketch's business, so the golden text substitutes the
	// rendered values.
	p50 := formatFloat(tm.Quantile(0.5))
	p99 := formatFloat(tm.Quantile(0.99))
	sum := formatFloat(tm.Sum())
	want := strings.Join([]string{
		`# TYPE cellcars_ingest_quarantined_total counter`,
		`cellcars_ingest_quarantined_total{class="bad-field"} 3`,
		`cellcars_ingest_quarantined_total{class="truncated"} 1`,
		`# TYPE cellcars_ingest_records_total counter`,
		`cellcars_ingest_records_total 42`,
		`# TYPE cellcars_ingest_budget_used_ratio gauge`,
		`cellcars_ingest_budget_used_ratio 0.25`,
		`# TYPE cellcars_checkpoint_write_seconds summary`,
		`cellcars_checkpoint_write_seconds{quantile="0.5"} ` + p50,
		`cellcars_checkpoint_write_seconds{quantile="0.99"} ` + p99,
		`cellcars_checkpoint_write_seconds_sum ` + sum,
		`cellcars_checkpoint_write_seconds_count 100`,
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusRegisteredNames asserts every name the render
// emits passes the repo naming convention (the render-side half of the
// convention check; the source-scan half lives in lint_test.go).
func TestWritePrometheusRegisteredNames(t *testing.T) {
	r := New()
	r.Counter("cellcars_engine_records_total", Label{Key: "outcome", Value: "accepted"})
	r.Timing("cellcars_stage_add_seconds", Label{Key: "stage", Value: "presence"})
	for _, name := range names(r) {
		if !ValidName(name) {
			t.Errorf("registered name %q violates the convention", name)
		}
	}
}
