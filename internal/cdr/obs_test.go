package cdr

import (
	"math"
	"strings"
	"testing"

	"cellcars/internal/obs"
)

// TestIngestMetrics runs a dirty CSV stream through the resilient
// reader with a registry attached and checks the delivered/quarantined
// counters and the budget gauge against the reader's own Stats.
func TestIngestMetrics(t *testing.T) {
	// Two good rows, then a bad one last so the final budget-gauge
	// update sees the stream's final counts.
	raw := "5,196611,1483315200,60\n" +
		"6,196611,1483315260,30\n" +
		"garbage,x,y,z\n"
	reg := obs.New()
	cfg := ResilientConfig{MaxBadFrac: 0.5, MinRecords: 10, Obs: reg}
	r := NewResilientReader(NewCSVReader(strings.NewReader(raw)), cfg)
	out, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("records = %d, want 2", len(out))
	}

	if got := reg.Counter("cellcars_ingest_records_total").Value(); got != 2 {
		t.Errorf("ingest records counter = %d, want 2", got)
	}
	if got := reg.Counter("cellcars_ingest_quarantined_total",
		obs.Label{Key: "class", Value: "bad-field"}).Value(); got != 1 {
		t.Errorf("bad-field quarantine counter = %d, want 1", got)
	}
	// One bad of three attempted against a 0.5 budget: (1/3)/0.5.
	want := (1.0 / 3.0) / 0.5
	if got := reg.Gauge("cellcars_ingest_budget_used_ratio").Value(); math.Abs(got-want) > 1e-9 {
		t.Errorf("budget gauge = %v, want %v", got, want)
	}
}
