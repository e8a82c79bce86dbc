package studyflags

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// roundTripRecords is a few cars' day of connections in start order:
// bursts of records 20 s apart, so every stage's sessions stay open
// across a mid-stream snapshot, an hour apart.
func roundTripRecords(p simtime.Period) []cdr.Record {
	var out []cdr.Record
	for burst := 0; burst < 12; burst++ {
		at := p.Start().Add(time.Duration(7+burst) * time.Hour)
		for i := 0; i < 40; i++ {
			for car := cdr.CarID(1); car <= 3; car++ {
				out = append(out, cdr.Record{
					Car:      car,
					Cell:     radio.MakeCellKey(radio.BSID(10*int(car)+i%4), 0, radio.C3),
					Start:    at.Add(time.Duration(i) * 20 * time.Second),
					Duration: 15 * time.Second,
				})
			}
		}
	}
	return out
}

// TestCheckpointRoundTripOrRefused: a study is either refused by
// Context, or its checkpoint round-trips — a snapshot cut mid-stream,
// restored and fed the rest finalizes to an uninterrupted run's report.
// The engine's clocks are Unix nanoseconds, so a period outside
// 1677–2262 must be refused: accepted, its open sessions would be
// written through a wrapped UnixNano and resume into another report.
func TestCheckpointRoundTripOrRefused(t *testing.T) {
	for _, c := range []struct {
		start string
		days  int
		ok    bool
	}{
		{"2017-01-02", 14, true},
		{"1969-12-25", 14, true},
		{"1677-09-22", 14, true},
		{"2262-03-01", 14, true},
		{"2263-01-01", 14, false},
		{"2262-04-01", 14, false},
		{"1677-09-01", 14, false},
		{"2017-01-02", 0, false},
	} {
		f := &Flags{Start: c.start, Days: c.days, TZ: -5, Seed: 1, Budget: 1}
		ctx, err := f.Context()
		if err != nil {
			if c.ok {
				t.Errorf("-start %s -days %d refused: %v", c.start, c.days, err)
			} else if !strings.Contains(err.Error(), "study") {
				t.Errorf("-start %s -days %d: refusal %q does not name the study period", c.start, c.days, err)
			}
			continue
		}
		records := roundTripRecords(ctx.Period)
		whole := analysis.NewStreamingWithOptions(ctx, f.RunOptions())
		for _, r := range records {
			whole.Add(r)
		}
		cut := len(records)/2 + 1 // mid-burst
		first := analysis.NewStreamingWithOptions(ctx, f.RunOptions())
		for _, r := range records[:cut] {
			first.Add(r)
		}
		var snap bytes.Buffer
		if err := first.SnapshotTo(&snap); err != nil {
			t.Fatalf("-start %s: snapshot: %v", c.start, err)
		}
		resumed, err := analysis.RestoreStreaming(ctx, f.RunOptions(), &snap)
		if err != nil {
			t.Fatalf("-start %s: restore: %v", c.start, err)
		}
		for _, r := range records[cut:] {
			resumed.Add(r)
		}
		want, got := whole.Finalize(), resumed.Finalize()
		if want.UsageSessions == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("-start %s -days %d: the checkpoint round trip changed the report (usage sessions %d, uninterrupted %d; handover sessions %d, uninterrupted %d)",
				c.start, c.days, got.UsageSessions, want.UsageSessions, got.Handovers.Sessions, want.Handovers.Sessions)
			continue
		}
		if !c.ok {
			t.Errorf("-start %s -days %d: accepted a study Unix nanoseconds cannot clock", c.start, c.days)
		}
	}
}
