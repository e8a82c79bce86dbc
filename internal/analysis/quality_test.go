package analysis

import (
	"strings"
	"testing"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
	"cellcars/internal/synth"
)

func presenceWith(fracs []float64) DailyPresence {
	return DailyPresence{TotalCars: 100, CarsFrac: fracs}
}

func TestDetectCoverageGapsFlagsDip(t *testing.T) {
	// 28 days around 0.8 with a 3-day collapse — the shape of the
	// paper's Figure 2 data-loss window.
	fracs := make([]float64, 28)
	for d := range fracs {
		fracs[d] = 0.8
		if d%7 >= 5 { // weekend variation must NOT be flagged
			fracs[d] = 0.7
		}
	}
	fracs[15], fracs[16], fracs[17] = 0.2, 0.15, 0.25
	period := simtime.NewPeriod(t0, 28)

	gaps := DetectCoverageGaps(presenceWith(fracs), period, 0)
	if len(gaps) != 3 {
		t.Fatalf("gaps = %+v, want the 3 dip days", gaps)
	}
	for i, wantDay := range []int{15, 16, 17} {
		g := gaps[i]
		if g.Day != wantDay {
			t.Fatalf("gap %d flagged day %d, want %d", i, g.Day, wantDay)
		}
		if !g.Date.Equal(period.DayStart(wantDay)) {
			t.Fatalf("gap %d date %v", i, g.Date)
		}
		if g.Baseline < 0.7 || g.Baseline > 0.8 {
			t.Fatalf("gap %d baseline %v", i, g.Baseline)
		}
	}
}

func TestDetectCoverageGapsUniformSeries(t *testing.T) {
	fracs := make([]float64, 28)
	for d := range fracs {
		fracs[d] = 0.75
	}
	if gaps := DetectCoverageGaps(presenceWith(fracs), simtime.NewPeriod(t0, 28), 0); gaps != nil {
		t.Fatalf("uniform coverage flagged: %+v", gaps)
	}
	if gaps := DetectCoverageGaps(presenceWith(nil), simtime.NewPeriod(t0, 28), 0); gaps != nil {
		t.Fatalf("empty series flagged: %+v", gaps)
	}
}

// TestSynthLossWindowDetected closes the loop with the generator: a
// synthetic data set carrying the paper's 3-day data-loss window must
// have its loss days rediscovered from presence alone.
func TestSynthLossWindowDetected(t *testing.T) {
	period := simtime.NewPeriod(t0, 14)
	w := synth.NewWorld(synth.Config{
		Seed:     3,
		NumCars:  40,
		Period:   period,
		LossFrac: 1.0, // total loss so presence unambiguously craters
	})
	records, _, err := w.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	if err := s.AddAll(cdr.NewSliceReader(records)); err != nil {
		t.Fatal(err)
	}
	rep := s.Finalize()

	gaps := DetectCoverageGaps(rep.Presence, period, 0)
	// NewWorld places the window at days/2 + days/6 for 3 days.
	lossStart := period.Days()/2 + period.Days()/6
	if len(gaps) != 3 {
		t.Fatalf("gaps = %+v, want the 3-day window at %d", gaps, lossStart)
	}
	for i, g := range gaps {
		if g.Day != lossStart+i {
			t.Fatalf("flagged day %d, want %d", g.Day, lossStart+i)
		}
	}
}

func TestNewDataQuality(t *testing.T) {
	var stats cdr.IngestStats
	stats.Read = 1000
	stats.Quarantined[cdr.ClassBadField] = 7
	stats.Quarantined[cdr.ClassTruncated] = 1
	stats.Retries = 3

	fracs := make([]float64, 14)
	for d := range fracs {
		fracs[d] = 0.8
	}
	fracs[6] = 0.1
	q := NewDataQuality(stats, 42, presenceWith(fracs), simtime.NewPeriod(t0, 14))

	if q.RecordsRead != 1000 || q.GhostsDropped != 42 || q.QuarantinedTotal != 8 || q.Retries != 3 {
		t.Fatalf("quality = %+v", q)
	}
	if q.Quarantined["bad-field"] != 7 || q.Quarantined["truncated"] != 1 {
		t.Fatalf("breakdown = %+v", q.Quarantined)
	}
	if len(q.Gaps) != 1 || q.Gaps[0].Day != 6 {
		t.Fatalf("gaps = %+v", q.Gaps)
	}
	sum := q.Summary()
	for _, want := range []string{"read 1000", "ghosts 42", "quarantined 8", "gap days 1"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
}
