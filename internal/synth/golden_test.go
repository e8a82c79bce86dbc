package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
)

// goldenConfig is cargen's default scene for a small fleet: 60 km
// world, 14 days from 2017-01-02.
func goldenConfig(cars int, seed uint64) Config {
	cfg := DefaultConfig(cars)
	cfg.Seed = seed
	cfg.Period = simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 14)
	return cfg
}

// TestGenerateGolden pins the generator's output byte for byte: the
// SHA-256 of GenerateAll's binary encoding for a 200-car, 14-day fleet
// at three seeds. TestGenerateDeterministic only compares one run with
// another, so a change to the mobility model, the radio network's
// nearest-station search or the start-order sort (whose placement of
// equal-key records is part of the output) would pass it while
// changing every file cargen writes. A deliberate change to the
// generator updates these digests and says so.
func TestGenerateGolden(t *testing.T) {
	golden := []struct {
		seed    uint64
		records int
		sha256  string
	}{
		{1, 38176, "b98f24ef07dd9c6dbbbb94b6e680471c1a4bde4ba2946b255ad3e73447a53fd6"},
		{2, 43301, "febac08d5dacdf578cbc6390fb95fcf1e0bcd64c4fd95db2a6fa5471c8e5e9ef"},
		{3, 40074, "e3a0770151851af44a7f0ee1d666bebee5544b9597d893919b75e06dd6a031c4"},
	}
	for _, g := range golden {
		records, _, err := NewWorld(goldenConfig(200, g.seed)).GenerateAll()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		bw := cdr.NewBinaryWriter(h)
		if err := cdr.WriteAll(bw, records); err != nil {
			t.Fatal(err)
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(records) != g.records || got != g.sha256 {
			t.Errorf("seed %d: %d records, sha256 %s; want %d records, sha256 %s",
				g.seed, len(records), got, g.records, g.sha256)
		}
	}
}

// BenchmarkGenerate is the generator's cost line: the benchmark's
// 1 600-car, 14-day fleet through GenerateAll (parallel generation
// over every CPU, then the start-order sort), in ns and allocations
// per generated record. The world is built once; generation reads it
// and touches no shared state.
func BenchmarkGenerate(b *testing.B) {
	w := NewWorld(goldenConfig(1600, 1))
	b.ReportAllocs()
	var recs float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, _, err := w.GenerateAll()
		if err != nil {
			b.Fatal(err)
		}
		recs += float64(len(records))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
}
