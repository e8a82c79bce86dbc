// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, each printing the regenerated headline numbers next to
// the paper's values (marked "paper:") so `go test -bench=.` produces
// a full reproduction report, recorded in EXPERIMENTS.md.
//
// The shared scene is built once: 1200 cars over the full 90-day
// window on the default 60 km world, seed 1.
package cellcars_test

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"cellcars"
	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/fota"
	"cellcars/internal/load"
	"cellcars/internal/predict"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/stats"
)

const benchCars = 1200

var benchState struct {
	once    sync.Once
	scene   *cellcars.Scene
	records []cdr.Record // raw, sorted
	clean   []cdr.Record // ghost-free
	ctx     analysis.Context
}

func benchScene(b *testing.B) (*cellcars.Scene, []cdr.Record, []cdr.Record, analysis.Context) {
	b.Helper()
	benchState.once.Do(func() {
		cfg := cellcars.DefaultSceneConfig(benchCars)
		cfg.Seed = 1
		scene := cellcars.NewScene(cfg)
		records, _, err := scene.GenerateAll()
		if err != nil {
			b.Fatalf("generate: %v", err)
		}
		cleaned, err := cdr.ReadAll(clean.RemoveGhosts(cdr.NewSliceReader(records)))
		if err != nil {
			b.Fatalf("clean: %v", err)
		}
		benchState.scene = scene
		benchState.records = records
		benchState.clean = cleaned
		benchState.ctx = cellcars.AnalysisContext(scene)
		fmt.Printf("# bench scene: %d cars, %d days, %d raw records, %d stations, %d cells\n",
			benchCars, cfg.Period.Days(), len(records), scene.Net.NumStations(), scene.Net.NumCells())
	})
	return benchState.scene, benchState.records, benchState.clean, benchState.ctx
}

var printOnce sync.Map

// reportOnce prints a reproduction line the first time a benchmark
// runs, keyed by experiment id, so repeated b.N iterations stay quiet.
func reportOnce(id, line string) {
	if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
		fmt.Printf("# %s: %s\n", id, line)
	}
}

// BenchmarkFigure1Saturation regenerates Figure 1: a greedy download
// pinning two cells near 100% PRB utilization from 20:45 for 4 hours.
// Paper: test curves at ~100% while average curves stay diurnal.
func BenchmarkFigure1Saturation(b *testing.B) {
	scene, _, _, _ := benchScene(b)
	cells := scene.Net.AllCells()[:2]
	var res load.SaturationResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = load.Saturate(scene.Load, cells, 45, 20*time.Hour+45*time.Minute, 4*time.Hour, 0.97)
	}
	b.StopTimer()
	avg := 0.0
	for _, v := range res.Average[0] {
		avg += v
	}
	avg /= float64(simtime.BinsPerDay)
	reportOnce("Figure 1",
		fmt.Sprintf("test-window utilization %.1f%% / %.1f%% (paper: ~100%%), day-average reference %.1f%%",
			res.PeakTestUtilization(0)*100, res.PeakTestUtilization(1)*100, avg*100))
	b.ReportMetric(res.PeakTestUtilization(0)*100, "peak-%")
}

// BenchmarkFigure2DailyPresence regenerates Figure 2. Paper: ~76% of
// cars and ~66% of cells per day, weekend dips, slow upward trend with
// tiny R² (0.033 cars / 0.001 cells).
func BenchmarkFigure2DailyPresence(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var p analysis.DailyPresence
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = analysis.DailyPresenceOf(cleaned, ctx.Period)
	}
	b.StopTimer()
	meanCars, meanCells := mean(p.CarsFrac), mean(p.CellsFrac)
	reportOnce("Figure 2",
		fmt.Sprintf("cars/day %.1f%% (paper 76.0%%), cells/day %.1f%% (paper 65.8%%), trends R²=%.3f/%.3f (paper 0.033/0.001)",
			meanCars*100, meanCells*100, p.CarsTrend.R2, p.CellsTrend.R2))
	b.ReportMetric(meanCars*100, "cars-%")
}

// BenchmarkTable1WeekdayPresence regenerates Table 1. Paper: Mon-Thu
// 78-80% cars, Sat 70.3%, Sun 67.4%, overall 76.0%.
func BenchmarkTable1WeekdayPresence(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var rows []analysis.WeekdayRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := analysis.DailyPresenceOf(cleaned, ctx.Period)
		rows = analysis.Table1(p, ctx.Period)
	}
	b.StopTimer()
	reportOnce("Table 1",
		fmt.Sprintf("cars Mon %.1f%% Fri %.1f%% Sat %.1f%% Sun %.1f%% overall %.1f%% (paper 78.1/78.0/70.3/67.4/76.0)",
			rows[0].CarsMean*100, rows[4].CarsMean*100, rows[5].CarsMean*100,
			rows[6].CarsMean*100, rows[7].CarsMean*100))
	b.ReportMetric(rows[7].CarsMean*100, "overall-%")
}

// BenchmarkFigure3ConnectedTime regenerates Figure 3. Paper: mean 8%
// full / 4% truncated of the study period; p99.5 = 27% / 15%.
func BenchmarkFigure3ConnectedTime(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var ct analysis.ConnectedTime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct = analysis.ConnectedTimeOf(cleaned, ctx.Period)
	}
	b.StopTimer()
	reportOnce("Figure 3",
		fmt.Sprintf("mean full %.1f%% / trunc %.1f%% (paper 8/4); p99.5 %.1f%%/%.1f%% (paper 27/15)",
			ct.FullMean*100, ct.TruncMean*100, ct.FullP995*100, ct.TruncP995*100))
	b.ReportMetric(ct.TruncMean*100, "trunc-mean-%")
}

// BenchmarkFigure4ReferenceMatrices regenerates the Figure 4 period
// encodings (static reference data).
func BenchmarkFigure4ReferenceMatrices(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		commute, peak, weekend := analysis.ReferenceMatrices()
		total = commute.Sum() + peak.Sum() + weekend.Sum()
	}
	reportOnce("Figure 4",
		fmt.Sprintf("commute/peak/weekend matrices encode %d significant hour-cells", int(total)))
}

// BenchmarkFigure5UsageMatrices regenerates three per-car 24×7 usage
// matrices. Paper: three qualitatively distinct weekly patterns.
func BenchmarkFigure5UsageMatrices(b *testing.B) {
	scene, _, cleaned, ctx := benchScene(b)
	// One car per paper panel: busy-hour commuter, heavy, early commuter.
	carIDs := carsOfArchetypes(scene, 2, 0, 1)
	var active int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		active = 0
		for _, id := range carIDs {
			m := analysis.UsageMatrix(analysis.RecordsOfCar(cleaned, id), ctx)
			active += m.ActiveCells(0)
		}
	}
	b.StopTimer()
	reportOnce("Figure 5",
		fmt.Sprintf("3 sample cars (heavy, commuter-busy, commuter-early) touch %d distinct week-hours total", active))
}

// BenchmarkFigure6DaysHistogram regenerates Figure 6. Paper: sharp
// drop-off below 10 days, rising trend past 30, most cars near 90.
func BenchmarkFigure6DaysHistogram(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var low10, upTo30, over60 int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := analysis.DaysHistogram(cleaned, ctx.Period)
		low10, upTo30, over60 = 0, 0, 0
		for d, c := range h.Counts {
			switch {
			case d < 10:
				low10 += c
			case d < 30:
				upTo30 += c
			}
			if d >= 60 {
				over60 += c
			}
		}
	}
	b.StopTimer()
	total := float64(low10 + upTo30 + over60)
	_ = total
	reportOnce("Figure 6",
		fmt.Sprintf("cars on <10 days: %d, 10-29 days: %d, 60+ days: %d of %d (paper: drop below 10, rise past 30)",
			low10, upTo30, over60, benchCars))
}

// BenchmarkTable2Segmentation regenerates Table 2. Paper: rare(≤10)
// 2.2% / common 97.8%; rare(≤30) 9.9% / common 90.1%; busy column
// small (0.4-1.3%).
func BenchmarkTable2Segmentation(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var segs []analysis.Segment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segs = analysis.Segmentation(cleaned, ctx, 10, 30)
	}
	b.StopTimer()
	reportOnce("Table 2",
		fmt.Sprintf("rare≤10 %.1f%% (paper 2.2), rare≤30 %.1f%% (paper 9.9), busy %.1f%% (paper 1.7), both %.1f%% (paper 38.4)",
			segs[0].RareTotal()*100, segs[1].RareTotal()*100,
			(segs[0].RareBusy+segs[0].CommonBusy)*100,
			(segs[0].RareBoth+segs[0].CommonBoth)*100))
	b.ReportMetric(segs[0].RareTotal()*100, "rare10-%")
}

// BenchmarkFigure7BusyTime regenerates Figure 7. Paper: ~2.4% of cars
// spend >50% of connected time on busy radios; ~1% spend ~all of it.
func BenchmarkFigure7BusyTime(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var bt analysis.BusyTime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt = analysis.BusyTimeOf(cleaned, ctx)
	}
	b.StopTimer()
	reportOnce("Figure 7",
		fmt.Sprintf("median busy share %.1f%%, >50%% busy: %.2f%% of cars (paper 2.4), ~100%%: %.2f%% (paper ~1)",
			bt.Deciles[5]*100, bt.OverHalf*100, bt.AllBusy*100))
	b.ReportMetric(bt.OverHalf*100, "over50-%")
}

// BenchmarkFigure8CellDay regenerates Figure 8: the busiest cell-day.
// Paper example: 377 cars over 24 h with a 16-car peak 15-minute bin.
func BenchmarkFigure8CellDay(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	pick := analysis.NewExhibitPicker(ctx.Period)
	pick.Add(cleaned)
	x, err := pick.Exhibits(func() (cdr.Reader, error) { return cdr.NewSliceReader(cleaned), nil }, nil)
	if err != nil {
		b.Fatal(err)
	}
	cell, day := x.Cell, x.Day
	var cd analysis.CellDayResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd = analysis.CellDay(cleaned, ctx, cell, day)
	}
	b.StopTimer()
	reportOnce("Figure 8",
		fmt.Sprintf("busiest cell-day %v day %d: %d cars, peak concurrency %d (paper example: 377 cars, peak 16; scales with fleet %d vs 1M)",
			cell, day, cd.UniqueCars, cd.PeakCars, benchCars))
	b.ReportMetric(float64(cd.UniqueCars), "cars")
}

// BenchmarkFigure9CellDurations regenerates Figure 9. Paper: median
// 105 s, 73rd percentile at 600 s, mean 625 s full / 238 s truncated.
func BenchmarkFigure9CellDurations(b *testing.B) {
	_, _, cleaned, _ := benchScene(b)
	var cd analysis.CellDurations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd = analysis.CellDurationsOf(cleaned)
	}
	b.StopTimer()
	reportOnce("Figure 9",
		fmt.Sprintf("median %.0f s (paper 105), p73 %.0f s (paper 600), mean full %.0f s (paper 625) / trunc %.0f s (paper 238)",
			cd.Median, cd.P73, cd.FullMean, cd.TruncMean))
	b.ReportMetric(cd.Median, "median-s")
}

// BenchmarkFigure10CellWeek regenerates Figure 10: concurrency
// impulses against the load curve for a busy cell over one week.
func BenchmarkFigure10CellWeek(b *testing.B) {
	scene, _, cleaned, ctx := benchScene(b)
	busy := scene.Load.VeryBusyCells()
	if len(busy) == 0 {
		b.Skip("no very busy cells")
	}
	var cw analysis.CellWeekResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw = analysis.CellWeek(cleaned, ctx, busy[0], 0)
	}
	b.StopTimer()
	reportOnce("Figure 10",
		fmt.Sprintf("cell %v: peak concurrency %.0f cars, mean UPRB %.0f%% (paper: diurnal impulses tracking the load curve)",
			cw.Cell, cw.Concurrency.Max(), stats.Mean(cw.Utilization[:])*100))
}

// BenchmarkFigure11Clustering regenerates Figure 11: k-means (k=2)
// over busy-cell concurrency vectors. Paper: cluster 2 ~5× the
// concurrency of cluster 1; cluster 1 ~4× more cells.
func BenchmarkFigure11Clustering(b *testing.B) {
	scene, _, cleaned, ctx := benchScene(b)
	busy := scene.Load.VeryBusyCells()
	if len(busy) < 2 {
		b.Skip("too few very busy cells")
	}
	var cl analysis.BusyClusters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl = clusterOnce(cleaned, ctx, busy)
	}
	b.StopTimer()
	sizeRatio := 0.0
	if cl.Sizes[1] > 0 {
		sizeRatio = float64(cl.Sizes[0]) / float64(cl.Sizes[1])
	}
	reportOnce("Figure 11",
		fmt.Sprintf("%d busy cells → clusters %v (size ratio %.1fx, paper 4x), peak ratio %.1fx (paper ~5x)",
			len(busy), cl.Sizes, sizeRatio, cl.PeakRatio()))
	b.ReportMetric(cl.PeakRatio(), "peak-ratio")
}

// BenchmarkSec45Handovers regenerates §4.5. Paper: median 2, p70 4,
// p90 9 handovers per mobility session; inter-BS dominant.
func BenchmarkSec45Handovers(b *testing.B) {
	_, _, cleaned, _ := benchScene(b)
	truncated := append([]cdr.Record(nil), cleaned...)
	for i := range truncated {
		truncated[i].Duration = min(truncated[i].Duration, clean.TruncateLimit)
	}
	var hs analysis.HandoverStats
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, err = analysis.HandoversOf(truncated)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportOnce("Sec 4.5",
		fmt.Sprintf("handovers median %.0f p70 %.0f p90 %.0f (paper 2/4/9), inter-BS %.1f%% (paper: dominant)",
			hs.Median, hs.P70, hs.P90, hs.InterBSShare()*100))
	b.ReportMetric(hs.Median, "median")
}

// BenchmarkTable3CarrierUsage regenerates Table 3. Paper: cars-ever
// 98.7/89.2/98.7/80.8/0.006 %, time 18.6/7.4/51.9/22.1/0.0 %.
func BenchmarkTable3CarrierUsage(b *testing.B) {
	_, _, cleaned, _ := benchScene(b)
	var u analysis.CarrierUsage
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = analysis.CarrierUsageOf(cleaned)
	}
	b.StopTimer()
	reportOnce("Table 3",
		fmt.Sprintf("cars%% C1-C5: %.1f/%.1f/%.1f/%.1f/%.3f (paper 98.7/89.2/98.7/80.8/0.006); time%%: %.1f/%.1f/%.1f/%.1f/%.3f (paper 18.6/7.4/51.9/22.1/0)",
			u.CarsFrac[radio.C1]*100, u.CarsFrac[radio.C2]*100, u.CarsFrac[radio.C3]*100,
			u.CarsFrac[radio.C4]*100, u.CarsFrac[radio.C5]*100,
			u.TimeFrac[radio.C1]*100, u.TimeFrac[radio.C2]*100, u.TimeFrac[radio.C3]*100,
			u.TimeFrac[radio.C4]*100, u.TimeFrac[radio.C5]*100))
	b.ReportMetric(u.TimeFrac[radio.C3]*100, "C3-time-%")
}

// clusterOnce runs the Figure 11 clustering with a fixed seed.
func clusterOnce(records []cdr.Record, ctx analysis.Context, busy []radio.CellKey) analysis.BusyClusters {
	rng := rand.New(rand.NewPCG(1, 0xF16))
	return analysis.ClusterBusyCells(records, ctx, busy, rng)
}

// carsOfArchetypes picks one car id per requested archetype index.
func carsOfArchetypes(scene *cellcars.Scene, wants ...int) []cdr.CarID {
	var out []cdr.CarID
	for _, want := range wants {
		for i := range scene.Cars {
			if int(scene.Cars[i].Archetype) == want {
				out = append(out, cdr.CarID(scene.Cars[i].ID))
				break
			}
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkGeneratorThroughput measures end-to-end CDR generation rate
// on a small scene (records/sec scales linearly with fleet-days).
func BenchmarkGeneratorThroughput(b *testing.B) {
	cfg := cellcars.DefaultSceneConfig(100)
	cfg.Period = simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 7)
	var n int64
	for i := 0; i < b.N; i++ {
		scene := cellcars.NewScene(cfg)
		records, _, err := scene.GenerateAll()
		if err != nil {
			b.Fatal(err)
		}
		n = int64(len(records))
	}
	b.ReportMetric(float64(n), "records/op")
}

// BenchmarkBinaryCodec measures binary CDR encode+decode throughput.
func BenchmarkBinaryCodec(b *testing.B) {
	_, _, cleaned, _ := benchScene(b)
	sample := cleaned
	if len(sample) > 100000 {
		sample = sample[:100000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writerBuffer
		w := cdr.NewBinaryWriter(&buf)
		if err := cdr.WriteAll(w, sample); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		out, err := cdr.ReadAll(cdr.NewBinaryReader(&buf))
		if err != nil || len(out) != len(sample) {
			b.Fatalf("round trip: %v (%d records)", err, len(out))
		}
	}
	b.SetBytes(int64(len(sample)) * 28)
}

// BenchmarkCSVCodec measures CSV CDR encode+decode throughput.
func BenchmarkCSVCodec(b *testing.B) {
	_, _, cleaned, _ := benchScene(b)
	sample := cleaned
	if len(sample) > 50000 {
		sample = sample[:50000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writerBuffer
		w := cdr.NewCSVWriter(&buf)
		if err := cdr.WriteAll(w, sample); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		out, err := cdr.ReadAll(cdr.NewCSVReader(&buf))
		if err != nil || len(out) != len(sample) {
			b.Fatalf("round trip: %v (%d records)", err, len(out))
		}
	}
}

// writerBuffer is a minimal in-memory io.Reader/Writer for codec
// benchmarks without bytes.Buffer's growth checks dominating.
type writerBuffer struct {
	data []byte
	pos  int
}

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.pos >= len(w.data) {
		return 0, io.EOF
	}
	n := copy(p, w.data[w.pos:])
	w.pos += n
	return n, nil
}

// BenchmarkFOTAPolicies is the design-choice ablation: the same
// campaign under naive, randomized and segment-aware policies,
// reporting busy-cell impact and completion time.
func BenchmarkFOTAPolicies(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	segments := fota.SegmentsFromReport(cleaned, ctx, 10)
	windows := fota.PlanWindows(cleaned, ctx, 8, 4)
	base := fota.DefaultConfig(nil)
	var results []fota.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = fota.Compare(cleaned, ctx, segments, base,
			fota.NaivePolicy{},
			fota.RandomizedPolicy{P: 0.25, Seed: 1},
			fota.SegmentAwarePolicy{BusyThreshold: ctx.Load.BusyThreshold()},
			fota.ScheduledPolicy{
				Period:          ctx.Period,
				TZOffsetSeconds: ctx.TZOffsetSeconds,
				Windows:         windows,
				BusyThreshold:   ctx.Load.BusyThreshold(),
			},
		)
	}
	b.StopTimer()
	reportOnce("FOTA ablation",
		fmt.Sprintf("busy-byte share naive/randomized/segment-aware/scheduled: %.1f%%/%.1f%%/%.1f%%/%.1f%% | mean days %.1f/%.1f/%.1f/%.1f",
			results[0].BusyShare()*100, results[1].BusyShare()*100,
			results[2].BusyShare()*100, results[3].BusyShare()*100,
			results[0].MeanDaysToComplete, results[1].MeanDaysToComplete,
			results[2].MeanDaysToComplete, results[3].MeanDaysToComplete))
}

// BenchmarkAblationAggregateGap sweeps the §3 session concatenation
// gap (paper: 30 s) and reports the session count at each setting.
func BenchmarkAblationAggregateGap(b *testing.B) {
	_, _, cleaned, _ := benchScene(b)
	gaps := []time.Duration{10 * time.Second, 30 * time.Second, 2 * time.Minute, 10 * time.Minute}
	counts := make([]int, len(gaps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for gi, gap := range gaps {
			sessions, err := clean.Sessions(cdr.NewSliceReader(cleaned), gap)
			if err != nil {
				b.Fatal(err)
			}
			counts[gi] = len(sessions)
		}
	}
	b.StopTimer()
	reportOnce("Ablation gap",
		fmt.Sprintf("sessions at 10s/30s/2m/10m gaps: %d/%d/%d/%d (30 s is the paper's aggregate-session setting)",
			counts[0], counts[1], counts[2], counts[3]))
}

// BenchmarkAblationTruncation sweeps the §3 truncation limit (paper:
// 600 s) and reports the per-car connected-time mean at each setting.
func BenchmarkAblationTruncation(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	limits := []int64{300, 600, 1200}
	means := make([]float64, len(limits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for li, lim := range limits {
			var total, n float64
			perCar := map[cdr.CarID]int64{}
			for _, r := range cleaned {
				sec := int64(r.Duration / time.Second)
				if sec > lim {
					sec = lim
				}
				perCar[r.Car] += sec
			}
			for _, sec := range perCar {
				total += float64(sec)
				n++
			}
			means[li] = total / n / float64(ctx.Period.Seconds())
		}
	}
	b.StopTimer()
	reportOnce("Ablation truncation",
		fmt.Sprintf("mean connected share at 300/600/1200 s caps: %.2f%%/%.2f%%/%.2f%% (paper truncates at 600 s)",
			means[0]*100, means[1]*100, means[2]*100))
}

// BenchmarkAblationBusyThreshold sweeps the busy-cell threshold
// (paper: 80%) and reports the >50%-busy car share at each setting.
func BenchmarkAblationBusyThreshold(b *testing.B) {
	scene, _, cleaned, _ := benchScene(b)
	thresholds := []float64{0.7, 0.8, 0.9}
	overHalf := make([]float64, len(thresholds))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti, th := range thresholds {
			ctx := analysis.Context{
				Period: scene.Config.Period,
				Load:   thresholdSource{scene.Load, th},
			}
			bt := analysis.BusyTimeOf(cleaned, ctx)
			overHalf[ti] = bt.OverHalf
		}
	}
	b.StopTimer()
	reportOnce("Ablation busy threshold",
		fmt.Sprintf("cars >50%% busy at 70/80/90%% thresholds: %.2f%%/%.2f%%/%.2f%% (paper uses 80%%)",
			overHalf[0]*100, overHalf[1]*100, overHalf[2]*100))
}

// thresholdSource overrides a load source's busy threshold.
type thresholdSource struct {
	load.Source
	threshold float64
}

func (t thresholdSource) BusyThreshold() float64 { return t.threshold }

// BenchmarkPredictability is the §4.7 extension: backtest per-car
// hourly appearance prediction, train 8 weeks → evaluate 4, and report
// the predictability→accuracy gradient.
func BenchmarkPredictability(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var res predict.FleetResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = predict.BacktestFleet(cleaned, ctx.Period, ctx.TZOffsetSeconds, 8, 4, 0.5)
	}
	b.StopTimer()
	reportOnce("Predictability (extension)",
		fmt.Sprintf("fleet F1 %.2f; quartile F1 low→high %.2f/%.2f/%.2f/%.2f (top quartile mixes in sparse rare cars)",
			res.Overall.F1(),
			res.ByPredictability[0].F1(), res.ByPredictability[1].F1(),
			res.ByPredictability[2].F1(), res.ByPredictability[3].F1()))
	b.ReportMetric(res.Overall.F1(), "F1")
}

// BenchmarkCarClustering is the §1 extension: behavioural clustering
// of cars by weekly appearance profile.
func BenchmarkCarClustering(b *testing.B) {
	_, _, cleaned, ctx := benchScene(b)
	var clusters []predict.CarCluster
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(9, 0xC1A5))
		clusters = predict.ClusterCars(cleaned, ctx.Period, ctx.TZOffsetSeconds, 8, 4, rng)
	}
	b.StopTimer()
	sizes := make([]int, len(clusters))
	maxWeekend := 0.0
	for i, c := range clusters {
		sizes[i] = len(c.Cars)
		if s := c.WeekendShare(); s > maxWeekend {
			maxWeekend = s
		}
	}
	reportOnce("Car clustering (extension)",
		fmt.Sprintf("k=4 behavioural clusters %v; one cluster is weekend-dominated (share %.0f%%)", sizes, maxWeekend*100))
}

// BenchmarkGenerateParallel compares parallel generation throughput
// against the sequential path on a small scene.
func BenchmarkGenerateParallel(b *testing.B) {
	cfg := cellcars.DefaultSceneConfig(200)
	cfg.Period = simtime.NewPeriod(time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC), 7)
	scene := cellcars.NewScene(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out cdr.SliceWriter
		if _, err := scene.GenerateParallel(&out, 8); err != nil {
			b.Fatal(err)
		}
	}
}
