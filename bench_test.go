// Benchmark harness for the paper's evaluation: BenchmarkStudyReport
// times one engine run and prints every table and figure its report
// holds, and one benchmark per remaining figure draws it from the
// records. Each line puts the regenerated headline numbers next to the
// paper's values (marked "paper:"), so `go test -bench=.` produces a
// full reproduction report, recorded in EXPERIMENTS.md.
//
// The shared scene is built once: 1200 cars over the full 90-day
// window on the default 60 km world, seed 1.
package cellcars_test

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"cellcars"
	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/load"
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
		records, _ := scene.GenerateAll()
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

// BenchmarkStudyReport regenerates every table and figure the engine
// computes from one report: one Engine.Run over the scene's raw
// records, ghosts and all, with the Figure 11 busy cells, rare days 10
// and 30 and seed 1 — the run caranalyze makes. Paper values:
//   - Figure 2: ~76% of cars and ~66% of cells per day, weekend dips,
//     slow upward trend with tiny R² (0.033 cars / 0.001 cells);
//   - Table 1: Mon-Thu 78-80% cars, Sat 70.3%, Sun 67.4%, overall 76.0%;
//   - Figure 3: mean 8% full / 4% truncated of the study period, p99.5
//     27% / 15%;
//   - Figure 6: sharp drop-off below 10 days, rising trend past 30, most
//     cars near 90;
//   - Table 2: rare(≤10) 2.2% / common 97.8%, rare(≤30) 9.9% / common
//     90.1%, busy column small (0.4-1.3%);
//   - Figure 7: ~2.4% of cars spend >50% of connected time on busy
//     radios, ~1% spend ~all of it;
//   - Figure 9: median 105 s, 73rd percentile at 600 s, mean 625 s full
//     / 238 s truncated;
//   - Figure 11: k-means (k=2) over busy-cell concurrency vectors,
//     cluster 2 ~5× the concurrency of cluster 1, cluster 1 ~4× more
//     cells;
//   - §4.5: median 2, p70 4, p90 9 handovers per mobility session,
//     inter-BS dominant;
//   - Table 3: cars-ever 98.7/89.2/98.7/80.8/0.006 %, time
//     18.6/7.4/51.9/22.1/0.0 %.
//
// After the timed runs it sweeps the busy-cell threshold (paper: 80%),
// one untimed run per setting, and reports the >50%-busy car share at
// each.
func BenchmarkStudyReport(b *testing.B) {
	scene, records, _, ctx := benchScene(b)
	busy := scene.Load.VeryBusyCells()
	e := analysis.NewEngine(ctx, analysis.EngineOptions{RunOptions: analysis.RunOptions{BusyCells: busy}})
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = e.Run(records); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	p := rep.Presence
	reportOnce("Figure 2",
		fmt.Sprintf("cars/day %.1f%% (paper 76.0%%), cells/day %.1f%% (paper 65.8%%), trends R²=%.3f/%.3f (paper 0.033/0.001)",
			mean(p.CarsFrac)*100, mean(p.CellsFrac)*100, p.CarsTrend.R2, p.CellsTrend.R2))
	rows := rep.WeekdayRows
	reportOnce("Table 1",
		fmt.Sprintf("cars Mon %.1f%% Fri %.1f%% Sat %.1f%% Sun %.1f%% overall %.1f%% (paper 78.1/78.0/70.3/67.4/76.0)",
			rows[0].CarsMean*100, rows[4].CarsMean*100, rows[5].CarsMean*100,
			rows[6].CarsMean*100, rows[7].CarsMean*100))
	ct := rep.Connected
	reportOnce("Figure 3",
		fmt.Sprintf("mean full %.1f%% / trunc %.1f%% (paper 8/4); p99.5 %.1f%%/%.1f%% (paper 27/15)",
			ct.FullMean*100, ct.TruncMean*100, ct.FullP995*100, ct.TruncP995*100))
	var low10, upTo30, over60 int64
	for d, c := range rep.DaysHist.Counts {
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
	reportOnce("Figure 6",
		fmt.Sprintf("cars on <10 days: %d, 10-29 days: %d, 60+ days: %d of %d (paper: drop below 10, rise past 30)",
			low10, upTo30, over60, benchCars))
	segs := rep.Segments
	reportOnce("Table 2",
		fmt.Sprintf("rare≤10 %.1f%% (paper 2.2), rare≤30 %.1f%% (paper 9.9), busy %.1f%% (paper 1.7), both %.1f%% (paper 38.4)",
			segs[0].RareTotal()*100, segs[1].RareTotal()*100,
			(segs[0].RareBusy+segs[0].CommonBusy)*100,
			(segs[0].RareBoth+segs[0].CommonBoth)*100))
	bt := rep.Busy
	reportOnce("Figure 7",
		fmt.Sprintf("median busy share %.1f%%, >50%% busy: %.2f%% of cars (paper 2.4), ~100%%: %.2f%% (paper ~1)",
			bt.Deciles[5]*100, bt.OverHalf*100, bt.AllBusy*100))
	cd := rep.Durations
	reportOnce("Figure 9",
		fmt.Sprintf("median %.0f s (paper 105), p73 %.0f s (paper 600), mean full %.0f s (paper 625) / trunc %.0f s (paper 238)",
			cd.Median, cd.P73, cd.FullMean, cd.TruncMean))
	cl := rep.Clusters
	if len(cl.Sizes) == 2 {
		sizeRatio := 0.0
		if cl.Sizes[1] > 0 {
			sizeRatio = float64(cl.Sizes[0]) / float64(cl.Sizes[1])
		}
		reportOnce("Figure 11",
			fmt.Sprintf("%d busy cells → clusters %v (size ratio %.1fx, paper 4x), peak ratio %.1fx (paper ~5x)",
				len(busy), cl.Sizes, sizeRatio, cl.PeakRatio()))
	}
	hs := rep.Handovers
	reportOnce("Sec 4.5",
		fmt.Sprintf("handovers median %.0f p70 %.0f p90 %.0f (paper 2/4/9), inter-BS %.1f%% (paper: dominant)",
			hs.Median, hs.P70, hs.P90, hs.InterBSShare()*100))
	u := rep.Carriers
	reportOnce("Table 3",
		fmt.Sprintf("cars%% C1-C5: %.1f/%.1f/%.1f/%.1f/%.3f (paper 98.7/89.2/98.7/80.8/0.006); time%%: %.1f/%.1f/%.1f/%.1f/%.3f (paper 18.6/7.4/51.9/22.1/0)",
			u.CarsFrac[radio.C1]*100, u.CarsFrac[radio.C2]*100, u.CarsFrac[radio.C3]*100,
			u.CarsFrac[radio.C4]*100, u.CarsFrac[radio.C5]*100,
			u.TimeFrac[radio.C1]*100, u.TimeFrac[radio.C2]*100, u.TimeFrac[radio.C3]*100,
			u.TimeFrac[radio.C4]*100, u.TimeFrac[radio.C5]*100))

	thresholds := []float64{0.7, 0.8, 0.9}
	overHalf := make([]float64, len(thresholds))
	for ti, th := range thresholds {
		sweep := analysis.Context{Period: ctx.Period, Load: thresholdSource{scene.Load, th}}
		r, err := analysis.NewEngine(sweep, analysis.EngineOptions{}).Run(records)
		if err != nil {
			b.Fatal(err)
		}
		overHalf[ti] = r.Busy.OverHalf
	}
	reportOnce("Ablation busy threshold",
		fmt.Sprintf("cars >50%% busy at 70/80/90%% thresholds: %.2f%%/%.2f%%/%.2f%% (paper uses 80%%)",
			overHalf[0]*100, overHalf[1]*100, overHalf[2]*100))
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
		records, _ := scene.GenerateAll()
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

// thresholdSource overrides a load source's busy threshold.
type thresholdSource struct {
	load.Source
	threshold float64
}

func (t thresholdSource) BusyThreshold() float64 { return t.threshold }
