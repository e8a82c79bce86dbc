package analysis

import (
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
)

// The oracles below are the record-slice rules the exhibit picker
// replaced, as they were: they see every admitted record at once.

// busiestCellDay scans the stream for the (cell, day) pair with the
// most distinct cars — a good Figure 8 exhibit. Returns the zero cell
// on an empty stream.
func busiestCellDay(records []cdr.Record, ctx Context) (radio.CellKey, int) {
	type key struct {
		cell radio.CellKey
		day  int
	}
	counts := make(map[key]map[cdr.CarID]struct{})
	forEachRecord(records, func(r cdr.Record) {
		day := ctx.Period.DayIndex(r.Start)
		if day < 0 {
			return
		}
		k := key{r.Cell, day}
		set, ok := counts[k]
		if !ok {
			set = make(map[cdr.CarID]struct{})
			counts[k] = set
		}
		set[r.Car] = struct{}{}
	})
	var bestK key
	best := 0
	for k, set := range counts {
		if len(set) > best || (len(set) == best && (k.cell < bestK.cell || (k.cell == bestK.cell && k.day < bestK.day))) {
			best, bestK = len(set), k
		}
	}
	return bestK.cell, bestK.day
}

// sampleCars picks n distinct car ids, deterministically: lowest ids
// first, preferring cars with more than 50 records so the matrices
// show texture.
func sampleCars(records []cdr.Record, n int) []cdr.CarID {
	seen := map[cdr.CarID]int{}
	for _, r := range records {
		seen[r.Car]++
	}
	ids := make([]cdr.CarID, 0, len(seen))
	for car := range seen {
		ids = append(ids, car)
	}
	// Stable on the predicate: busy cars in id order, then the rest.
	sort.Slice(ids, func(i, j int) bool {
		if bi, bj := seen[ids[i]] > 50, seen[ids[j]] > 50; bi != bj {
			return bi
		}
		return ids[i] < ids[j]
	})
	return ids[:min(n, len(ids))]
}

// firstCells returns the first n distinct cells of the stream.
func firstCells(records []cdr.Record, n int) []radio.CellKey {
	seen := map[radio.CellKey]struct{}{}
	var out []radio.CellKey
	for _, r := range records {
		if _, ok := seen[r.Cell]; !ok {
			seen[r.Cell] = struct{}{}
			if out = append(out, r.Cell); len(out) == n {
				break
			}
		}
	}
	return out
}

// sliceOpener opens records for a read and counts the reads.
func sliceOpener(records []cdr.Record, reads *int) func() (cdr.Reader, error) {
	return func() (cdr.Reader, error) {
		*reads++
		return cdr.NewSliceReader(records), nil
	}
}

// pickExhibits shows a picker the records in batches of random sizes,
// as a dispatcher's reads would, and draws the exhibits from a second
// read of the same slice.
func pickExhibits(tb testing.TB, ctx Context, records []cdr.Record, rng *rand.Rand, cells []radio.CellKey) (*Exhibits, int) {
	tb.Helper()
	p := NewExhibitPicker(ctx.Period)
	for rest := records; len(rest) > 0; {
		n := min(len(rest), 1+rng.IntN(600))
		p.Add(rest[:n])
		rest = rest[n:]
	}
	reads := 0
	x, err := p.Exhibits(sliceOpener(records, &reads), cells)
	if err != nil {
		tb.Fatal(err)
	}
	return x, reads
}

// exhibitFleet is a small fleet where the picker's rules have ties to
// break: a car per byte of fleet, with byte%64 admitted records (so
// exactly 50 and 51 are reachable) over three cells and four days, plus
// ghosts and starts outside the period, shuffled or in start order.
func exhibitFleet(seed uint64, fleet []byte, shuffle bool) (Context, []cdr.Record, *rand.Rand) {
	ctx := Context{Period: simtime.NewPeriod(t0, 4)}
	rng := rand.New(rand.NewPCG(seed, 9))
	ids := rng.Perm(16)
	span := int64(ctx.Period.Duration() / time.Second)
	var records []cdr.Record
	add := func(car cdr.CarID, startSec int64, dur time.Duration) {
		records = append(records, rec(car, cell(radio.BSID(1+rng.IntN(3))), time.Duration(startSec)*time.Second, dur))
	}
	// An odd seed puts the ids across the dense car table's end.
	base := cdr.CarID(seed%2) * (denseCars - 8)
	for i, b := range fleet[:min(len(fleet), len(ids))] {
		car := base + cdr.CarID(ids[i])
		for range int(b % 64) {
			add(car, rng.Int64N(span), time.Duration(1+rng.IntN(3599))*time.Second)
		}
		for range rng.IntN(3) {
			add(car, rng.Int64N(span), clean.GhostDuration)
		}
		for range rng.IntN(3) {
			add(car, span+rng.Int64N(3*86400), time.Minute)
			add(car, -1-rng.Int64N(3*86400), time.Minute)
		}
	}
	if shuffle {
		rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	} else {
		cdr.Sort(records)
	}
	return ctx, records, rng
}

// FuzzExhibitsMatchOracle holds the picker and its collect pass to the
// oracles over every admitted record: the same sample cars, cell-day
// and first cells, and every admitted record of those cars and of the
// chosen and extra cells, in input order — on start-ordered input in
// one extra read, on shuffled input in two.
func FuzzExhibitsMatchOracle(f *testing.F) {
	f.Add(uint64(1), []byte{50, 51, 1, 60}, false)
	f.Add(uint64(2), []byte{50, 51, 1, 60}, true)
	f.Add(uint64(3), []byte{3, 3, 3, 3, 3}, false)
	f.Add(uint64(4), []byte{2, 2, 2, 2, 2, 2}, true)
	f.Add(uint64(5), []byte{}, false)
	f.Fuzz(func(t *testing.T, seed uint64, fleet []byte, shuffle bool) {
		ctx, records, rng := exhibitFleet(seed, fleet, shuffle)
		admitted := slices.DeleteFunc(slices.Clone(records), func(r cdr.Record) bool { return !Admits(ctx.Period, r) })
		extra := []radio.CellKey{cell(radio.BSID(1 + seed%4))}

		x, reads := pickExhibits(t, ctx, records, rng, extra)
		cellWant, dayWant := busiestCellDay(admitted, ctx)
		carsWant := sampleCars(admitted, 3)
		if x.Cell != cellWant || x.Day != dayWant {
			t.Errorf("cell-day %v/%d, oracle %v/%d", x.Cell, x.Day, cellWant, dayWant)
		}
		if !slices.Equal(x.Cars, carsWant) {
			t.Errorf("sample cars %v, oracle %v", x.Cars, carsWant)
		}
		if want := firstCells(admitted, 2); !slices.Equal(x.FirstCells, want) {
			t.Errorf("first cells %v, oracle %v", x.FirstCells, want)
		}
		want := slices.DeleteFunc(admitted, func(r cdr.Record) bool {
			return r.Cell != cellWant && !slices.Contains(carsWant, r.Car) && !slices.Contains(extra, r.Cell)
		})
		if !slices.Equal(x.Records, want) {
			t.Errorf("kept %d records, want %d", len(x.Records), len(want))
		}
		if !shuffle && reads != 1 {
			t.Errorf("start-ordered input read %d more times, want once", reads)
		}
	})
}

// TestExhibitPickerRecountsOnlyWhenDaysGoBackwards: a car whose records
// go back a study day costs one more read, a start-ordered input never
// does, and the recount draws what the oracle draws. Cell 1's day 1 and
// cell 2's day 0 both hold two cars, so the lower cell wins; counting
// car 1's return to cell 2's day 0 as a third car would pick cell 2.
func TestExhibitPickerRecountsOnlyWhenDaysGoBackwards(t *testing.T) {
	ctx := testCtx()
	ordered := []cdr.Record{
		rec(3, cell(2), time.Hour, time.Minute),
		rec(1, cell(2), 2*time.Hour, time.Minute),
		rec(1, cell(1), 25*time.Hour, time.Minute),
		rec(2, cell(1), 26*time.Hour, time.Minute),
	}
	backwards := append(slices.Clone(ordered), rec(1, cell(2), 3*time.Hour, time.Minute))
	for _, tc := range []struct {
		name    string
		records []cdr.Record
		reads   int
	}{{"ordered", ordered, 1}, {"backwards", backwards, 2}} {
		rng := rand.New(rand.NewPCG(1, 2))
		x, reads := pickExhibits(t, ctx, tc.records, rng, nil)
		if reads != tc.reads {
			t.Errorf("%s: %d reads, want %d", tc.name, reads, tc.reads)
		}
		if x.Cell != cell(1) || x.Day != 1 {
			t.Errorf("%s: cell-day %v/%d, want %v/1", tc.name, x.Cell, x.Day, cell(1))
		}
		if c, d := busiestCellDay(tc.records, ctx); c != cell(1) || d != 1 {
			t.Fatalf("%s: oracle picks %v/%d", tc.name, c, d)
		}
	}
}

// TestExhibitsStopAtAReadError: an error from a read ends the draw and
// is returned, not taken for the end of the input.
func TestExhibitsStopAtAReadError(t *testing.T) {
	ctx := testCtx()
	p := NewExhibitPicker(ctx.Period)
	records := []cdr.Record{rec(1, cell(1), time.Hour, time.Minute)}
	p.Add(records)
	_, err := p.Exhibits(func() (cdr.Reader, error) {
		return &failingReader{records: records, err: io.ErrUnexpectedEOF}, nil
	}, nil)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want the read's", err)
	}
}

// failingReader returns its records, then err.
type failingReader struct {
	records []cdr.Record
	err     error
}

func (r *failingReader) Read() (cdr.Record, error) {
	if len(r.records) == 0 {
		return cdr.Record{}, r.err
	}
	rec := r.records[0]
	r.records = r.records[1:]
	return rec, nil
}

// BenchmarkExhibits is default mode's exhibit work on the benchmark's
// fleet: the pick beside the engine's read and the collect pass after
// it, in ns and allocations per record of the input.
func BenchmarkExhibits(b *testing.B) {
	period, records := benchFleet(b)
	open := func() (cdr.Reader, error) { return cdr.NewSliceReader(records), nil }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewExhibitPicker(period)
		for rest := records; len(rest) > 0; rest = rest[min(len(rest), engineDispatchBatch):] {
			p.Add(rest[:min(len(rest), engineDispatchBatch)])
		}
		if _, err := p.Exhibits(open, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(len(records))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/rec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/rec")
}
