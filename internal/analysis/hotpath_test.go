package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
	"cellcars/internal/synth"
)

// benchFleet is the benchmark's main fleet: 1 600 generated cars over
// 14 days, about 320 k records in stream order.
func benchFleet(tb testing.TB) (simtime.Period, []cdr.Record) {
	cfg := synth.DefaultConfig(1600)
	cfg.Period = simtime.NewPeriod(t0, 14)
	records, _ := synth.NewWorld(cfg).GenerateAll()
	return cfg.Period, records
}

// benchLoad is a load context for the benchmark fleet: every fifth cell
// it uses is busy (fixedLoad), so the load-dependent stages have cars of
// every kind.
func benchLoad(period simtime.Period, records []cdr.Record) Context {
	busy := make(map[radio.CellKey]bool)
	for _, r := range records {
		if r.Cell%5 == 0 {
			busy[r.Cell] = true
		}
	}
	return Context{Period: period, Load: &fixedLoad{busy: busy}}
}

// TestWarmAddPathAllocatesLittle: a Streaming that has seen twelve days
// of the generated fleet takes another at under 0.2 allocations per
// record (1.75 before sessions and their spans were recycled). What is
// left is cars and cells seen for the first time, duration-sample
// growth and sessions longer than the last pooled capacity class.
func TestWarmAddPathAllocatesLittle(t *testing.T) {
	period, records := benchFleet(t)
	// from returns the index of the first record on or after a day.
	from := func(day int) int {
		start := period.DayStart(day)
		for i, r := range records {
			if !r.Start.Before(start) {
				return i
			}
		}
		return len(records)
	}
	last := period.Days() - 1
	// AllocsPerRun calls the function once to warm up and once to
	// measure: the calls take the last two days in turn.
	passes := [][]cdr.Record{records[from(last-1):from(last)], records[from(last):]}
	measured := passes[1]
	if len(measured) < 5000 {
		t.Fatalf("last day holds %d records; the fleet changed shape", len(measured))
	}
	s := NewStreamingWithOptions(Context{Period: period}, RunOptions{})
	for _, r := range records[:from(last-1)] {
		s.Add(r)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for _, r := range passes[0] {
			s.Add(r)
		}
		passes = passes[1:]
	})
	per := allocs / float64(len(measured))
	t.Logf("%.3f allocations per record over %d records", per, len(measured))
	if per > 0.2 {
		t.Fatalf("warm Add path allocates %.3f objects per record over %d records, want ≤ 0.2", per, len(measured))
	}
}

// TestEngineCutsEveryThousandAcrossWorkers drives the dispatcher's
// batch recycling as hard as it goes: four workers, and a barrier every
// 1 000 records that flushes every shard's part-filled batch, so
// batches come back and go out again all through the run. Under -race
// a batch handed back while a worker still read it is a reported race;
// in any build the report must be the single worker's.
func TestEngineCutsEveryThousandAcrossWorkers(t *testing.T) {
	ctx := engineCtx()
	opts := RunOptions{BusyCells: engineBusyCells()}
	records := engineWorkload(30000)
	want, err := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: 1}).Run(records)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CheckpointConfig{Path: filepath.Join(t.TempDir(), "cuts.snap"), Every: 1000}
	got, err := NewEngine(ctx, EngineOptions{RunOptions: opts, Workers: 4}).
		RunReaderCheckpointed(cdr.NewSliceReader(records), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("four workers cutting every 1 000 records report differently from one worker")
	}
}

// referenceCarriersSnapshot encodes Table 3 state the way the stage
// kept it before the membership mask: a car set per carrier.
func referenceCarriersSnapshot(records []cdr.Record) []byte {
	carsOn := make(map[radio.CarrierID]map[cdr.CarID]struct{})
	timeOn := make(map[radio.CarrierID]time.Duration)
	for _, r := range records {
		c := r.Cell.Carrier()
		if carsOn[c] == nil {
			carsOn[c] = make(map[cdr.CarID]struct{})
		}
		carsOn[c][r.Car] = struct{}{}
		timeOn[c] += r.Duration
	}
	var buf bytes.Buffer
	e := snapshot.NewEncoder(&buf)
	e.Uvarint(uint64(len(carsOn)))
	for _, carrier := range sortedKeys(carsOn) {
		e.Uvarint(uint64(carrier))
		e.Varint(int64(timeOn[carrier]))
		e.Uvarint(uint64(len(carsOn[carrier])))
		for _, car := range sortedKeys(carsOn[carrier]) {
			e.Uvarint(uint64(car))
		}
	}
	return buf.Bytes()
}

// TestCarriersMaskKeepsTheWireForm: the membership mask writes the
// bytes the per-carrier car sets wrote, restores from them to the same
// report, and refuses every malformed variant of them.
func TestCarriersMaskKeepsTheWireForm(t *testing.T) {
	on := func(car cdr.CarID, c radio.CarrierID, sec int) cdr.Record {
		return cdr.Record{Car: car, Cell: radio.MakeCellKey(5, 1, c), Start: t0, Duration: time.Duration(sec) * time.Second}
	}
	for name, records := range map[string][]cdr.Record{
		"empty":       nil,
		"one carrier": {on(9, radio.C4, 30), on(2, radio.C4, 0)},
		"gaps":        {on(7, radio.C5, 10), on(7, radio.C1, 20), on(300, radio.C5, 5), on(1, radio.C3, 0)},
		"fleet":       cleanAccepted(engineCtx(), engineWorkload(5000)),
	} {
		a := feed(records, simtime.Period{}, newCarriersAcc)
		var got bytes.Buffer
		if err := a.SnapshotTo(&got); err != nil {
			t.Fatal(err)
		}
		want := referenceCarriersSnapshot(records)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: mask form encodes %d bytes, car-set form %d, or they differ", name, got.Len(), len(want))
		}
		b := newCarriersAcc(new(carTable))
		if err := b.RestoreFrom(bytes.NewReader(want)); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		var again bytes.Buffer
		if err := b.SnapshotTo(&again); err != nil {
			t.Fatal(err)
		}
		repA, repB := &Report{}, &Report{}
		a.Finalize(repA)
		b.Finalize(repB)
		if !reflect.DeepEqual(repA, repB) || !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("%s: restored carriers state differs:\n%+v\nvs\n%+v", name, repA, repB)
		}
	}

	encode := func(fn func(e *snapshot.Encoder)) []byte {
		var buf bytes.Buffer
		fn(snapshot.NewEncoder(&buf))
		return buf.Bytes()
	}
	carrier := func(e *snapshot.Encoder, c radio.CarrierID, dur int64, cars ...uint64) {
		e.Uvarint(uint64(c))
		e.Varint(dur)
		e.Uvarint(uint64(len(cars)))
		for _, car := range cars {
			e.Uvarint(car)
		}
	}
	for name, data := range map[string][]byte{
		"duplicate carrier": encode(func(e *snapshot.Encoder) {
			e.Uvarint(2)
			carrier(e, radio.C2, 5, 1)
			carrier(e, radio.C2, 5, 2)
		}),
		"duplicate car within a carrier": encode(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			carrier(e, radio.C3, 5, 4, 8, 4)
		}),
		"carrier zero": encode(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			carrier(e, 0, 5, 1)
		}),
		"carrier six": encode(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			carrier(e, radio.C5+1, 5, 1)
		}),
		"negative time": encode(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			carrier(e, radio.C1, -1, 1)
		}),
		"carrier without cars": encode(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			carrier(e, radio.C1, 5)
		}),
		"more carriers than exist": encode(func(e *snapshot.Encoder) { e.Uvarint(radio.NumCarriers + 1) }),
		"truncated": encode(func(e *snapshot.Encoder) {
			e.Uvarint(1)
			e.Uvarint(uint64(radio.C1))
			e.Varint(5)
			e.Uvarint(3)
			e.Uvarint(1)
		}),
	} {
		if err := newCarriersAcc(new(carTable)).RestoreFrom(bytes.NewReader(data)); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s: restore returned %v, want ErrBadSnapshot", name, err)
		}
	}
	// The same car on two carriers is not a duplicate.
	ok := encode(func(e *snapshot.Encoder) {
		e.Uvarint(2)
		carrier(e, radio.C1, 5, 4)
		carrier(e, radio.C4, 0, 4)
	})
	if err := newCarriersAcc(new(carTable)).RestoreFrom(bytes.NewReader(ok)); err != nil {
		t.Errorf("one car on two carriers refused: %v", err)
	}
}

// at is a one-minute record for car on base station bs, min minutes
// into the period.
func at(car cdr.CarID, bs radio.BSID, min int) cdr.Record {
	return cdr.Record{Car: car, Cell: radio.MakeCellKey(bs, 0, radio.C3), Start: t0.Add(time.Duration(min) * time.Minute), Duration: time.Minute}
}

// TestHandoverKindsWithoutHandoversAreNotStored: the handovers payload
// writes its by-kind tally sparsely, so a kind no session has shown gets
// no entry — a fleet that never changes sector writes no inter-sector
// pair — and nor does the report.
func TestHandoverKindsWithoutHandoversAreNotStored(t *testing.T) {
	a := feed([]cdr.Record{
		at(1, 1, 0), at(1, 1, 2), at(1, 1, 60), // no handover, then a close
		at(2, 1, 0), at(2, 2, 2), at(2, 3, 4), at(2, 3, 90), // two inter-BS, then a close
	}, simtime.Period{}, newHandoverAcc)
	var kinds bytes.Buffer
	encodeTally(snapshot.NewEncoder(&kinds), a.byKind)
	if want := []byte{1, byte(radio.HandoverInterBS), 2}; !bytes.Equal(kinds.Bytes(), want) {
		t.Fatalf("by-kind tally %v encodes to %v, want %v: the one inter-BS pair", a.byKind, kinds.Bytes(), want)
	}
	if want := (tally{1, 0, 1}); !slices.Equal(a.perSession, want) {
		t.Fatalf("sessions by handovers = %v, want %v", a.perSession, want)
	}
	rep := &Report{}
	a.Finalize(rep)
	if rep.Handovers.Sessions != 4 || len(rep.Handovers.ByKind) != 1 {
		t.Fatalf("finalized %d sessions, kinds %v; want 4 sessions (two still open), one kind", rep.Handovers.Sessions, rep.Handovers.ByKind)
	}
	if a.byKind.sum() != 2 || a.perSession.sum() != 2 || a.open.n != 2 {
		t.Fatal("Finalize changed the accumulator")
	}
}

// TestStashedHeadSurvivesRecycling: with head tracking a car's first
// closed session is stashed, not accounted, and so must keep its span
// array — the car's next session, built in it, would overwrite it.
func TestStashedHeadSurvivesRecycling(t *testing.T) {
	var cars carTable
	a := newHandoverAcc(&cars)
	a.setTrackHeads(true)
	add := func(r cdr.Record) { addRecords(a, &cars, simtime.Period{}, r) }
	add(at(1, 1, 0))
	add(at(1, 2, 2))
	add(at(1, 3, 60)) // closes car 1's head: bs 1 → 2
	head, _ := a.heads.get(cars.idx[1])
	if len(head.spans) != 2 {
		t.Fatalf("head of car 1: %+v", head)
	}
	want := mobility{start: head.start, end: head.end, spans: slices.Clone(head.spans)}
	for car := cdr.CarID(2); car < 40; car++ { // sessions that open, grow and close after it
		add(at(car, 1, 0))
		add(at(car, 2, 1))
		add(at(car, 3, 2))
		add(at(car, 4, 60))
		add(at(car, 5, 120))
	}
	add(at(1, 9, 120)) // car 1's second session closes and is accounted
	if head, _ := a.heads.get(cars.idx[1]); !reflect.DeepEqual(head, want) {
		t.Fatalf("stashed head changed under recycling:\n%+v\nwant\n%+v", head, want)
	}
}

// BenchmarkEngineRun is one Engine.Run over the benchmark's main fleet —
// the loop that is over 95 % of the batch workload — with one worker,
// with two, and with the count left to the machine (run it under
// `-cpu 1,2`: on one proc auto is the one-worker run); and at one worker
// under benchLoad, where the load-dependent stages run too. Profile it
// with `go test -run '^$' -bench EngineRun/workers=1 -cpuprofile cpu.out
// ./internal/analysis`.
func BenchmarkEngineRun(b *testing.B) {
	period, records := benchFleet(b)
	file := Context{Period: period}
	for _, bc := range []struct {
		name    string
		ctx     Context
		workers int
	}{{"workers=1", file, 1}, {"workers=2", file, 2}, {"workers=auto", file, 0}, {"workers=1,load", benchLoad(period, records), 1}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(bc.ctx, EngineOptions{Workers: bc.workers})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(records); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(records)), "ns/rec")
		})
	}
}

// BenchmarkCheckpointedRun is the checkpoint workload's loop: the same
// fleet through one engine run that cuts 16 times into a file. ms/cut
// is what the cuts add to the plain run timed beside it, a sixteenth
// each, and B/cut what they add to its allocation; stall-ms/cut is the
// part of a cut that keeps ingest waiting, from the barrier going out to
// dispatch resuming (the run's own cellcars_checkpoint_stall_seconds,
// so both runs are observed) — the fsync and rename behind it overlap
// the next records. Per worker count, because a cut writes every
// worker's set and, past the first, each worker encodes its own.
func BenchmarkCheckpointedRun(b *testing.B) {
	period, records := benchFleet(b)
	const cuts = 16
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEngine(Context{Period: period}, EngineOptions{RunOptions: RunOptions{Obs: obs.New()}, Workers: workers})
			cfg := CheckpointConfig{Path: filepath.Join(b.TempDir(), "cut.snap"), Every: int64(len(records) / cuts)}
			var plain, cut time.Duration
			var plainBytes, cutBytes uint64
			var stall float64
			var ms runtime.MemStats
			allocated := func() uint64 {
				runtime.ReadMemStats(&ms)
				return ms.TotalAlloc
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // ns/op is the run that cuts
				a0, t0 := allocated(), time.Now()
				if _, err := e.Run(records); err != nil {
					b.Fatal(err)
				}
				plain += time.Since(t0)
				a1 := allocated()
				t1 := time.Now()
				b.StartTimer()
				rep, err := e.RunReaderCheckpointed(cdr.NewSliceReader(records), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				cut += time.Since(t1)
				plainBytes += a1 - a0
				cutBytes += allocated() - a1
				stall += rep.ProfileCheckpoints.StallSeconds
				b.StartTimer()
			}
			fi, err := os.Stat(cfg.Path)
			if err != nil {
				b.Fatal(err)
			}
			perCut := float64(b.N) * cuts
			b.ReportMetric(float64(cut-plain)/1e6/perCut, "ms/cut")
			b.ReportMetric(stall*1e3/perCut, "stall-ms/cut")
			b.ReportMetric((float64(cutBytes)-float64(plainBytes))/perCut, "B/cut")
			b.ReportMetric(float64(fi.Size()), "bytes/cut")
		})
	}
}
