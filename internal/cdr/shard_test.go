package cdr

import (
	"testing"
	"time"

	"cellcars/internal/radio"
)

func shardRec(car CarID, i int) Record {
	return Record{
		Car:      car,
		Cell:     radio.MakeCellKey(radio.BSID(i%13), 0, radio.C1),
		Start:    time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Duration: time.Duration(10+i%50) * time.Second,
	}
}

func TestShardOfCarStableAndBounded(t *testing.T) {
	for car := CarID(0); car < 1000; car++ {
		s := ShardOfCar(car, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("car %d shard %d out of range", car, s)
		}
		if s != ShardOfCar(car, 8) {
			t.Fatalf("car %d shard unstable", car)
		}
	}
	if ShardOfCar(123, 1) != 0 {
		t.Fatal("single shard must be 0")
	}
}

// TestShardFilterPartition: filtering a stream by ShardOfCar — how a
// cardrive worker took its shard before OpenShard, and still the
// reference for it — yields car-disjoint shards that keep the source
// order and together cover every record once.
func TestShardFilterPartition(t *testing.T) {
	var records []Record
	for i := 0; i < 2000; i++ {
		records = append(records, shardRec(CarID(i%97), i))
	}
	total := 0
	for si := 0; si < 8; si++ {
		si := si
		shard, err := ReadAll(FilterFunc(NewSliceReader(records), func(r Record) bool {
			return ShardOfCar(r.Car, 8) == si
		}))
		if err != nil {
			t.Fatal(err)
		}
		total += len(shard)
		for i, r := range shard {
			if ShardOfCar(r.Car, 8) != si {
				t.Fatalf("car %d in wrong shard %d", r.Car, si)
			}
			if i > 0 && shard[i-1].Start.After(r.Start) {
				// Source was time-ordered per construction index, so
				// shards must be too.
				t.Fatalf("shard %d order broken at %d", si, i)
			}
		}
	}
	if total != len(records) {
		t.Fatalf("shards cover %d of %d records", total, len(records))
	}
}
