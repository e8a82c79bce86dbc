package cdr

import "fmt"

// This file implements car-hash sharding: assigning every record of
// one car to the same one of n shards, as a pure function of the car
// id. Car-disjoint shards are what make the analysis accumulators
// mergeable by simple union — no car's state is ever split across
// workers. The splitting itself lives with its callers: the analysis
// engine's dispatcher (workers in one process) and OpenShard's readers
// (one cardrive worker process per shard), which also say who owns a
// row that names no car.

// shardKey keys the car hash used for shard assignment. It is fixed
// (not configurable) so a car's shard is stable across runs, files and
// processes — required for deterministic parallel analysis.
const shardKey = 0xCE11CA25

// ShardOfCar returns the shard index in [0, n) for a car. It panics on
// a non-positive n.
func ShardOfCar(car CarID, n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("cdr: shard count %d must be positive", n))
	}
	if n == 1 {
		return 0
	}
	return int(carHash(uint64(car), shardKey) % uint64(n))
}

// carHash is a SplitMix64-style keyed hash.
func carHash(id, key uint64) uint64 {
	x := id*0x9E3779B97F4A7C15 ^ key
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
