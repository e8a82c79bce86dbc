package analysis

// PanicOnMerge makes the named stage of every set built or restored
// until undo panic in its Merge: a bug in one stage's merge, for tests
// that watch what a server does with it.
func PanicOnMerge(stage string) (undo func()) {
	i := stageIndex(stage)
	build := stageTable[i].build
	stageTable[i].build = func(ctx Context, opts EngineOptions, cars *carTable) Accumulator {
		return panicMerge{build(ctx, opts, cars)}
	}
	return func() { stageTable[i].build = build }
}
