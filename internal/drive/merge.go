package drive

import (
	"fmt"
	"path/filepath"
	"time"

	"cellcars/internal/analysis"
)

// mergeDone folds the completed shards' snapshots in shard order (so a
// degraded run's report is reproducible), holding at most the
// accumulating state plus one incoming partial in memory. Overlap is
// never allowed: car-disjoint shards are the exactness contract, and a
// violation here means a coordinator bug, not dirty data.
func (c *Coordinator) mergeDone() (*analysis.Partial, error) {
	t0 := time.Now()
	c.met.mergeInputs.Add(int64(c.count(shardDone)))
	var merged *analysis.Partial
	for _, s := range c.shards {
		if s.state != shardDone {
			continue
		}
		p, err := analysis.ReadPartialFile(s.final)
		if err != nil {
			return nil, fmt.Errorf("drive: merge read %s: %w", filepath.Base(s.final), err)
		}
		if merged == nil {
			merged = p
		} else if err := merged.Merge(p, false); err != nil {
			return nil, fmt.Errorf("drive: merge %s: %w", filepath.Base(s.final), err)
		}
	}
	c.cfg.Trace.Emit("merge", time.Since(t0), merged.Records())
	c.log.Info("merged", "shards", c.count(shardDone), "seconds", time.Since(t0).Seconds())
	return merged, nil
}
