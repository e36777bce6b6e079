package experiments

import (
	"sort"

	"ivmeps/internal/baseline"
)

// OpsDelayStats summarizes per-tuple enumeration delay measured in engine
// operations (cursor advances + lookups) — a machine-independent proxy for
// the paper's delay metric that is immune to timer noise at sub-µs scales.
type OpsDelayStats struct {
	Tuples int
	Open   int64 // operations spent opening iterators (grounding, cursors)
	Max    int64
	P99    int64
	Mean   float64
}

// measureDelayOps enumerates up to limit tuples and records the engine
// operations consumed per tuple.
func measureDelayOps(sys *baseline.IVMEps, limit int) OpsDelayStats {
	s := sys.Engine().Snapshot()
	defer s.Close()
	it := s.Result()
	defer it.Close()
	open := s.Work()
	var gaps []int64
	last := open
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		now := s.Work()
		gaps = append(gaps, now-last)
		last = now
		if limit > 0 && len(gaps) >= limit {
			break
		}
	}
	st := OpsDelayStats{Tuples: len(gaps), Open: open}
	if len(gaps) == 0 {
		return st
	}
	sorted := append([]int64(nil), gaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st.Max = sorted[len(sorted)-1]
	st.P99 = sorted[(len(sorted)*99)/100]
	var total int64
	for _, g := range gaps {
		total += g
	}
	st.Mean = float64(total) / float64(len(gaps))
	return st
}
