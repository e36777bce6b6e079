package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ivmeps"
)

const (
	chunkRows = 512 // rows per timed read chunk, matching the service page
	gapStride = 4   // every gapStride-th per-tuple gap is kept
	maxGaps   = 2_000_000
)

// scanner is the embed workloads' reader: full snapshot scans, each due on
// a fixed schedule. A read is one chunk of chunkRows rows, the first timed
// from the scan's due time (so it includes lateness and snapshot capture);
// per-tuple gaps give the enumeration delay.
type scanner struct {
	chunk, gaps, late []float64
	rows, scans       int
	busy              time.Duration
}

// run scans until end, one scan due every every from start. scan must open
// a snapshot, enumerate it into yield, and close it.
func (s *scanner) run(start, end time.Time, every time.Duration, scan func(yield func([]int64, int64) bool)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if due.After(end) {
			return
		}
		sleepUntil(due)
		t0 := time.Now()
		s.late = append(s.late, ms(t0.Sub(due)))
		prev, last, k := due, t0, 0
		scan(func([]int64, int64) bool {
			now := time.Now()
			if k > 0 && k%gapStride == 0 && len(s.gaps) < maxGaps {
				s.gaps = append(s.gaps, us(now.Sub(last)))
			}
			last = now
			k++
			if k%chunkRows == 0 {
				s.chunk = append(s.chunk, ms(now.Sub(prev)))
				prev = now
			}
			return true
		})
		s.busy += time.Since(t0)
		s.rows += k
		s.scans++
	}
}

// report prints the reader's figures.
func (s *scanner) report(rep *report) {
	rep.timing("read_ms (512-row chunk)", s.chunk, "ms")
	rep.timing("delay_us (per-tuple gap)", s.gaps, "us")
	rep.value("delay_p99_us", pct(s.gaps, 99), "us", fmt.Sprintf("(n=%d sampled gaps)", len(s.gaps)))
	rep.value("enum_rows_per_s", float64(s.rows)/s.busy.Seconds(), "1/s", fmt.Sprintf("(%d scans, %d rows)", s.scans, s.rows))
}

// explainState returns the "state: N = …, M = …, θ = …" line of Explain.
func explainState(e *ivmeps.Engine) string {
	for _, l := range strings.Split(e.Explain(), "\n") {
		if strings.HasPrefix(l, "state:") {
			return strings.TrimPrefix(l, "state: ")
		}
	}
	return "unknown"
}

// embedSetups times setupReps Load+Build set-ups of build and keeps the
// last instance; close releases a discarded one.
func embedSetups[E any](cfg config, rep *report, build func() (E, error), close func(E)) (E, error) {
	var times []float64
	var e E
	for i := range setupReps {
		if i > 0 {
			close(e)
		}
		t0 := time.Now()
		var err error
		if e, err = build(); err != nil {
			return e, err
		}
		times = append(times, time.Since(t0).Seconds())
		if cfg.trace {
			break
		}
	}
	if !cfg.trace {
		rep.endToEnd("setup_s", median(times), "s")
		rep.endToEnd("heap_mb", liveHeapMB(), "MB")
	}
	return e, nil
}

// runEmbedUpdate: the library alone. One goroutine issues single-tuple
// Apply calls closed-loop while N swings across M and hot keys cross θ; a
// second scans snapshots on a fixed schedule.
func runEmbedUpdate(cfg config, rep *report) error {
	q := ivmeps.MustParseQuery(pathQuery)
	g, err := newGen(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	eng, err := embedSetups(cfg, rep, func() (*ivmeps.Engine, error) {
		e, err := ivmeps.New(q, ivmeps.Options{Epsilon: epsilon})
		if err != nil {
			return nil, err
		}
		for _, rel := range sortedRels(g.base) {
			rows := g.base[rel]
			if err := e.Load(rel, rows...); err != nil {
				return nil, err
			}
		}
		return e, e.Build()
	}, func(e *ivmeps.Engine) { e.Close() })
	if err != nil {
		return err
	}
	defer eng.Close()
	rep.meta("state_after_build", explainState(eng))
	rep.meta("rate", "closed-loop single-tuple Apply; one full snapshot scan due every 500ms")
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(cfg.seconds)
	var sc scanner
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.run(start, end, 500*time.Millisecond, func(yield func([]int64, int64) bool) {
			t := time.Now()
			snap, err := eng.Snapshot()
			if tr != nil {
				tr.record("ivmeps.snapshot", t, time.Since(t))
			}
			if err != nil {
				return
			}
			snap.Enumerate(yield)
			snap.Close()
			if tr != nil {
				tr.record("ivmeps.scan", t, time.Since(t))
			}
		})
	}()
	sleepUntil(start)
	// The update figures cover whole N swings only: a swing's share of
	// major rebalances is fixed, while a partial swing at the end would
	// make them depend on where the clock stopped.
	var lat, swingOps, swingSecs []float64
	var busy, swingBusy time.Duration
	swingStart := 0
	for time.Now().Before(end) {
		swings := g.swings
		o := g.next()[0]
		if g.swings != swings {
			swingOps = append(swingOps, float64(len(lat)-swingStart))
			swingSecs = append(swingSecs, (busy - swingBusy).Seconds())
			swingStart, swingBusy = len(lat), busy
		}
		t := time.Now()
		err := eng.Apply(o.rel, o.row, o.mult)
		d := time.Since(t)
		rep.tally(err)
		busy += d
		lat = append(lat, ms(d))
		if tr != nil && len(lat)%64 == 0 {
			tr.record("ivmeps.apply", t, d)
		}
	}
	wg.Wait()
	if swingStart == 0 {
		swingStart, swingOps, swingSecs = len(lat), []float64{float64(len(lat))}, []float64{busy.Seconds()}
	}
	rep.meta("swings", fmt.Sprintf("%d whole N swings, %d of %d updates measured", len(swingOps), swingStart, len(lat)))
	lat = lat[:swingStart]
	var rates []float64
	for i := range swingOps {
		rates = append(rates, swingOps[i]/swingSecs[i])
	}

	st := eng.Stats()
	rep.meta("final_state", explainState(eng))
	rep.meta("rebalances", fmt.Sprintf("minor=%d major=%d over %d updates", st.MinorRebalances, st.MajorRebalances, len(lat)))
	upd := rep.timing("update_ms (Apply)", lat, "ms")
	rep.value("update_ops_per_s", median(rates), "1/s", "(amortized over each whole swing: ops / Apply time; median over swings)")
	rep.value("update_p50_us", upd.P50*1e3, "us", "")
	rep.value("update_p99_us", pct(lat, 99)*1e3, "us", "")
	sc.report(rep)
	latePct := rep.sustainable("scans", sc.late)
	if cfg.trace {
		if err := dumpSpans(cfg, tr); err != nil {
			return err
		}
		rep.layer("bench.late_p99_ms", latePct, "ms")
		if err := runLadder(context.Background(), cfg, rep, pathQuery); err != nil {
			return err
		}
	} else {
		rep.endToEnd("commit_p50_ms", windowed(lat, 50), "ms")
		rep.endToEnd("read_p50_ms", windowed(sc.chunk, 50), "ms")
	}
	snap, err := eng.Snapshot()
	if err != nil {
		return err
	}
	var got checksum
	snap.Enumerate(func(row []int64, m int64) bool { got.add(row, m); return true })
	snap.Close()
	want, err := reference(pathQuery, g.sh)
	if err != nil {
		return err
	}
	rep.check("result = naive(shadow)", got, want)
	return nil
}

// runEmbedSharded: the retail query on a K=2 Sharded engine (one worker
// per shard). One goroutine commits large atomic batches spanning all
// three relations closed-loop; a second scans the gathered snapshot on a
// fixed schedule.
func runEmbedSharded(cfg config, rep *report) error {
	q := ivmeps.MustParseQuery(retailQuery)
	g, err := newGen(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	sh, err := embedSetups(cfg, rep, func() (*ivmeps.Sharded, error) {
		s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Options: ivmeps.Options{Epsilon: epsilon, Workers: 1}, Shards: 2})
		if err != nil {
			return nil, err
		}
		for _, rel := range sortedRels(g.base) {
			rows := g.base[rel]
			if err := s.Load(rel, rows...); err != nil {
				return nil, err
			}
		}
		return s, s.Build()
	}, func(s *ivmeps.Sharded) { s.Close() })
	if err != nil {
		return err
	}
	defer sh.Close()
	rep.meta("shards", "K=2, Workers=1")
	rep.meta("rate", "closed-loop atomic batches of ~500 ops; one full snapshot scan due every 100ms")
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(cfg.seconds)
	var sc scanner
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.run(start, end, 100*time.Millisecond, func(yield func([]int64, int64) bool) {
			t := time.Now()
			snap, err := sh.Snapshot()
			if tr != nil {
				tr.record("sharded.snapshot", t, time.Since(t))
			}
			if err != nil {
				return
			}
			snap.Enumerate(yield)
			snap.Close()
			if tr != nil {
				tr.record("sharded.scan", t, time.Since(t))
			}
		})
	}()
	sleepUntil(start)
	var lat []float64
	var busy time.Duration
	ops := 0
	b := sh.NewBatch()
	for time.Now().Before(end) {
		b.Reset()
		for _, o := range g.next() {
			b.Apply(o.rel, o.row, o.mult)
		}
		t := time.Now()
		err := sh.Commit(b)
		d := time.Since(t)
		rep.tally(err)
		busy += d
		ops += b.Len()
		lat = append(lat, ms(d))
		if tr != nil {
			tr.record("sharded.commit", t, d)
		}
	}
	wg.Wait()

	rep.meta("final_state", fmt.Sprintf("N = %d over 2 shards (M and θ are per shard; the traced run's ladder reports them unsharded)", sh.N()))
	rep.timing("batch_commit_ms", lat, "ms")
	rep.value("batch_rows_per_s", float64(ops)/busy.Seconds(), "1/s", fmt.Sprintf("(%d batches, %d ops)", len(lat), ops))
	sc.report(rep)
	latePct := rep.sustainable("scans", sc.late)
	if cfg.trace {
		if err := dumpSpans(cfg, tr); err != nil {
			return err
		}
		rep.layer("bench.late_p99_ms", latePct, "ms")
		if err := runLadder(context.Background(), cfg, rep, retailQuery); err != nil {
			return err
		}
	} else {
		rep.endToEnd("commit_p50_ms", windowed(lat, 50), "ms")
		rep.endToEnd("read_p50_ms", windowed(sc.chunk, 50), "ms")
	}
	snap, err := sh.Snapshot()
	if err != nil {
		return err
	}
	var got checksum
	snap.Enumerate(func(row []int64, m int64) bool { got.add(row, m); return true })
	snap.Close()
	want, err := reference(retailQuery, g.sh)
	if err != nil {
		return err
	}
	rep.check("result = naive(shadow)", got, want)
	return nil
}
