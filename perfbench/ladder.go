package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ivmeps"
	"ivmeps/internal/core"
	"ivmeps/internal/query"
	"ivmeps/internal/server"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// The layer ladder replays one recorded op stream — the first commits the
// workload's generator emits for the seed — closed-loop and single-threaded
// at each layer in turn:
//
//	core (CommitBatch) → ivmeps (Commit) → +wal → +watch → server (handler,
//	in-process) → client (loopback HTTP, remote watch)
//
// plus per-tuple rungs (core.Update, ivmeps.Apply) and federation rungs
// (Sharded with K=2 and K=1). Every rung starts from the same base, so a
// layer's cost is its rung minus the rung below, and exact counts repeat
// for a seed.
var ladderPrefix = map[string]struct{ ops, group int }{
	"svc-write":     {4800, 0}, // group 0: the workload's own commits
	"svc-read":      {3200, 0},
	"embed-update":  {28000, 32}, // one full N swing: both major rebalances
	"embed-sharded": {30000, 0},  // twelve bulk-order periods
}

type ladder struct {
	q       *ivmeps.Query
	qq      *query.Query
	text    string
	base    map[string][][]int64
	commits [][]op
	ops     int
	want    checksum // naive result after the prefix
}

func newLadder(cfg config, text string) (*ladder, error) {
	g, err := newGen(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	l := &ladder{q: ivmeps.MustParseQuery(text), text: text, base: g.base}
	if l.qq, err = query.Parse(text); err != nil {
		return nil, err
	}
	p := ladderPrefix[cfg.workload]
	var cur []op
	for l.ops < p.ops {
		next := g.next()
		if p.group == 0 {
			if len(next) > 0 {
				l.commits = append(l.commits, next)
			}
			l.ops += len(next)
			continue
		}
		cur = append(cur, next...)
		l.ops += len(next)
		if len(cur) >= p.group {
			l.commits = append(l.commits, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		l.commits = append(l.commits, cur)
	}
	if l.want, err = reference(text, g.sh); err != nil {
		return nil, err
	}
	return l, nil
}

// load builds an ivmeps engine over the base.
func (l *ladder) load(opts ivmeps.Options) (*ivmeps.Engine, error) {
	opts.Epsilon, opts.Workers = epsilon, 1
	e, err := ivmeps.New(l.q, opts)
	if err != nil {
		return nil, err
	}
	for _, rel := range sortedRels(l.base) {
		rows := l.base[rel]
		if err := e.Load(rel, rows...); err != nil {
			e.Close()
			return nil, err
		}
	}
	if err := e.Build(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// coreEngine preprocesses a core engine over the base, timing Preprocess.
func (l *ladder) coreEngine() (*core.Engine, time.Duration, error) {
	e, err := core.New(l.qq, core.Options{Mode: viewtree.Dynamic, Epsilon: epsilon, Workers: 1})
	if err != nil {
		return nil, 0, err
	}
	sh := newShadow()
	for _, rel := range sortedRels(l.base) {
		rows := l.base[rel]
		sh.rels[rel] = &relSet{rows: rows}
	}
	db, err := naiveDB(l.qq, sh)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	err = core.Preprocess(e, db)
	return e, time.Since(t), err
}

func (l *ladder) batch(e *ivmeps.Engine, ops []op) *ivmeps.Batch {
	b := e.NewBatch()
	for _, o := range ops {
		b.Apply(o.rel, o.row, o.mult)
	}
	return b
}

// ivmepsCommits replays every commit on e and returns per-commit µs;
// between commits, before is called untimed.
func (l *ladder) ivmepsCommits(e *ivmeps.Engine, before func(i int)) ([]float64, error) {
	var lat []float64
	for i, c := range l.commits {
		if before != nil {
			before(i)
		}
		b := l.batch(e, c)
		t := time.Now()
		err := e.Commit(b)
		lat = append(lat, us(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("commit %d: %w", i, err)
		}
	}
	return lat, nil
}

// localWatch consumes an in-process watch stream, recording arrivals.
type localWatch struct {
	w       *ivmeps.Watcher
	arrived []time.Time
	rows    int
	n       atomic.Int64
	err     error
	done    chan struct{}
}

func watchLocal(e *ivmeps.Engine) (*localWatch, error) {
	w, err := e.Watch(ivmeps.WatchOptions{Buffer: 1 << 16})
	if err != nil {
		return nil, err
	}
	lw := &localWatch{w: w, done: make(chan struct{})}
	go func() {
		defer close(lw.done)
		for ev, err := range w.Events() {
			if err != nil {
				lw.err = err
				return
			}
			lw.arrived = append(lw.arrived, time.Now())
			for _, d := range ev.Deltas {
				lw.rows += len(d.Rows)
			}
			lw.n.Add(1)
		}
	}()
	return lw, nil
}

// stop waits (bounded) until n events arrived, then closes the stream and
// waits for the consumer to exit.
func (lw *localWatch) stop(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for int(lw.n.Load()) < n && time.Now().Before(deadline) {
		select {
		case <-lw.done:
			deadline = time.Now()
		case <-time.After(time.Millisecond):
		}
	}
	lw.w.Close()
	<-lw.done
	if lw.err != nil {
		return lw.err
	}
	if len(lw.arrived) < n {
		return fmt.Errorf("watcher got %d of %d events", len(lw.arrived), n)
	}
	return nil
}

func runLadder(ctx context.Context, cfg config, rep *report, text string) error {
	l, err := newLadder(cfg, text)
	if err != nil {
		return err
	}
	rep.printf("ladder %d ops in %d commits, replayed closed-loop on one goroutine per rung", l.ops, len(l.commits))
	nOps := float64(l.ops)

	// core: CommitBatch rung, then the final state's enumeration work.
	ce, build, err := l.coreEngine()
	if err != nil {
		return err
	}
	var coreLat []float64
	var ops []core.BatchOp
	for i, c := range l.commits {
		ops = ops[:0]
		for _, o := range c {
			ops = append(ops, core.BatchOp{Rel: o.rel, Row: tuple.Tuple(o.row), Mult: o.mult})
		}
		t := time.Now()
		err := ce.CommitBatch(ops)
		coreLat = append(coreLat, us(time.Since(t)))
		if err != nil {
			ce.Close()
			return fmt.Errorf("core commit %d: %w", i, err)
		}
	}
	cst := ce.Stats()
	rep.meta("ladder_final_state", fmt.Sprintf("N = %d, M = %d, θ = %.1f", ce.N(), ce.ThresholdBase(), ce.Theta()))
	snap := ce.Snapshot()
	var got checksum
	var prev, maxWork int64
	snap.Enumerate(func(t tuple.Tuple, m int64) bool {
		got.add(t, m)
		w := snap.Work()
		maxWork = max(maxWork, w-prev)
		prev = w
		return true
	})
	snap.Close()
	ce.Close()
	rep.check("ladder core = naive(shadow)", got, l.want)
	rep.layer("core.build_s", build.Seconds(), "s")
	rep.layer("core.commit_us", median(coreLat), "us")
	rep.layer("core.view_deltas_per_op", float64(cst.DeltasApplied)/nOps, "count")
	rep.layer("core.work_per_row_mean", float64(prev)/float64(max(got.Rows, 1)), "count")
	rep.layer("core.work_per_row_max", float64(maxWork), "count")

	// core: per-tuple Update rung.
	ue, _, err := l.coreEngine()
	if err != nil {
		return err
	}
	var updLat []float64
	var rebalance time.Duration
	var majorMs float64
	for _, c := range l.commits {
		for _, o := range c {
			before := ue.Stats()
			t := time.Now()
			err := ue.Update(o.rel, tuple.Tuple(o.row), o.mult)
			d := time.Since(t)
			if err != nil {
				ue.Close()
				return fmt.Errorf("core update: %w", err)
			}
			updLat = append(updLat, us(d))
			after := ue.Stats()
			if after.MinorRebalances != before.MinorRebalances || after.MajorRebalances != before.MajorRebalances {
				rebalance += d
			}
			if after.MajorRebalances != before.MajorRebalances {
				majorMs += ms(d)
			}
		}
	}
	ust := ue.Stats()
	ue.Close()
	rep.layer("core.update_p50_us", median(updLat), "us")
	rep.layer("core.update_p99_us", pct(updLat, 99), "us")
	rep.layer("core.work_per_update", float64(ust.DeltasApplied)/nOps, "count")
	rep.layer("core.minor_rebalances", float64(ust.MinorRebalances), "count")
	rep.layer("core.major_rebalances", float64(ust.MajorRebalances), "count")
	rep.layer("core.rebalance_ms", ms(rebalance), "ms")
	rep.value("core.major_rebalance_ms", majorMs, "ms", "")

	// ivmeps: Commit rung, sampling snapshot capture and first-row time
	// before every 8th commit.
	e, err := l.load(ivmeps.Options{})
	if err != nil {
		return err
	}
	var snapUs, firstUs []float64
	ivLat, err := l.ivmepsCommits(e, func(i int) {
		if i%8 != 0 {
			return
		}
		t := time.Now()
		s, err := e.Snapshot()
		if err != nil {
			return
		}
		snapUs = append(snapUs, us(time.Since(t)))
		for range s.All() {
			firstUs = append(firstUs, us(time.Since(t)))
			break
		}
		s.Close()
	})
	e.Close()
	if err != nil {
		return err
	}
	rep.layer("ivmeps.commit_us", median(ivLat), "us")
	rep.layer("ivmeps.snapshot_us", median(snapUs), "us")
	rep.layer("ivmeps.first_row_us", median(firstUs), "us")

	// ivmeps: per-tuple Apply rung.
	if e, err = l.load(ivmeps.Options{}); err != nil {
		return err
	}
	var applyLat []float64
	for _, c := range l.commits {
		for _, o := range c {
			t := time.Now()
			err := e.Apply(o.rel, o.row, o.mult)
			applyLat = append(applyLat, us(time.Since(t)))
			if err != nil {
				e.Close()
				return fmt.Errorf("apply: %w", err)
			}
		}
	}
	e.Close()
	rep.layer("ivmeps.apply_p50_us", median(applyLat), "us")
	rep.layer("ivmeps.apply_p99_us", pct(applyLat, 99), "us")

	// +wal rung.
	dir, err := os.MkdirTemp("", "perfbench-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walOpts := func(sub string) ivmeps.Options {
		return ivmeps.Options{Durability: ivmeps.Durability{Dir: filepath.Join(dir, sub), Sync: ivmeps.SyncBatched}}
	}
	if e, err = l.load(walOpts("wal")); err != nil {
		return err
	}
	walLat, err := l.ivmepsCommits(e, nil)
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	walBytes, err := dirBytes(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	rep.layer("wal.commit_p50_us", median(walLat)-median(ivLat), "us")
	rep.layer("wal.commit_p99_us", pct(walLat, 99)-pct(ivLat, 99), "us")
	rep.layer("wal.bytes_per_op", float64(walBytes)/nOps, "B")

	// +watch rung: an in-process watcher draining every commit.
	if e, err = l.load(walOpts("watch")); err != nil {
		return err
	}
	lw, err := watchLocal(e)
	if err != nil {
		e.Close()
		return err
	}
	var starts []time.Time
	watchLat, err := l.ivmepsCommits(e, func(int) { starts = append(starts, time.Now()) })
	if err == nil {
		err = lw.stop(len(l.commits))
	}
	e.Close()
	if err != nil {
		return err
	}
	var eventLag []float64
	for i, a := range lw.arrived {
		eventLag = append(eventLag, us(a.Sub(starts[i])))
	}
	rep.layer("watch.commit_us", median(watchLat)-median(walLat), "us")
	rep.layer("watch.event_lag_p50_us", median(eventLag), "us")
	rep.layer("watch.event_lag_p99_us", pct(eventLag, 99), "us")
	rep.layer("watch.delta_rows_per_commit", float64(lw.rows)/float64(len(l.commits)), "count")

	// server rung: the same stack, commits through the handler in-process.
	if e, err = l.load(walOpts("server")); err != nil {
		return err
	}
	if lw, err = watchLocal(e); err != nil {
		e.Close()
		return err
	}
	srv := server.New(e, server.Options{Query: l.text})
	var srvLat []float64
	for i, c := range l.commits {
		body := encodeOps(c)
		req := httptest.NewRequest(http.MethodPost, "/v1/commit", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		srv.ServeHTTP(rec, req)
		srvLat = append(srvLat, us(time.Since(t)))
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("server commit %d: HTTP %d: %s", i, rec.Code, rec.Body.String())
			break
		}
	}
	if err == nil {
		err = lw.stop(len(l.commits))
	}
	e.Close()
	if err != nil {
		return err
	}
	rep.layer("server.rung_us", median(srvLat)-median(watchLat), "us")

	// client rung, untraced then traced: loopback HTTP plus a remote
	// watch stream on a second connection.
	plain, err := l.clientRung(ctx, walOpts("client"), nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := l.clientRung(ctx, walOpts("traced"), tr)
	if err != nil {
		return err
	}
	rep.layer("client.rung_us", median(plain.lat)-median(srvLat), "us")
	rep.layer("bench.trace_overhead_pct", 100*(median(traced.lat)/median(plain.lat)-1), "%")
	spans := tr.closed()
	self := selfTimes(spans)
	cc := collect(spans, self, "client.commit")
	sc := collect(spans, self, "server.commit")
	cr := collect(spans, self, "client.rows")
	sr := collect(spans, self, "server.rows")
	sw := collect(spans, self, "server.watch")
	rep.layer("client.commit_self_us", median(cc.self), "us")
	rep.layer("client.page_self_us", median(cr.self), "us")
	rep.layer("server.commit_p50_us", median(sc.dur), "us")
	rep.layer("server.commit_p99_us", pct(sc.dur, 99), "us")
	rep.layer("server.commit_req_bytes_per_op", float64(cc.reqBytes)/nOps, "B")
	rep.layer("server.rows_p50_us", median(sr.dur), "us")
	rep.layer("server.rows_p99_us", pct(sr.dur, 99), "us")
	rep.layer("server.page_resp_bytes_per_row", float64(cr.respBytes)/float64(max(traced.pageRows, 1)), "B")
	rep.layer("server.watch_bytes_per_event", float64(sw.respBytes)/float64(max(traced.events, 1)), "B")
	rep.layer("server.watch_lagged", float64(traced.lagged), "count")
	rep.check("ladder client read = naive(shadow)", traced.read, l.want)

	// federation rungs: the same commits on Sharded with K=2 and K=1.
	for _, k := range []int{2, 1} {
		s, err := ivmeps.NewSharded(l.q, ivmeps.ShardedOptions{Options: ivmeps.Options{Epsilon: epsilon, Workers: 1}, Shards: k})
		if err != nil {
			return err
		}
		for _, rel := range sortedRels(l.base) {
			rows := l.base[rel]
			if err = s.Load(rel, rows...); err != nil {
				break
			}
		}
		if err == nil {
			err = s.Build()
		}
		var fedLat []float64
		for i, c := range l.commits {
			if err != nil {
				break
			}
			b := s.NewBatch()
			for _, o := range c {
				b.Apply(o.rel, o.row, o.mult)
			}
			t := time.Now()
			if err = s.Commit(b); err != nil {
				err = fmt.Errorf("sharded commit %d: %w", i, err)
			}
			fedLat = append(fedLat, us(time.Since(t)))
		}
		s.Close()
		if err != nil {
			return err
		}
		name := "federation.commit_us"
		if k == 1 {
			name = "federation.k1_commit_us"
		}
		rep.layer(name, median(fedLat), "us")
	}
	return nil
}

// clientRun is what one client rung observed.
type clientRun struct {
	lat            []float64 // per-commit µs
	events, lagged int
	pageRows       int
	read           checksum
}

// clientRung replays the commits through a loopback service with a remote
// watcher, then walks the result page by page (at least 200 pages, at most
// five walks) and digests the last walk.
func (l *ladder) clientRung(ctx context.Context, opts ivmeps.Options, tr *tracer) (*clientRun, error) {
	e, err := l.load(opts)
	if err != nil {
		return nil, err
	}
	st := &stack{serve: make(chan error, 1), dir: opts.Durability.Dir}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.handler
	}
	if err := st.listen(e, l.q, wrap); err != nil {
		return nil, err
	}
	defer st.close()
	c, err := dial(st.url, tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	wc, err := dial(st.url, tr)
	if err != nil {
		return nil, err
	}
	defer wc.close()
	// The replay is closed-loop, so the stream gets room for every
	// commit: an eviction here would measure the buffer, not the layer.
	rw, err := startWatch(ctx, wc, 1<<16)
	if err != nil {
		return nil, err
	}
	run := &clientRun{}
	b := c.c.NewBatch()
	var last uint64
	for i, ops := range l.commits {
		t := time.Now()
		ep, err := c.commitOps(ctx, b, ops)
		run.lat = append(run.lat, us(time.Since(t)))
		if err != nil {
			rw.stop(0)
			return nil, fmt.Errorf("client commit %d: %w", i, err)
		}
		last = ep
	}
	if err := rw.stop(last); err != nil {
		run.lagged++
	}
	run.events = rw.events
	pages := 0
	for walk := 0; walk < 5 && (walk == 0 || pages < 200); walk++ {
		run.read = checksum{}
		seq, errf := c.c.All(ctx, "")
		for row, m := range seq {
			if run.read.Rows%pageLimit == 0 {
				pages++
			}
			run.read.add(row, m)
		}
		if err := errf(); err != nil {
			return nil, fmt.Errorf("client read: %w", err)
		}
		run.pageRows += run.read.Rows
	}
	return run, nil
}

// encodeOps renders ops as a commit request body (NDJSON).
func encodeOps(ops []op) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, o := range ops {
		enc.Encode(server.Op{Rel: o.rel, Row: o.row, Mult: o.mult})
	}
	return buf.Bytes()
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// dumpSpans writes the traced run's spans next to the build outputs.
func dumpSpans(cfg config, tr *tracer) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans  %d written to %s\n", len(tr.closed()), path)
	return nil
}
