package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/server"
)

// Service workload rates. Both stay well below the commit path's
// closed-loop capacity so latency is measured, not queueing collapse.
const (
	writeRate   = 200                   // svc-write commits/s (8 ops each)
	trickleRate = 150                   // svc-read commits/s (4 ops each)
	walkEvery   = 2 * time.Second       // svc-read: one full result walk starts every walkEvery
	pageEvery   = 20 * time.Millisecond // and its pages are due every pageEvery
	pageLimit   = 512                   // rows per page (the server default)
	ingestBatch = 5000
	// openShare is the share of the measured time run open-loop; the rest
	// is the closed-loop capacity phase on the same commit connection.
	openShare = 0.8
)

// stack is the service built the way cmd/ivmd builds it: ivmeps.New,
// Build, server.New, and an http.Server on 127.0.0.1:0.
type stack struct {
	eng   *ivmeps.Engine
	srv   *server.Server
	hs    *http.Server
	serve chan error
	url   string
	dir   string
}

// startStack starts a service over an empty engine; durable adds a
// SyncBatched WAL in a fresh temp dir; wrap, if set, wraps the handler.
func startStack(q *ivmeps.Query, durable bool, wrap func(http.Handler) http.Handler) (*stack, error) {
	st := &stack{serve: make(chan error, 1)}
	opts := ivmeps.Options{Epsilon: epsilon}
	if durable {
		dir, err := os.MkdirTemp("", "perfbench-wal-")
		if err != nil {
			return nil, err
		}
		st.dir = dir
		opts.Durability = ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncBatched}
	}
	eng, err := ivmeps.New(q, opts)
	if err == nil {
		err = eng.Build()
	}
	if err != nil {
		os.RemoveAll(st.dir)
		return nil, err
	}
	return st, st.listen(eng, q, wrap)
}

// listen serves a built engine on a loopback port.
func (st *stack) listen(eng *ivmeps.Engine, q *ivmeps.Query, wrap func(http.Handler) http.Handler) error {
	st.eng = eng
	st.srv = server.New(eng, server.Options{Query: q.String()})
	var h http.Handler = st.srv
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		os.RemoveAll(st.dir)
		return err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: h}
	go func() { st.serve <- st.hs.Serve(ln) }()
	return nil
}

// close drains the server (ending watch streams), waits for it, and
// releases the engine and its log directory.
func (st *stack) close() {
	st.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx)
	<-st.serve
	st.eng.Close()
	os.RemoveAll(st.dir)
}

// conn is one client connection: a transport limited to one TCP
// connection, optionally traced.
type conn struct {
	tr *http.Transport
	c  *client.Client
}

func dial(url string, tr *tracer) (*conn, error) {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &tracingRT{tr: tr, next: t}
	}
	c, err := client.New(url, client.Options{HTTPClient: &http.Client{Transport: rt}, PageLimit: pageLimit})
	if err != nil {
		return nil, err
	}
	return &conn{tr: t, c: c}, nil
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// commitOps sends ops as one remote commit.
func (c *conn) commitOps(ctx context.Context, b *client.Batch, ops []op) (uint64, error) {
	b.Reset()
	for _, o := range ops {
		b.Apply(o.rel, o.row, o.mult)
	}
	return c.c.Commit(ctx, b)
}

// svcSetup is one service set-up: engine creation, the base ingested
// through /v1/commit in large batches, and the first result page served.
// The rest of that first read is drained outside the timing so no cursor
// stays pinned.
func svcSetup(ctx context.Context, g *gen, q *ivmeps.Query, durable bool, tr *tracer) (*stack, *conn, time.Duration, error) {
	t0 := time.Now()
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.handler
	}
	st, err := startStack(q, durable, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := dial(st.url, tr)
	if err != nil {
		st.close()
		return nil, nil, 0, err
	}
	b := c.c.NewBatch()
	for _, rel := range sortedRels(g.base) {
		rows := g.base[rel]
		for i := 0; i < len(rows); i += ingestBatch {
			b.Reset()
			for _, row := range rows[i:min(i+ingestBatch, len(rows))] {
				b.Insert(rel, row)
			}
			if _, err := c.c.Commit(ctx, b); err != nil {
				c.close()
				st.close()
				return nil, nil, 0, fmt.Errorf("ingest: %w", err)
			}
		}
	}
	var d time.Duration
	seq, errf := c.c.All(ctx, "")
	for range seq {
		if d == 0 {
			d = time.Since(t0)
		}
	}
	if err := errf(); err != nil {
		c.close()
		st.close()
		return nil, nil, 0, fmt.Errorf("first read: %w", err)
	}
	if d == 0 {
		d = time.Since(t0)
	}
	return st, c, d, nil
}

// svcSetups runs setupReps set-ups, keeps the last, and reports setup_s
// (untraced runs) and heap_mb.
func svcSetups(ctx context.Context, cfg config, rep *report, g *gen, q *ivmeps.Query, durable bool, tr *tracer) (*stack, *conn, error) {
	var times []float64
	var st *stack
	var c *conn
	for range setupReps {
		if st != nil {
			c.close()
			st.close()
		}
		var d time.Duration
		var err error
		if st, c, d, err = svcSetup(ctx, g, q, durable, tr); err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if cfg.trace {
			break // the traced run reports no set-up figures
		}
	}
	if !cfg.trace {
		rep.endToEnd("setup_s", median(times), "s")
		rep.endToEnd("heap_mb", liveHeapMB(), "MB")
	}
	return st, c, nil
}

// openLoop sends n commits from g on c, commit i due at start + i/rate,
// each timed from its due time. It returns per-commit latency (ms),
// lateness (ms), and the epoch each commit published.
func openLoop(ctx context.Context, rep *report, c *conn, g *gen, start time.Time, rate float64, n int) (lat, late []float64, epochs []uint64) {
	b := c.c.NewBatch()
	for i := range n {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		ops := g.next()
		sleepUntil(due)
		late = append(late, ms(time.Since(due)))
		ep, err := c.commitOps(ctx, b, ops)
		lat = append(lat, ms(time.Since(due)))
		epochs = append(epochs, ep)
		rep.tally(err)
	}
	return lat, late, epochs
}

// closedLoop commits from g on c back to back for d and returns each
// commit's op count and duration in seconds.
func closedLoop(ctx context.Context, rep *report, c *conn, g *gen, d time.Duration) (ops, secs []float64) {
	b := c.c.NewBatch()
	for t0 := time.Now(); time.Since(t0) < d; {
		o := g.next()
		t := time.Now()
		_, err := c.commitOps(ctx, b, o)
		secs = append(secs, time.Since(t).Seconds())
		ops = append(ops, float64(len(o)))
		rep.tally(err)
	}
	return ops, secs
}

// capacity prints the closed-loop commit rate.
func (r *report) capacity(ops, secs []float64, note string) {
	var busy float64
	for _, s := range secs {
		busy += s
	}
	r.value("commit_capacity_per_s", float64(len(secs))/busy, "1/s", fmt.Sprintf("(closed-loop%s, %d commits in %.2fs)", note, len(secs), busy))
}

// remoteWatch folds a remote watch stream per view and records when each
// epoch arrived.
type remoteWatch struct {
	w       *client.Watcher
	anchor  uint64
	folds   map[string]foldState
	arrived []time.Time // by epoch − anchor − 1
	last    atomic.Uint64
	events  int
	rows    int
	err     error
	done    chan struct{}
}

// startWatch opens a remote watch stream with a server-side buffer of
// buffer commits (0: the server default) and folds it in a goroutine.
func startWatch(ctx context.Context, c *conn, buffer int) (*remoteWatch, error) {
	w, err := c.c.Watch(ctx, client.WatchOptions{Buffer: buffer})
	if err != nil {
		return nil, err
	}
	rw := &remoteWatch{w: w, anchor: w.Epoch(), folds: map[string]foldState{}, done: make(chan struct{})}
	rw.last.Store(w.Epoch())
	for _, v := range w.Views() {
		f := foldState{}
		rows, mults, _ := w.AnchorRows(v)
		for i := range rows {
			f.add(rows[i], mults[i])
		}
		rw.folds[v] = f
	}
	go func() {
		defer close(rw.done)
		for ev, err := range w.Events() {
			if err != nil {
				rw.err = err
				return
			}
			rw.arrived = append(rw.arrived, time.Now())
			rw.events++
			for _, d := range ev.Deltas {
				f := rw.folds[d.View]
				for i := range d.Rows {
					f.add(d.Rows[i], d.Mults[i])
				}
				rw.rows += len(d.Rows)
			}
			rw.last.Store(ev.Epoch)
		}
	}()
	return rw, nil
}

// stop waits (bounded) until the stream has delivered epoch, then closes
// it and waits for the consumer to exit.
func (rw *remoteWatch) stop(epoch uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for rw.last.Load() < epoch && time.Now().Before(deadline) {
		select {
		case <-rw.done:
			deadline = time.Now()
		case <-time.After(time.Millisecond):
		}
	}
	rw.w.Close()
	<-rw.done
	if rw.err != nil {
		return rw.err
	}
	if got := rw.last.Load(); got < epoch {
		return fmt.Errorf("watch stream stalled at epoch %d, want %d", got, epoch)
	}
	return nil
}

// checkServed compares the served result, and each view the watcher
// folded, against the naive reference and the server's view reads.
func checkServed(ctx context.Context, rep *report, c *conn, queryText string, g *gen, rw *remoteWatch) error {
	rows, mults, _, err := c.c.Rows(ctx, "")
	if err != nil {
		return fmt.Errorf("final read: %w", err)
	}
	var got checksum
	for i := range rows {
		got.add(rows[i], mults[i])
	}
	want, err := reference(queryText, g.sh)
	if err != nil {
		return err
	}
	rep.check("result = naive(shadow)", got, want)
	if rw == nil {
		return nil
	}
	for view, f := range rw.folds {
		rows, mults, _, err := c.c.Rows(ctx, view)
		if err != nil {
			return fmt.Errorf("view read: %w", err)
		}
		var snap, fold checksum
		for i := range rows {
			snap.add(rows[i], mults[i])
		}
		arity := 0
		if len(rows) > 0 {
			arity = len(rows[0])
		}
		fold = f.checksum(arity)
		rep.check("watch fold = snapshot "+view, fold, snap)
	}
	return nil
}

// runSvcWrite: socialfeed commits open-loop on one connection with the WAL
// at SyncBatched, one remote watch stream on a second; no page reads.
func runSvcWrite(cfg config, rep *report) error {
	ctx := context.Background()
	q := ivmeps.MustParseQuery(socialQuery)
	g, err := newGen(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, c, err := svcSetups(ctx, cfg, rep, g, q, true, tr)
	if err != nil {
		return err
	}
	defer st.close()
	defer c.close()
	rep.meta("wal_sync", "batched")
	rep.meta("wal_fs", fsType(st.dir))
	rep.meta("rate", fmt.Sprintf("%d commits/s x 8 ops open-loop, then closed-loop", writeRate))
	wc, err := dial(st.url, tr)
	if err != nil {
		return err
	}
	defer wc.close()
	rw, err := startWatch(ctx, wc, 0)
	if err != nil {
		return err
	}

	open := time.Duration(float64(cfg.seconds) * openShare)
	n := int(open.Seconds() * writeRate)
	start := time.Now().Add(10 * time.Millisecond)
	lat, late, epochs := openLoop(ctx, rep, c, g, start, writeRate, n)
	capOps, capSecs := closedLoop(ctx, rep, c, g, cfg.seconds-open)
	final, err := st.eng.Snapshot()
	if err != nil {
		return err
	}
	last := final.Epoch()
	final.Close()
	if err := rw.stop(last); err != nil {
		rep.tally(err) // a lagged or dropped stream is a failed op
		rep.printf("watch  %v", err)
	}
	var fresh []float64
	for i, ep := range epochs {
		if k := int(ep - rw.anchor - 1); ep > rw.anchor && k < len(rw.arrived) {
			due := start.Add(time.Duration(float64(i) / writeRate * float64(time.Second)))
			fresh = append(fresh, ms(rw.arrived[k].Sub(due)))
		}
	}
	latePct := rep.sustainable("commits", late)
	rep.timing("commit_ms (from due)", lat, "ms")
	rep.timing("fresh_ms (due to watch event)", fresh, "ms")
	rep.capacity(capOps, capSecs, "")
	if cfg.trace {
		if err := finishSvcTrace(ctx, cfg, rep, tr, socialQuery, latePct); err != nil {
			return err
		}
	} else {
		rep.endToEnd("commit_p50_ms", windowed(lat, 50), "ms")
		rep.endToEnd("read_p50_ms", windowed(fresh, 50), "ms")
	}
	rep.meta("final_state", explainState(st.eng))
	return checkServed(ctx, rep, c, socialQuery, g, rw)
}

// runSvcRead: the two-path query in memory; one connection walks the full
// result page by page on a fixed schedule, a second sends a trickle of
// commits open-loop, then closed-loop beside the still-running walker.
func runSvcRead(cfg config, rep *report) error {
	ctx := context.Background()
	q := ivmeps.MustParseQuery(pathQuery)
	g, err := newGen(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, c, err := svcSetups(ctx, cfg, rep, g, q, false, tr)
	if err != nil {
		return err
	}
	defer st.close()
	defer c.close()
	rep.meta("wal_sync", "none (in-memory)")
	rep.meta("rate", fmt.Sprintf("%d commits/s x 4 ops open-loop then closed-loop; a walk every %v, pages of %d rows every %v", trickleRate, walkEvery, pageLimit, pageEvery))
	rc, err := dial(st.url, tr)
	if err != nil {
		return err
	}
	defer rc.close()

	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(cfg.seconds)
	var page, pageLate []float64
	var pageDue []time.Time
	var walks, rows int
	var walkErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; ; w++ {
			walkStart := start.Add(time.Duration(w) * walkEvery)
			if walkStart.After(end) {
				return
			}
			due, p, cut := walkStart, 0, false
			sleepUntil(due)
			pageLate = append(pageLate, ms(time.Since(due)))
			seq, errf := rc.c.All(ctx, "")
			k := 0
			for range seq {
				if k%pageLimit == 0 {
					page = append(page, ms(time.Since(due)))
					pageDue = append(pageDue, due)
				}
				k++
				if k%pageLimit == 0 {
					p++
					if due = walkStart.Add(time.Duration(p) * pageEvery); due.After(end) {
						cut = true
						break
					}
					sleepUntil(due)
					pageLate = append(pageLate, ms(time.Since(due)))
				}
			}
			rows += k
			if cut {
				return
			}
			if err := errf(); err != nil {
				walkErr = errors.Join(walkErr, err)
				continue
			}
			walks++
		}
	}()
	open := time.Duration(float64(cfg.seconds) * openShare)
	n := int(open.Seconds() * trickleRate)
	lat, late, _ := openLoop(ctx, rep, c, g, start, trickleRate, n)
	capOps, capSecs := closedLoop(ctx, rep, c, g, time.Until(end))
	wg.Wait()
	rep.attempted += int64(len(page))
	if walkErr != nil {
		rep.failed++
		rep.printf("reads  %v", walkErr)
	}
	latePct := rep.sustainable("commits", late)
	if p := rep.sustainable("pages", pageLate); p > latePct {
		latePct = p
	}
	// Read figures cover the open-loop phase; during the closed-loop
	// capacity phase the commit connection saturates a core.
	openEnd := start.Add(open)
	var openPages []float64
	for i, d := range pageDue {
		if d.Before(openEnd) {
			openPages = append(openPages, page[i])
		}
	}
	rep.timing("commit_ms (from due)", lat, "ms")
	rep.timing("read_ms (page GET from due)", openPages, "ms")
	rep.timing("read_ms during the capacity phase", page[len(openPages):], "ms")
	rep.value("rows_per_s", float64(rows)/cfg.seconds.Seconds(), "1/s", fmt.Sprintf("(%d full walks)", walks))
	rep.capacity(capOps, capSecs, " beside the walker")
	if cfg.trace {
		if err := finishSvcTrace(ctx, cfg, rep, tr, pathQuery, latePct); err != nil {
			return err
		}
	} else {
		rep.endToEnd("commit_p50_ms", windowed(lat, 50), "ms")
		rep.endToEnd("read_p50_ms", windowed(openPages, 50), "ms")
	}
	rep.meta("final_state", explainState(st.eng))
	return checkServed(ctx, rep, c, pathQuery, g, nil)
}

// finishSvcTrace reports the live traced run's span breakdown, dumps the
// spans, and runs the layer ladder.
func finishSvcTrace(ctx context.Context, cfg config, rep *report, tr *tracer, text string, latePct float64) error {
	spans := tr.closed()
	self := selfTimes(spans)
	for _, name := range []string{"client.commit", "server.commit", "client.rows", "server.rows"} {
		st := collect(spans, self, name)
		if len(st.dur) > 0 {
			rep.timing("live "+name+" self_us", st.self, "us")
		}
	}
	if err := dumpSpans(cfg, tr); err != nil {
		return err
	}
	rep.layer("bench.late_p99_ms", latePct, "ms")
	return runLadder(ctx, cfg, rep, text)
}
