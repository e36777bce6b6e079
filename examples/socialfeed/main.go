// Social feed: maintain "users following at least one trending topic" under
// a high-churn stream of follow/unfollow and trend/untrend events.
//
// The query Q(User) = Follows(User, Topic), Trending(Topic) is Example 29's
// Q(A) = R(A, B), S(B): free-connex and δ1-hierarchical. In dynamic mode
// the engine partitions on the bound join variable Topic: popular topics
// (heavy: many followers) are resolved at enumeration time through the
// heavy indicator, while the long tail (light) is pre-joined. At ε = 1/2
// both updates and delay cost O(N^(1/2)) amortized — the weakly Pareto-
// optimal point for δ1-hierarchical queries (Proposition 10).
//
// The second act serves the same engine over HTTP (internal/server, the
// ivmd service layer) on a loopback listener and replays more churn through
// the remote client: a remote watcher folds the per-commit delta stream
// into its own copy of the feed and the program checks that fold against
// the engine's own view state — remote watch-fold ≡ local view, over a
// real wire.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
	"ivmeps/internal/server"
)

func main() {
	const (
		users   = 20000
		topics  = 2000
		follows = 50000
		churn   = 20000
	)
	rng := rand.New(rand.NewSource(42))

	q := ivmeps.MustParseQuery("Q(User) = Follows(User, Topic), Trending(Topic)")
	e, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		log.Fatal(err)
	}

	// Popularity is Zipf-like: a few viral topics, a long tail.
	zipf := rand.NewZipf(rng, 1.2, 1, topics-1)
	type edge struct{ u, t int64 }
	seen := map[edge]bool{}
	for len(seen) < follows {
		ed := edge{rng.Int63n(users), int64(zipf.Uint64())}
		if seen[ed] {
			continue
		}
		seen[ed] = true
		if err := e.Load("Follows", []int64{ed.u, ed.t}); err != nil {
			log.Fatal(err)
		}
	}
	trending := map[int64]bool{}
	for len(trending) < topics/20 {
		t := int64(zipf.Uint64())
		if !trending[t] {
			trending[t] = true
			if err := e.Load("Trending", []int64{t}); err != nil {
				log.Fatal(err)
			}
		}
	}

	start := time.Now()
	if err := e.Build(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built: N=%d follow edges + trending flags in %v\n", e.N(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("users with a trending topic: %d\n\n", count(e))

	// Churn: follows/unfollows and topics trending in and out — including
	// viral topics crossing the heavy/light boundary, which triggers minor
	// rebalancing. The event stream interleaves both relations, so it is
	// ingested through the multi-relation Batch: events accumulate into one
	// builder and Commit applies each chunk as a single atomic maintenance
	// commit — every view tree walked once per chunk per touched relation
	// instead of once per event, and no reader ever observes a half-applied
	// chunk.
	const chunk = 512
	edges := make([]edge, 0, len(seen))
	for ed := range seen {
		edges = append(edges, ed)
	}
	start = time.Now()
	applied := 0
	b := e.NewBatch()
	flush := func() {
		if b.Len() == 0 {
			return
		}
		if err := e.Commit(b); err != nil {
			log.Fatal(err)
		}
		b.Reset()
	}
	for i := 0; i < churn; i++ {
		switch rng.Intn(4) {
		case 0: // new follow
			ed := edge{rng.Int63n(users), int64(zipf.Uint64())}
			if !seen[ed] {
				seen[ed] = true
				edges = append(edges, ed)
				b.Insert("Follows", []int64{ed.u, ed.t})
				applied++
			}
		case 1: // unfollow
			if len(edges) > 0 {
				k := rng.Intn(len(edges))
				ed := edges[k]
				edges[k] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				delete(seen, ed)
				b.Delete("Follows", []int64{ed.u, ed.t})
				applied++
			}
		case 2: // topic starts trending
			t := int64(zipf.Uint64())
			if !trending[t] {
				trending[t] = true
				b.Insert("Trending", []int64{t})
				applied++
			}
		default: // topic stops trending
			for t := range trending {
				delete(trending, t)
				b.Delete("Trending", []int64{t})
				applied++
				break
			}
		}
		if b.Len() >= chunk {
			flush()
		}
	}
	flush()
	elapsed := time.Since(start)
	st := e.Stats()
	fmt.Printf("applied %d updates in %d atomic batches in %v (%.1fµs/update amortized)\n",
		applied, st.Batches, elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/float64(applied))
	fmt.Printf("rebalances: %d minor, %d major; view deltas: %d; relations/batch: %.2f\n",
		st.MinorRebalances, st.MajorRebalances, st.ViewDeltas,
		float64(st.BatchRelations)/float64(st.Batches))

	start = time.Now()
	trendingUsers := count(e)
	fmt.Printf("\nusers with a trending topic now: %d (enumerated in %v)\n",
		trendingUsers, time.Since(start).Round(time.Millisecond))

	// ——— Served: the same engine behind the ivmd HTTP service. ———
	//
	// From here on the engine is only touched through the wire: commits go
	// POST /v1/commit as NDJSON op streams, and a remote watcher rides
	// GET /v1/watch, folding each commit's view deltas into its own copy of
	// the feed. At the end the folded copy must equal the engine's view
	// state — the remote fold saw every commit, in order, with no gaps.
	ctx := context.Background()
	srv := server.New(e, server.Options{Query: q.String()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	c, err := client.New("http://"+ln.Addr().String(), client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserving on %s; replaying churn through the remote client\n", ln.Addr())

	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	views := e.Views()
	feed := map[string]map[string]int64{}
	for _, v := range views {
		rows, mults, ok := w.AnchorRows(v)
		if !ok {
			log.Fatalf("watch anchor missing view %s", v)
		}
		vm := make(map[string]int64, len(rows))
		for i := range rows {
			vm[fmt.Sprint(rows[i])] = mults[i]
		}
		feed[v] = vm
	}

	// Replay a quarter of the churn volume remotely, in client batches.
	rb := c.NewBatch()
	var lastEpoch uint64
	remoteFlush := func() {
		if rb.Len() == 0 {
			return
		}
		ep, err := c.Commit(ctx, rb)
		if err != nil {
			log.Fatal(err)
		}
		lastEpoch = ep
		rb.Reset()
	}
	remoteApplied := 0
	for i := 0; i < churn/4; i++ {
		switch rng.Intn(4) {
		case 0:
			ed := edge{rng.Int63n(users), int64(zipf.Uint64())}
			if !seen[ed] {
				seen[ed] = true
				edges = append(edges, ed)
				rb.Insert("Follows", []int64{ed.u, ed.t})
				remoteApplied++
			}
		case 1:
			if len(edges) > 0 {
				k := rng.Intn(len(edges))
				ed := edges[k]
				edges[k] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				delete(seen, ed)
				rb.Delete("Follows", []int64{ed.u, ed.t})
				remoteApplied++
			}
		case 2:
			t := int64(zipf.Uint64())
			if !trending[t] {
				trending[t] = true
				rb.Insert("Trending", []int64{t})
				remoteApplied++
			}
		default:
			for t := range trending {
				delete(trending, t)
				rb.Delete("Trending", []int64{t})
				remoteApplied++
				break
			}
		}
		if rb.Len() >= chunk {
			remoteFlush()
		}
	}
	remoteFlush()

	// Fold the delta stream up to the last commit we published.
	start = time.Now()
	for ev, err := range w.Events() {
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range ev.Deltas {
			vm := feed[d.View]
			for i := range d.Rows {
				k := fmt.Sprint(d.Rows[i])
				vm[k] += d.Mults[i]
				if vm[k] == 0 {
					delete(vm, k)
				}
			}
		}
		if ev.Epoch >= lastEpoch {
			break
		}
	}
	fmt.Printf("remote: %d updates committed over HTTP; watch-fold caught up to epoch %d in %v\n",
		remoteApplied, lastEpoch, time.Since(start).Round(time.Millisecond))

	// The folded remote copy must equal the engine's own view state.
	snap, err := e.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range views {
		rows, mults, err := snap.ViewRows(v)
		if err != nil {
			log.Fatal(err)
		}
		if len(rows) != len(feed[v]) {
			log.Fatalf("view %s: remote fold has %d rows, engine has %d", v, len(feed[v]), len(rows))
		}
		for i := range rows {
			if feed[v][fmt.Sprint(rows[i])] != mults[i] {
				log.Fatalf("view %s: remote fold diverges at row %v", v, rows[i])
			}
		}
	}
	snap.Close()
	fmt.Printf("remote watch-fold ≡ local view state across %d views ✓\n", len(views))

	// Orderly exit: drain ends the watch stream with a terminal frame.
	srv.Drain()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	hs.Shutdown(sctx)
	for range w.Events() {
	}
	if w.Drained() {
		fmt.Println("server drained; watch stream ended cleanly")
	}
	w.Close()
}

// count returns the number of distinct result rows in a snapshot of the
// engine's committed state.
func count(e *ivmeps.Engine) int {
	snap, err := e.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()
	return snap.Count()
}
