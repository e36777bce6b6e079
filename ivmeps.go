// Package ivmeps is a maintained-query engine for hierarchical conjunctive
// queries with a tunable trade-off between preprocessing time, single-tuple
// update time, and enumeration delay, implementing
//
//	Kara, Nikolic, Olteanu, Zhang.
//	"Trade-offs in Static and Dynamic Evaluation of Hierarchical Queries."
//	PODS 2020 (arXiv:1907.01988).
//
// For a hierarchical query with static width w and dynamic width δ and a
// database of size N, an engine built at ε ∈ [0, 1] provides
//
//	preprocessing       O(N^(1+(w−1)ε))
//	enumeration delay   O(N^(1−ε))
//	amortized update    O(N^(δε))
//
// Free-connex queries get O(N) preprocessing and O(1) delay at every ε;
// q-hierarchical queries additionally get O(1) updates (δ = 0).
//
// Basic use (every line below compiles as shown, given `q`'s relations):
//
//	q, _ := ivmeps.ParseQuery("Q(A, C) = R(A, B), S(B, C)")
//	e, _ := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
//	_ = e.Load("R", []int64{1, 10}, []int64{2, 10})
//	_ = e.Load("S", []int64{10, 7})
//	_ = e.Build()
//	_ = e.Insert("R", []int64{3, 10})
//	s, _ := e.Snapshot()
//	for row, mult := range s.All() {
//		fmt.Println(row, mult)
//	}
//	s.Close()
//
// ParseQuery turns the query text into a Query, whose Classify method
// reports the Class the paper's taxonomy assigns it — hierarchical or not,
// free-connex or not, the widths w and δ — and with them the guarantees
// above. Engine.Stats exposes maintenance activity counters (updates,
// batches, rebalances) for operational monitoring.
//
// # Mutation
//
// After Build, the engine maintains the query under single-tuple updates
// (Insert, Delete, Apply — one maintenance pass each) and under batches.
// The batch entry point is the Batch builder: queue any mix of updates
// across any of the query's relations, then Commit them as one atomic
// maintenance commit —
//
//	b := e.NewBatch()
//	b.Insert("R", []int64{4, 11})
//	b.Delete("S", []int64{10, 7})
//	b.Apply("R", []int64{1, 10}, -1)
//	if err := e.Commit(b); err != nil { ...
//
// Commit validates the whole batch up front and applies all of it or none
// of it: on an error the engine state, including its snapshot epoch, is
// exactly what it was. Per touched relation the updates aggregate into one
// delta per view-tree leaf, so every view tree is walked once per (batch,
// relation) instead of once per update; the observable result is identical
// to applying the same updates in order with Apply. A Batch is the one
// batch write API, for one relation as for many. The update path
// is engineered for sustained traffic: the propagation routes from every
// relation to every affected view are precomputed at Build time, and
// steady-state Apply and Commit run without heap allocation.
//
// Mutation errors are programmable, not stringly: Is-match ErrNotBuilt,
// ErrUnknownRelation, and ErrStatic, and As-match the structured
// ArityError and MultiplicityError. A read before Build gets ErrNotBuilt
// from Snapshot.
//
// # Parallel batches
//
// A batch's per-tree propagations are independent, and Options.Workers lets
// Commit spread them over a bounded pool of worker
// goroutines: 0 (the default) sizes the pool from GOMAXPROCS, 1 forces the
// sequential path, and larger values are honored as given. Each worker owns
// its scratch state (binding slots, delta pools, key-encoding buffers), so
// steady-state propagation stays allocation-free per worker, and parallel
// sections only ever write views of distinct trees while reading a frozen
// view of the relations shared across trees. The final engine state is
// identical to the sequential batch result for every worker count; only the
// wall-clock interleaving differs. Engines are still single-writer: Commit
// parallelizes internally, but write methods (Apply, Commit, Insert,
// Delete) must not be invoked concurrently with each other. Call
// Close to release the pool when discarding an engine early; a
// garbage-collected engine releases it automatically.
//
// # Snapshots
//
// Every read goes through a Snapshot, and readers do not block the writer.
// Snapshot captures the current committed state in O(#views) — no data is
// copied up front — and the returned Snapshot reads that state (Enumerate,
// All, Rows, Count) concurrently with Apply and Commit: when the writer
// first mutates a relation some live snapshot pins, it detaches the
// storage copy-on-write, so the snapshot keeps its view while ingestion
// proceeds. A snapshot taken while a batch is in flight blocks until the
// batch commits and then observes the post-batch state; it never observes
// a half-applied batch. Every read of one snapshot observes the same
// state. Close it promptly — an open snapshot makes the writer copy each
// relation it touches once per snapshot generation.
//
// # Sharding
//
// NewSharded federates K independent engines over the same query, for
// multi-core scaling beyond one engine's worker pool. A hierarchical
// query's connected component always has variables occurring in every one
// of its atoms; hashing those shard-key values partitions the component's
// relations so that tuples on different shards never join, and the
// per-shard results sum exactly to the unsharded result. A sharded engine
// is an Engine — Load/Build, Insert/Delete/Apply, NewBatch/Commit,
// Snapshot, Epoch, N, Stats, Close — with the same atomicity contract
// extended across shards: a commit is validated on every shard and applied
// on all of them or none of them, and a Snapshot observes every shard at
// one federation epoch. A shard-detected validation failure arrives
// wrapped in a ShardError. What needs one engine's log or view forest —
// Watch, Checkpoint, Snapshot.ViewRows — returns an error wrapping
// errors.ErrUnsupported; see NewSharded and ShardKey for the routing and
// gather details. Sharded and ShardedSnapshot remain only as deprecated
// aliases of Engine and Snapshot.
//
// # Durability
//
// Engines are in-memory by default; setting Options.Durability.Dir gives an
// engine a write-ahead log: every committed batch — through Insert, Delete,
// Apply, or Commit — is appended to a segmented, checksummed
// commit log in that directory before it is applied, and Build writes an
// initial checkpoint, so the committed state always equals "newest
// checkpoint + logged tail". After a crash, Open rebuilds the engine from
// that directory and resumes logging into it; the recovered result rows, N,
// and snapshot epoch are exactly those of the last durable commit
// (Example_checkpointRecover shows the full cycle). Call Checkpoint to
// bound recovery time: it serializes the base relations without blocking
// commits and retires the log prefix it covers.
//
// The SyncMode in Durability.Sync picks the fsync policy — SyncOff
// (buffered, fastest), SyncBatched (every commit reaches the OS, fsync in
// groups), SyncAlways (commit = on stable storage) — trading commit latency
// against how much a crash can lose; whatever survives is always a clean
// committed prefix, never a torn or merged state. A torn final record (the
// one shape a mid-write kill leaves) is truncated silently by Open; any
// other damage — checksum mismatches, missing epochs — is refused with a
// CorruptLogError rather than guessed around. Durable engines should be
// Closed when discarded so buffered appends reach the OS; NewSharded
// refuses Durability. The cmd/ivmwal tool inspects and verifies log
// directories offline, and docs/DURABILITY.md specifies the file formats,
// the recovery rules, and the full crash-guarantee table.
//
// Durability also defines behavior when the disk itself fails. The first
// write, flush, fsync, or segment-rotation error wedges the log: the commit
// that hit it fails with a LogWedgedError and is not applied, nothing is
// ever written to the log files again (in particular a failed fsync is
// never retried — its page-cache state is unknowable), and the engine
// degrades to read-only: every further Insert/Delete/Apply/Commit
// returns the same LogWedgedError with the in-memory state
// untouched, while Snapshot and the reads of its snapshots keep serving
// the last committed state. Recovery is by restart: reopen the directory
// with Open, which replays exactly the commits that reached disk. See the
// failure model in docs/DURABILITY.md.
//
// # Watching
//
// Engine.Watch streams the engine's result changes as they commit. A
// Watcher starts from an anchor — a Snapshot of the committed state at
// subscription, available once via Watcher.Snapshot — and its Events
// iteration then yields one Event per subsequent commit, in epoch order
// with no gaps: each Event carries the commit's epoch and, per root view
// (named by Engine.Views, readable from any snapshot via
// Snapshot.ViewRows), a ViewDelta of the rows whose multiplicity changed.
// Folding the deltas over the anchor reproduces the engine's state at
// every delivered epoch, so a cache, an index, or a downstream replica can
// stay exactly consistent without re-reading the engine
// (Example_watch shows the loop). WatchOptions filters the stream to
// chosen views and sizes the event buffer.
//
// The committer never blocks on watchers: each Watcher owns a bounded
// buffer (WatchOptions.Buffer, default DefaultWatchBuffer), and one that
// falls further behind than its buffer holds is evicted — its stream ends,
// after every buffered event, with a WatcherLaggedError naming exactly the
// epochs it missed (match the class with errors.Is against
// ErrWatcherLagged), and it re-anchors by calling Watch again. Other
// watchers and the writer are unaffected, and while no watcher is open the
// commit path does no capture work — and no allocation — at all. The watch
// layer spawns no goroutines; events are delivered on whichever goroutine
// iterates Events, and Watcher.Close (safe from any goroutine, including
// concurrently with a blocked iteration) releases everything.
package ivmeps

import (
	"errors"
	"fmt"
	"iter"

	"ivmeps/internal/core"
	"ivmeps/internal/federation"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
	"ivmeps/internal/wal"
	"ivmeps/internal/watch"
)

// Query is a parsed conjunctive query.
type Query struct {
	q *query.Query
}

// ParseQuery parses a query in the paper's notation, e.g.
// "Q(A, C) = R(A, B), S(B, C)". The head lists the free variables; a
// Boolean query has an empty head.
func ParseQuery(s string) (*Query, error) {
	q, err := query.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// MustParseQuery is ParseQuery that panics on error, for query literals.
func MustParseQuery(s string) *Query {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the query.
func (q *Query) String() string { return q.q.String() }

// Relations returns the distinct relation symbols of the query body.
func (q *Query) Relations() []string { return q.q.RelationNames() }

// Schema returns the variable names of a relation's atom, or nil if the
// relation does not occur in the query.
func (q *Query) Schema(rel string) []string {
	for _, a := range q.q.Atoms {
		if a.Rel == rel {
			out := make([]string, len(a.Vars))
			for i, v := range a.Vars {
				out[i] = string(v)
			}
			return out
		}
	}
	return nil
}

// Class describes where a query sits in the paper's taxonomy (Figure 2) and
// its width measures.
type Class struct {
	Hierarchical  bool
	QHierarchical bool // δ0-hierarchical (Proposition 6)
	AlphaAcyclic  bool
	FreeConnex    bool
	StaticWidth   int // w: preprocessing exponent is 1+(w−1)ε; 0 if not hierarchical
	DynamicWidth  int // δ: update exponent is δε; equals the δi rank; 0 if not hierarchical
}

// Classify computes the query's class and width measures.
func (q *Query) Classify() Class {
	c := query.Classify(q.q)
	return Class{
		Hierarchical:  c.Hierarchical,
		QHierarchical: c.QHierarchical,
		AlphaAcyclic:  c.AlphaAcyclic,
		FreeConnex:    c.FreeConnex,
		StaticWidth:   c.StaticWidth,
		DynamicWidth:  c.DynamicWidth,
	}
}

// Options configures an Engine.
type Options struct {
	// Epsilon is the trade-off parameter ε ∈ [0, 1]: 0 minimizes
	// preprocessing and update time, 1 minimizes delay.
	Epsilon float64
	// Static builds a static-evaluation engine: fewer auxiliary views, but
	// Insert/Delete/Apply after Build are rejected.
	Static bool
	// Workers bounds the worker goroutines Commit uses to propagate a
	// batch across independent view trees: 0 picks a GOMAXPROCS-bounded
	// automatic count, 1 forces sequential propagation, and N > 1 uses up
	// to N workers (capped by the number of view trees). The result is
	// identical at every setting; see the package documentation for the
	// worker model.
	Workers int
	// Durability, when its Dir is set, gives the engine a write-ahead log
	// and checkpoint files in that directory: every committed batch is
	// logged before it is applied, Checkpoint compacts the log, and Open
	// recovers the committed state after a crash. The zero value disables
	// durability entirely. See the package documentation's Durability
	// section.
	Durability Durability
}

// core translates the engine knobs for internal/core.
func (o Options) core() core.Options {
	mode := viewtree.Dynamic
	if o.Static {
		mode = viewtree.Static
	}
	return core.Options{Mode: mode, Epsilon: o.Epsilon, Workers: o.Workers}
}

// maintainer is what an Engine maintains its query with: one core engine
// (New) or a federation of K of them (NewSharded).
type maintainer interface {
	RelID(name string) int
	Update(rel string, t tuple.Tuple, m int64) error
	CommitBatch(ops []core.BatchOp) error
	Epoch() uint64
	N() int
	Stats() core.Stats
	Close()
}

// Engine maintains a hierarchical query under single-tuple updates and
// enumerates its distinct result tuples with multiplicities. New returns
// one engine; NewSharded returns an Engine over K hash-sharded ones.
type Engine struct {
	q       *Query
	m       maintainer
	e       *core.Engine    // the maintainer of a New engine; nil if sharded
	fed     *federation.Fed // the maintainer of a NewSharded engine; nil if not
	eps     float64
	initial naive.Database
	built   bool

	// Durability state (durability.go): nil/zero unless Options.Durability
	// was configured. walOps is the pooled op buffer of the commit hook;
	// closed makes Close idempotent.
	dur    Durability
	wal    *wal.Log
	walOps []wal.Op
	closed bool

	// hub fans the commit-delta stream out to watchers (watch.go). It is
	// inert — and the commit path pays nothing — until the first Watch.
	hub *watch.Broadcaster
}

// New creates an engine. The query must be hierarchical (use Classify to
// check); non-hierarchical queries are rejected with an error, matching the
// scope of the paper's algorithms.
func New(q *Query, opts Options) (*Engine, error) {
	e, err := core.New(q.q, opts.core())
	if err != nil {
		return nil, err
	}
	eng := newEngine(q, e, opts)
	eng.e = e
	eng.hub = watch.New(e)
	if opts.Durability.enabled() {
		// Fail on an already-populated log directory now, not at Build:
		// recovering an existing log is Open's job, and silently appending
		// to one here could corrupt it.
		l, err := wal.Create(opts.Durability.walOptions())
		if err != nil {
			return nil, err
		}
		eng.dur = opts.Durability
		eng.wal = l
	}
	return eng, nil
}

// newEngine returns an unbuilt Engine maintained by m, with an empty
// initial relation per query relation for Load.
func newEngine(q *Query, m maintainer, opts Options) *Engine {
	e := &Engine{q: q, m: m, eps: opts.Epsilon, initial: naive.Database{}}
	for _, a := range q.q.Atoms {
		if _, ok := e.initial[a.Rel]; !ok {
			e.initial[a.Rel] = relation.New(a.Rel, a.Vars)
		}
	}
	return e
}

// unsupported is the refusal of an operation a sharded engine cannot
// serve; it wraps errors.ErrUnsupported.
func unsupported(op string) error {
	return fmt.Errorf("ivmeps: %s: %w on sharded engines", op, errors.ErrUnsupported)
}

// Load bulk-inserts rows (with multiplicity 1) into a relation before
// Build. Duplicate rows accumulate multiplicity.
func (e *Engine) Load(rel string, rows ...[]int64) error {
	for _, r := range rows {
		if err := e.LoadWeighted(rel, r, 1); err != nil {
			return err
		}
	}
	return nil
}

// LoadWeighted bulk-inserts one row with a positive multiplicity before
// Build.
func (e *Engine) LoadWeighted(rel string, row []int64, mult int64) error {
	if e.built {
		return fmt.Errorf("ivmeps: Load after Build; use Insert/Delete/Apply or a Batch")
	}
	r, ok := e.initial[rel]
	if !ok {
		return fmt.Errorf("ivmeps: %w: %q (query %s)", ErrUnknownRelation, rel, e.q)
	}
	if mult <= 0 {
		return fmt.Errorf("ivmeps: initial multiplicity must be positive, got %d", mult)
	}
	return wrapErr(r.Add(tuple.Tuple(row), mult))
}

// Build runs the preprocessing stage over the loaded data — on a sharded
// engine, partitions it across the shards and preprocesses them in
// parallel. It must be called exactly once, before any
// Insert/Delete/Apply/Snapshot.
func (e *Engine) Build() error {
	if e.built {
		return fmt.Errorf("ivmeps: Build called twice")
	}
	var err error
	if e.fed != nil {
		err = e.fed.Preprocess(e.initial)
	} else {
		err = core.Preprocess(e.e, e.initial)
	}
	if err != nil {
		return wrapErr(err)
	}
	e.built = true
	e.initial = nil
	if e.wal != nil {
		// Durable engines seed the log directory with a checkpoint of the
		// built state (epoch 1), so Open always finds a base to replay from;
		// only then do commits start logging.
		if err := e.Checkpoint(); err != nil {
			return fmt.Errorf("ivmeps: Build: writing the initial checkpoint: %w", err)
		}
		e.e.SetCommitHook(e.walHook)
	}
	return nil
}

// Insert applies the single-tuple insert {row → 1}.
func (e *Engine) Insert(rel string, row []int64) error { return e.Apply(rel, row, 1) }

// Delete applies the single-tuple delete {row → −1}. Deleting more than the
// stored multiplicity is rejected.
func (e *Engine) Delete(rel string, row []int64) error { return e.Apply(rel, row, -1) }

// Apply applies the single-tuple update {row → mult} (positive to insert,
// negative to delete) as a one-op commit. The amortized cost is
// O(N^(δε)); on a sharded engine only the shards owning the affected
// occurrences update.
func (e *Engine) Apply(rel string, row []int64, mult int64) error {
	if !e.built {
		return fmt.Errorf("ivmeps: Apply: %w (call Build first)", ErrNotBuilt)
	}
	return wrapErr(e.m.Update(rel, tuple.Tuple(row), mult))
}

// Close releases the engine's worker goroutines, if any were started
// (a parallel commit, or a commit spanning several shards), and — on a
// durable engine — flushes and closes the write-ahead log, pushing any
// commits buffered under SyncOff to the OS. It returns the log's flush error, if
// any; an engine without durability always returns nil. The engine's
// in-memory state remains usable after Close, but a durable engine logs no
// further commits — Close is for shutdown.
//
// Close is idempotent — a second Close returns nil — and wedge-safe: on an
// engine whose log wedged (LogWedgedError), Close writes nothing to the log
// files (no flush, no fsync; the wedge means their state is unknowable) and
// returns nil, the wedge having already been reported to the mutation that
// latched it.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.m.Close()
	if e.wal == nil {
		return nil
	}
	e.e.SetCommitHook(nil)
	err := e.wal.Close()
	e.wal = nil
	return wrapErr(err)
}

// Snapshot captures the current committed state for concurrent reading:
// the returned Snapshot enumerates that exact state no matter how the
// engine is updated afterwards, without blocking the writer (see the
// package documentation). Snapshot may be called from any goroutine; if a
// batch is in flight it blocks until the batch commits. The Snapshot
// itself is not safe for concurrent use — take one per reader goroutine
// (they share storage). Close it when done. A sharded engine's snapshot
// captures every shard at one federation epoch.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if !e.built {
		return nil, fmt.Errorf("ivmeps: Snapshot: %w (call Build first)", ErrNotBuilt)
	}
	if e.fed != nil {
		return &Snapshot{s: e.fed.Snapshot()}, nil
	}
	return &Snapshot{s: e.e.Snapshot()}, nil
}

// Epoch returns the engine's committed epoch: the number of committed
// write operations, with Build counting as the first (0 before Build). It
// equals the Epoch of a Snapshot captured now, without capturing one. A
// failed or empty commit leaves it unchanged. Epoch may be called from any
// goroutine.
func (e *Engine) Epoch() uint64 { return e.m.Epoch() }

// reader is what a Snapshot reads: a core snapshot, or a federation
// snapshot gathering K of them.
type reader interface {
	Epoch() uint64
	Enumerate(yield func(t tuple.Tuple, m int64) bool)
	Close()
}

// Snapshot is an immutable view of one committed engine state, enumerable
// concurrently with updates to the engine it came from. See
// Engine.Snapshot.
type Snapshot struct {
	s reader
}

// Epoch identifies the committed state the snapshot observes: the number
// of committed write operations (Build counts as the first) at capture
// time. Two snapshots with equal epochs observe identical states.
func (s *Snapshot) Epoch() uint64 { return s.s.Epoch() }

// Enumerate yields every distinct result tuple of the snapshot's state
// (over the query's free variables, in head order) with its multiplicity,
// with O(N^(1−ε)) delay. The row slice is reused between calls; copy it to
// retain. Return false to stop early.
func (s *Snapshot) Enumerate(yield func(row []int64, mult int64) bool) {
	s.s.Enumerate(func(t tuple.Tuple, m int64) bool { return yield(t, m) })
}

// All returns an iterator over the snapshot's state, for use with range:
// every distinct result tuple with its multiplicity, in head order, with
// the same delay guarantee as Enumerate. The yielded row slice is reused
// between iterations; copy it to retain. The iterator may be ranged over
// several times; every pass enumerates the same committed state.
func (s *Snapshot) All() iter.Seq2[[]int64, int64] {
	return func(yield func([]int64, int64) bool) {
		s.Enumerate(yield)
	}
}

// Rows materializes the snapshot's full result as (row, multiplicity)
// pairs; intended for small results and tests.
func (s *Snapshot) Rows() (rows [][]int64, mults []int64) {
	s.Enumerate(func(row []int64, m int64) bool {
		c := make([]int64, len(row))
		copy(c, row)
		rows = append(rows, c)
		mults = append(mults, m)
		return true
	})
	return rows, mults
}

// Count returns the number of distinct result tuples in the snapshot's
// state (by enumeration).
func (s *Snapshot) Count() int {
	n := 0
	s.Enumerate(func([]int64, int64) bool { n++; return true })
	return n
}

// Close releases the snapshot, letting the writer stop preserving its
// generation. It is idempotent; the snapshot must not be used afterwards.
func (s *Snapshot) Close() { s.s.Close() }

// N returns the current database size: the total number of distinct tuples
// across the query's relations, each counted once regardless of sharding.
// N may be called from any goroutine.
func (e *Engine) N() int { return e.m.N() }

// Epsilon returns the engine's trade-off parameter.
func (e *Engine) Epsilon() float64 { return e.eps }

// Stats reports maintenance activity counters. On a sharded engine they
// are the shards' counters summed: broadcast relations contribute work on
// every shard, so counters can exceed a single engine's for the same
// logical workload — they measure work done, not logical operations.
type Stats struct {
	Updates         int64
	MinorRebalances int64
	MajorRebalances int64
	ViewDeltas      int64
	// Batches counts applied commits — every Apply, Insert, Delete and
	// Commit that published an epoch, a single-tuple Apply being a one-op
	// commit — and BatchRelations the distinct relations
	// with a net effect (ops that did not cancel out within the commit),
	// summed over those commits: BatchRelations/Batches is the mean
	// effective fan-out of the ingest stream across the query's relations.
	Batches        int64
	BatchRelations int64
}

// Explain returns a human-readable description of the engine's strategy:
// the query's classification, the cost guarantees at this ε, and the view
// trees, heavy/light indicators, and relation partitions it maintains. A
// sharded engine returns the refusal text instead. Explain may be called
// from any goroutine.
func (e *Engine) Explain() string {
	if e.fed != nil {
		return unsupported("Explain").Error()
	}
	return e.e.Explain()
}

// Stats returns activity counters. It may be called from any goroutine.
func (e *Engine) Stats() Stats {
	s := e.m.Stats()
	return Stats{
		Updates:         s.Updates,
		MinorRebalances: s.MinorRebalances,
		MajorRebalances: s.MajorRebalances,
		ViewDeltas:      s.DeltasApplied,
		Batches:         s.Batches,
		BatchRelations:  s.BatchRelations,
	}
}
