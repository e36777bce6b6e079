package ivmeps

import (
	"fmt"

	"ivmeps/internal/federation"
)

// ShardedOptions configures a sharded engine: the per-shard engine options
// plus the shard count.
type ShardedOptions struct {
	Options
	// Shards is the number of independent shard engines K; values below 1
	// mean a single shard. Each shard owns its view trees, its worker pool
	// (Options.Workers applies per shard), and its rebalancing state.
	Shards int
}

// Sharded is the former name of a sharded engine's type.
//
// Deprecated: NewSharded returns an *Engine; use Engine.
type Sharded = Engine

// ShardedSnapshot is the former name of a sharded engine's snapshot type.
//
// Deprecated: a sharded engine's Snapshot returns a *Snapshot; use Snapshot.
type ShardedSnapshot = Snapshot

// NewSharded creates an Engine that hash-shards one hierarchical query
// over K independent engines (see the package documentation's Sharding
// section). Relations of the query's shard component are partitioned by a
// hash of their shard-key columns (see ShardKey); relations of other
// components are broadcast to every shard. Commits are scattered into
// per-shard sub-batches and committed two-phase, so Commit stays
// all-or-nothing across shards. The query constraints are those of New.
// NewSharded refuses Options.Durability, and the engine refuses Watch,
// Checkpoint and Snapshot.ViewRows with an error wrapping
// errors.ErrUnsupported.
func NewSharded(q *Query, opts ShardedOptions) (*Engine, error) {
	if opts.Durability.enabled() {
		// Durable sharded engines need a per-shard log plus a federation
		// commit record to make the two-phase commit atomic across K logs;
		// the single-engine WAL would silently miss the federation's
		// PrepareCommit path. Refuse rather than pretend.
		return nil, fmt.Errorf("ivmeps: Durability is not supported on sharded engines")
	}
	f, err := federation.New(q.q, federation.Options{Shards: opts.Shards, Engine: opts.core()})
	if err != nil {
		return nil, err
	}
	e := newEngine(q, f, opts.Options)
	e.fed = f
	return e, nil
}

// Shards returns the shard count K: 1 for an engine from New.
func (e *Engine) Shards() int {
	if e.fed == nil {
		return 1
	}
	return e.fed.Shards()
}

// ShardKey returns the variables whose hash routes tuples to shards, and
// whether the gather concatenates per-shard enumerations. When every
// shard-key variable is free, each distinct result tuple lives on exactly
// one shard and enumeration concatenates the shards' streams, preserving
// the per-shard delay guarantee; otherwise — including Boolean queries —
// the gather sums multiplicities per distinct tuple across shards before
// yielding. An engine from New has no shard key: nil, false.
func (e *Engine) ShardKey() (vars []string, concat bool) {
	if e.fed == nil {
		return nil, false
	}
	sv, c := e.fed.ShardVars()
	vars = make([]string, len(sv))
	for i, v := range sv {
		vars[i] = string(v)
	}
	return vars, c
}
