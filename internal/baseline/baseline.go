// Package baseline implements the comparison systems that populate the
// prior-work rows of the paper's Figures 2, 4, and 5:
//
//   - Recompute: no incremental state; the result is recomputed from
//     scratch at enumeration time (constant-time updates, O(N^w) "first
//     tuple" delay).
//   - FirstOrderIVM: classical first-order incremental view maintenance
//     [16]: the full result is materialized and maintained with one delta
//     query per update (O(1) delay, up to O(N^(w-1)) per update).
//   - PlainTree: a BuildVT view-tree hierarchy without skew-aware
//     partitioning, maintained by delta propagation — the DynYannakakis /
//     F-IVM style systems of Section 2 (linear preprocessing, O(1) delay
//     for free-connex queries, but up to O(N) per update on hard queries).
//   - IVMEps: the paper's engine at a chosen ε (internal/core), for
//     side-by-side runs.
//
// All systems implement the common System interface consumed by the
// benchmark harness.
package baseline

import (
	"fmt"

	"ivmeps/internal/core"
	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// System is the common interface over the paper's engine and the baselines.
type System interface {
	Name() string
	// Preprocess loads the initial database and builds any derived state.
	Preprocess(db naive.Database) error
	// Update applies a single-tuple update {t -> m}.
	Update(rel string, t tuple.Tuple, m int64) error
	// Enumerate yields every distinct result tuple with its multiplicity.
	Enumerate(yield func(t tuple.Tuple, m int64) bool)
}

// ---------------------------------------------------------------------------

// IVMEps wraps the paper's engine as a System.
type IVMEps struct {
	e   *core.Engine
	q   *query.Query
	eps float64
}

// NewIVMEps builds the paper's engine at ε in dynamic mode.
func NewIVMEps(q *query.Query, eps float64) (*IVMEps, error) {
	e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, Epsilon: eps})
	if err != nil {
		return nil, err
	}
	return &IVMEps{e: e, q: q, eps: eps}, nil
}

// NewIVMEpsStatic builds the paper's engine at ε in static mode (no update
// support, fewer views).
func NewIVMEpsStatic(q *query.Query, eps float64) (*IVMEps, error) {
	e, err := core.New(q, core.Options{Mode: viewtree.Static, Epsilon: eps})
	if err != nil {
		return nil, err
	}
	return &IVMEps{e: e, q: q, eps: eps}, nil
}

// Name identifies the system in experiment output.
func (s *IVMEps) Name() string { return fmt.Sprintf("ivm-eps(%.2f)", s.eps) }

// Preprocess runs the paper's preprocessing stage over db.
func (s *IVMEps) Preprocess(db naive.Database) error { return core.Preprocess(s.e, db) }

// Update applies a single-tuple update.
func (s *IVMEps) Update(rel string, t tuple.Tuple, m int64) error {
	return s.e.Update(rel, t, m)
}

// Enumerate yields the distinct result tuples with multiplicities from a
// snapshot of the current state.
func (s *IVMEps) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	sn := s.e.Snapshot()
	defer sn.Close()
	sn.Enumerate(yield)
}

// Engine exposes the wrapped engine for inspection.
func (s *IVMEps) Engine() *core.Engine { return s.e }

// ---------------------------------------------------------------------------

// Recompute is the no-preprocessing baseline: updates touch only the base
// relations; enumeration recomputes the result on demand.
type Recompute struct {
	q      *query.Query
	db     naive.Database
	result *relation.Relation
	dirty  bool
}

// NewRecompute builds the recompute baseline.
func NewRecompute(q *query.Query) *Recompute {
	return &Recompute{q: q.Clone(), db: naive.Database{}, dirty: true}
}

// Name identifies the system in experiment output.
func (s *Recompute) Name() string { return "recompute" }

// Preprocess loads the initial database.
func (s *Recompute) Preprocess(db naive.Database) error {
	for _, a := range s.q.Atoms {
		if _, ok := s.db[a.Rel]; !ok {
			s.db[a.Rel] = relation.New(a.Rel, a.Vars)
		}
	}
	for name, r := range db {
		if _, ok := s.db[name]; !ok {
			return fmt.Errorf("recompute: relation %s not in query", name)
		}
		r.ForEach(func(t tuple.Tuple, m int64) { s.db[name].MustAdd(t, m) })
	}
	s.dirty = true
	return nil
}

// Update applies a single-tuple update and marks the cached result stale.
func (s *Recompute) Update(rel string, t tuple.Tuple, m int64) error {
	r, ok := s.db[rel]
	if !ok {
		return fmt.Errorf("recompute: unknown relation %s", rel)
	}
	if err := r.Add(t, m); err != nil {
		return err
	}
	s.dirty = true
	return nil
}

// Enumerate re-evaluates the query if stale, then yields the result.
func (s *Recompute) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	if s.dirty {
		s.result = naive.MustEval(s.q, s.db)
		s.dirty = false
	}
	s.result.ForEachUntil(yield)
}

// ---------------------------------------------------------------------------

// FirstOrderIVM materializes the full query result and maintains it with
// one first-order delta query per single-tuple update (classical IVM [16]).
type FirstOrderIVM struct {
	q      *query.Query
	db     naive.Database
	result *relation.Relation
}

// NewFirstOrderIVM builds the classical IVM baseline. Queries with repeated
// relation symbols are rejected: their deltas mix old and new relation
// states per occurrence, which requires the per-occurrence copies that only
// the main engine keeps.
func NewFirstOrderIVM(q *query.Query) (*FirstOrderIVM, error) {
	if q.HasRepeatedSymbols() {
		return nil, fmt.Errorf("fo-ivm: repeated relation symbols are not supported")
	}
	return &FirstOrderIVM{q: q.Clone(), db: naive.Database{}}, nil
}

// Name identifies the system in experiment output.
func (s *FirstOrderIVM) Name() string { return "fo-ivm" }

// Preprocess loads the initial database and materializes the result.
func (s *FirstOrderIVM) Preprocess(db naive.Database) error {
	for _, a := range s.q.Atoms {
		if _, ok := s.db[a.Rel]; !ok {
			s.db[a.Rel] = relation.New(a.Rel, a.Vars)
		}
	}
	for name, r := range db {
		if _, ok := s.db[name]; !ok {
			return fmt.Errorf("fo-ivm: relation %s not in query", name)
		}
		r.ForEach(func(t tuple.Tuple, m int64) { s.db[name].MustAdd(t, m) })
	}
	s.result = naive.MustEval(s.q, s.db)
	return nil
}

// Update applies the first-order delta rule to the materialized result.
func (s *FirstOrderIVM) Update(rel string, t tuple.Tuple, m int64) error {
	r, ok := s.db[rel]
	if !ok {
		return fmt.Errorf("fo-ivm: unknown relation %s", rel)
	}
	if cur := r.Mult(t); cur+m < 0 {
		return &relation.MultiplicityError{Relation: rel, Tuple: t.Clone(), Have: cur, Delta: m}
	}
	// The delta query δQ replaces rel's atom by the single-tuple delta and
	// joins it with the other relations, seeded at the delta.
	for i, a := range s.q.Atoms {
		if a.Rel != rel {
			continue
		}
		dq := s.q.Clone()
		dq.Atoms[i].Rel = "__delta"
		dr := relation.New("__delta", s.db[rel].Schema())
		sign := int64(1)
		if m < 0 {
			sign = -1
		}
		dr.MustAdd(t, sign*m) // store |m|; the sign is re-applied below
		s.db["__delta"] = dr
		deltaQ, err := naive.EvalSeeded(dq, s.db, i)
		delete(s.db, "__delta")
		if err != nil {
			return err
		}
		var applyErr error
		deltaQ.ForEach(func(dt tuple.Tuple, dm int64) {
			if applyErr == nil {
				applyErr = s.result.Add(dt, sign*dm)
			}
		})
		if applyErr != nil {
			return applyErr
		}
		break
	}
	return r.Add(t, m)
}

// Enumerate yields the maintained result.
func (s *FirstOrderIVM) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	s.result.ForEachUntil(yield)
}

// ---------------------------------------------------------------------------

// PlainTree maintains the BuildVT view-tree hierarchy with no skew-aware
// partitioning (Section 4.1), standing in for the DynYannakakis / F-IVM
// systems discussed in Section 2.
type PlainTree struct {
	e *core.Engine
}

// NewPlainTree builds the plain view-tree baseline.
func NewPlainTree(q *query.Query) (*PlainTree, error) {
	e, err := core.New(q, core.Options{Mode: viewtree.Dynamic, PlainViewTree: true})
	if err != nil {
		return nil, err
	}
	return &PlainTree{e: e}, nil
}

// Name identifies the system in experiment output.
func (s *PlainTree) Name() string { return "plain-tree" }

// Preprocess runs preprocessing over the plain view tree.
func (s *PlainTree) Preprocess(db naive.Database) error { return core.Preprocess(s.e, db) }

// Update applies a single-tuple update through the plain view tree.
func (s *PlainTree) Update(rel string, t tuple.Tuple, m int64) error {
	return s.e.Update(rel, t, m)
}

// Enumerate yields the distinct result tuples with multiplicities from a
// snapshot of the current state.
func (s *PlainTree) Enumerate(yield func(t tuple.Tuple, m int64) bool) {
	sn := s.e.Snapshot()
	defer sn.Close()
	sn.Enumerate(yield)
}
