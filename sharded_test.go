package ivmeps_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ivmeps"
)

// shardedPair builds an engine from New and one from NewSharded over the
// same query and the same initial load, ready for parallel driving.
func shardedPair(t *testing.T, qs string, k int, rng *rand.Rand, n int, domain int64) (*ivmeps.Engine, *ivmeps.Engine) {
	t.Helper()
	q := ivmeps.MustParseQuery(qs)
	e, err := ivmeps.New(q, ivmeps.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Options: ivmeps.Options{Epsilon: 0.5}, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range q.Relations() {
		arity := len(q.Schema(rel))
		for i := 0; i < n; i++ {
			row := make([]int64, arity)
			for j := range row {
				row[j] = rng.Int63n(domain)
			}
			if err := e.Load(rel, row); err != nil {
				t.Fatal(err)
			}
			if err := s.Load(rel, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	return e, s
}

// resultOf reads e's committed result through a snapshot it closes before
// returning.
func resultOf(t testing.TB, e *ivmeps.Engine) map[string]int64 {
	t.Helper()
	res, _ := durState(t, e)
	return res
}

func publicResultMap(enum func(func([]int64, int64) bool)) map[string]int64 {
	out := map[string]int64{}
	enum(func(row []int64, m int64) bool {
		out[fmt.Sprint(row)] = m
		return true
	})
	return out
}

func requireSameResults(t *testing.T, label string, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result rows, want %d", label, len(got), len(want))
	}
	for k, m := range want {
		if got[k] != m {
			t.Fatalf("%s: row %s has mult %d, want %d", label, k, got[k], m)
		}
	}
}

// TestShardedMatchesEngine drives the same mixed update stream — single
// applies and multi-relation batches — through an engine from New and
// sharded engines at several K, comparing results, N, and snapshot epochs after
// every commit.
func TestShardedMatchesEngine(t *testing.T) {
	const qs = "Q(A, B, C) = R(A, B), S(A, C)"
	for _, k := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			e, s := shardedPair(t, qs, k, rng, 50, 9)
			defer e.Close()
			defer s.Close()
			if s.Shards() != k {
				t.Fatalf("Shards() = %d, want %d", s.Shards(), k)
			}

			requireSameResults(t, "after build", resultOf(t, s), resultOf(t, e))
			if s.N() != e.N() {
				t.Fatalf("N = %d, engine N = %d", s.N(), e.N())
			}

			eb, sb := e.NewBatch(), s.NewBatch()
			for c := 0; c < 5; c++ {
				eb.Reset()
				sb.Reset()
				for i := 0; i < 25; i++ {
					rel := []string{"R", "S"}[rng.Intn(2)]
					row := []int64{rng.Int63n(9), rng.Int63n(9)}
					eb.Insert(rel, row)
					sb.Insert(rel, row)
				}
				if err := e.Commit(eb); err != nil {
					t.Fatal(err)
				}
				if err := s.Commit(sb); err != nil {
					t.Fatal(err)
				}
				row := []int64{rng.Int63n(9), rng.Int63n(9)}
				if err := e.Insert("R", row); err != nil {
					t.Fatal(err)
				}
				if err := s.Insert("R", row); err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("commit %d", c),
					resultOf(t, s), resultOf(t, e))
				es, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				ss, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if es.Epoch() != ss.Epoch() {
					t.Fatalf("commit %d: sharded epoch %d, engine epoch %d", c, ss.Epoch(), es.Epoch())
				}
				requireSameResults(t, fmt.Sprintf("commit %d snapshot", c),
					publicResultMap(ss.Enumerate), publicResultMap(es.Enumerate))
				if ss.Count() != es.Count() {
					t.Fatalf("commit %d: sharded Count %d, engine %d", c, ss.Count(), es.Count())
				}
				es.Close()
				ss.Close()
				if s.N() != e.N() {
					t.Fatalf("commit %d: N = %d, engine N = %d", c, s.N(), e.N())
				}
			}
		})
	}
}

// TestShardedErrors covers the public error contract of the sharded paths:
// sentinels, structured errors, shard attribution, and all-or-nothing on
// failure.
func TestShardedErrors(t *testing.T) {
	q := ivmeps.MustParseQuery("Q(A, B, C) = R(A, B), S(A, C)")
	s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Insert("R", []int64{1, 2}); !errors.Is(err, ivmeps.ErrNotBuilt) {
		t.Errorf("Insert before Build returned %v, want ErrNotBuilt", err)
	}
	if err := s.Commit(s.NewBatch()); !errors.Is(err, ivmeps.ErrNotBuilt) {
		t.Errorf("Commit before Build returned %v, want ErrNotBuilt", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, ivmeps.ErrNotBuilt) {
		t.Errorf("Snapshot before Build returned %v, want ErrNotBuilt", err)
	}
	if err := s.Load("nope", []int64{1}); !errors.Is(err, ivmeps.ErrUnknownRelation) {
		t.Errorf("Load of unknown relation returned %v", err)
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(); err == nil {
		t.Error("second Build accepted")
	}

	if err := s.Insert("nope", []int64{1, 2}); !errors.Is(err, ivmeps.ErrUnknownRelation) {
		t.Errorf("Insert into unknown relation returned %v", err)
	}
	var ae *ivmeps.ArityError
	if err := s.Insert("R", []int64{1, 2, 3}); !errors.As(err, &ae) {
		t.Errorf("arity mismatch returned %v, want *ArityError", err)
	} else if ae.Relation != "R" || len(ae.Schema) != 2 {
		t.Errorf("ArityError = %+v", ae)
	}
	// Shard-detected failure: over-delete. The error carries the shard and
	// unwraps to the public MultiplicityError; the engine is unchanged.
	before := resultOf(t, s)
	b := s.NewBatch()
	for v := int64(0); v < 16; v++ {
		b.Insert("R", []int64{v, v})
	}
	b.Apply("S", []int64{77, 77}, -2)
	err = s.Commit(b)
	if err == nil {
		t.Fatal("over-deleting batch accepted")
	}
	var se *ivmeps.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("shard-detected failure returned %T, want *ShardError", err)
	}
	if se.Shard < 0 || se.Shard >= s.Shards() {
		t.Errorf("ShardError.Shard = %d, want in [0, %d)", se.Shard, s.Shards())
	}
	var me *ivmeps.MultiplicityError
	if !errors.As(err, &me) {
		t.Errorf("MultiplicityError not reachable through ShardError: %v", err)
	} else if me.Relation != "S" || me.Have != 0 || me.Delta != -2 {
		t.Errorf("MultiplicityError = %+v", me)
	}
	requireSameResults(t, "failed commit", resultOf(t, s), before)

	// A foreign batch is rejected: engine batches do not commit to sharded
	// engines and vice versa.
	e, err := ivmeps.New(q, ivmeps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(e.NewBatch().Insert("R", []int64{1, 2})); err == nil {
		t.Error("engine-owned batch accepted by sharded Commit")
	}
	if err := e.Commit(s.NewBatch().Insert("R", []int64{1, 2})); err == nil {
		t.Error("sharded-owned batch accepted by engine Commit")
	}
}

// TestShardedRefusalParity runs the same refused writes through an engine
// from New and one from NewSharded (K=2) and requires the same error class
// from both. It also pins what only a sharded engine refuses, and the
// Epoch and Close contracts both kinds share.
func TestShardedRefusalParity(t *testing.T) {
	q := ivmeps.MustParseQuery("Q(A, B, C) = R(A, B), S(A, C)")
	pair := func(opts ivmeps.Options) [2]*ivmeps.Engine {
		t.Helper()
		e, err := ivmeps.New(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Options: opts, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		engines := [2]*ivmeps.Engine{e, s}
		for _, x := range engines {
			t.Cleanup(func() { x.Close() })
			if err := x.Load("R", []int64{1, 2}, []int64{3, 4}); err != nil {
				t.Fatal(err)
			}
			if err := x.Load("S", []int64{1, 5}); err != nil {
				t.Fatal(err)
			}
			if err := x.Build(); err != nil {
				t.Fatal(err)
			}
		}
		return engines
	}
	dynamic := pair(ivmeps.Options{Epsilon: 0.5})
	static := pair(ivmeps.Options{Epsilon: 0.5, Static: true})
	kinds := [2]string{"New", "NewSharded"}

	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}
	staticNoShard := func(err error) bool {
		var se *ivmeps.ShardError
		return errors.Is(err, ivmeps.ErrStatic) && !errors.As(err, &se)
	}
	cases := []struct {
		name    string
		engines [2]*ivmeps.Engine
		write   func(*ivmeps.Engine) error
		class   func(error) bool
	}{
		{"unknown relation at zero multiplicity", dynamic,
			func(e *ivmeps.Engine) error { return e.Apply("nope", []int64{1, 2}, 0) },
			is(ivmeps.ErrUnknownRelation)},
		{"static zero-multiplicity write", static,
			func(e *ivmeps.Engine) error { return e.Apply("R", []int64{1, 2}, 0) },
			is(ivmeps.ErrStatic)},
		{"static empty commit", static,
			func(e *ivmeps.Engine) error { return e.Commit(e.NewBatch()) },
			is(ivmeps.ErrStatic)},
		{"static non-empty commit", static,
			func(e *ivmeps.Engine) error {
				return e.Commit(e.NewBatch().Insert("R", []int64{7, 8}).Insert("S", []int64{9, 9}))
			},
			staticNoShard},
		{"arity", dynamic,
			func(e *ivmeps.Engine) error { return e.Apply("R", []int64{1, 2, 3}, 1) },
			func(err error) bool {
				var ae *ivmeps.ArityError
				return errors.As(err, &ae)
			}},
		{"over-delete", dynamic,
			func(e *ivmeps.Engine) error { return e.Apply("R", []int64{77, 77}, -1) },
			func(err error) bool {
				var me *ivmeps.MultiplicityError
				return errors.As(err, &me)
			}},
	}
	for _, c := range cases {
		for i, e := range c.engines {
			before := e.Epoch()
			if err := c.write(e); !c.class(err) {
				t.Errorf("%s: %s engine returned %v", c.name, kinds[i], err)
			}
			if e.Epoch() != before {
				t.Errorf("%s: %s engine moved its epoch from %d to %d", c.name, kinds[i], before, e.Epoch())
			}
		}
	}

	s := dynamic[1]
	if _, err := s.Watch(ivmeps.WatchOptions{}); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("sharded Watch returned %v, want ErrUnsupported", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("sharded Checkpoint returned %v, want ErrUnsupported", err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.ViewRows("V"); !errors.Is(err, errors.ErrUnsupported) {
		t.Errorf("sharded Snapshot.ViewRows returned %v, want ErrUnsupported", err)
	}
	snap.Close()
	if v := s.Views(); v != nil {
		t.Errorf("sharded Views() = %v, want nil", v)
	}
	if x := s.Explain(); !strings.Contains(x, errors.ErrUnsupported.Error()) {
		t.Errorf("sharded Explain() = %q, want the refusal text", x)
	}

	for i, e := range dynamic {
		if err := e.Insert("R", []int64{5, 6}); err != nil {
			t.Fatal(err)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if e.Epoch() != snap.Epoch() || e.Epoch() != 2 {
			t.Errorf("%s engine: Epoch() = %d, Snapshot().Epoch() = %d, want both 2", kinds[i], e.Epoch(), snap.Epoch())
		}
		snap.Close()
		if err := e.Close(); err != nil {
			t.Errorf("%s engine: Close returned %v", kinds[i], err)
		}
		if err := e.Close(); err != nil {
			t.Errorf("%s engine: second Close returned %v, want nil", kinds[i], err)
		}
	}
}

// TestShardedShardKey pins the public routing report.
func TestShardedShardKey(t *testing.T) {
	s, err := ivmeps.NewSharded(ivmeps.MustParseQuery("Q(A, B, C) = R(A, B), S(A, C)"),
		ivmeps.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vars, concat := s.ShardKey()
	if len(vars) != 1 || vars[0] != "A" || !concat {
		t.Errorf("ShardKey() = %v concat=%v, want [A] concat=true", vars, concat)
	}
	boolS, err := ivmeps.NewSharded(ivmeps.MustParseQuery("Q() = R(A, B), S(B)"),
		ivmeps.ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer boolS.Close()
	if _, concat := boolS.ShardKey(); concat {
		t.Error("Boolean query reported a concatenating gather")
	}
}

// TestShardedCommitSteadyStateZeroAllocs pins the public sharded commit
// path — Batch build with id stamping, scatter, two-phase apply across 4
// shards — at zero heap allocations per warm cycle.
func TestShardedCommitSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	_, s := shardedPair(t, "Q(A, B, C) = R(A, B), S(A, C)", 4, rng, 200, 40)
	defer s.Close()
	const rows = 32
	buf := make([][]int64, 2*rows)
	flat := make([]int64, 4*rows)
	for i := range buf {
		buf[i] = flat[2*i : 2*i+2]
	}
	b := s.NewBatch()
	next := int64(9000)
	cycle := func() {
		b.Reset()
		for i := 0; i < rows; i++ {
			r := buf[2*i]
			r[0], r[1] = next, next+1
			b.Insert("R", r)
			r2 := buf[2*i+1]
			r2[0], r2[1] = next, next+2
			b.Insert("S", r2)
			next += 3
		}
		if err := s.Commit(b); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		for i := 0; i < rows; i++ {
			b.Delete("R", buf[2*i])
			b.Delete("S", buf[2*i+1])
		}
		if err := s.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("steady sharded commit cycle allocates %v per run, want 0", n)
	}
}

// TestStatsBatchesCountEveryCommit pins the one meaning of Stats.Batches:
// every applied commit counts, a single-tuple Apply being a one-op commit.
// The same mixed Apply/Commit stream on a New engine and on a one-shard
// NewSharded engine must report the same Updates, Batches and
// BatchRelations.
func TestStatsBatchesCountEveryCommit(t *testing.T) {
	e, s := shardedPair(t, "Q(A, C) = R(A, B), S(B, C)", 1, rand.New(rand.NewSource(12)), 20, 6)
	type stats struct{ updates, batches, rels int64 }
	get := func(st ivmeps.Stats) stats { return stats{st.Updates, st.Batches, st.BatchRelations} }
	before := get(e.Stats())
	applyBoth := func(rel string, row []int64, mult int64) {
		t.Helper()
		errE, errS := e.Apply(rel, row, mult), s.Apply(rel, row, mult)
		if (errE == nil) != (errS == nil) {
			t.Fatalf("Apply(%s, %v, %d): engine error %v, sharded error %v", rel, row, mult, errE, errS)
		}
	}
	commitBoth := func(fill func(b *ivmeps.Batch)) {
		t.Helper()
		be, bs := e.NewBatch(), s.NewBatch()
		fill(be)
		fill(bs)
		errE, errS := e.Commit(be), s.Commit(bs)
		if errE != nil || errS != nil {
			t.Fatalf("Commit: engine error %v, sharded error %v", errE, errS)
		}
	}
	applyBoth("R", []int64{100, 1}, 1)
	applyBoth("S", []int64{1, 200}, 2)
	commitBoth(func(b *ivmeps.Batch) {
		b.Insert("R", []int64{101, 1}).Insert("S", []int64{1, 201})
	})
	commitBoth(func(b *ivmeps.Batch) {
		// R nets to zero: the commit counts, with one relation of effect.
		b.Insert("R", []int64{102, 2}).Delete("R", []int64{102, 2}).Insert("S", []int64{2, 202})
	})
	applyBoth("R", []int64{100, 1}, -1)
	applyBoth("R", []int64{999, 999}, -1) // rejected: counts nowhere
	applyBoth("S", []int64{1, 200}, 0)    // no-op: counts nowhere

	gotE, gotS := get(e.Stats()), get(s.Stats())
	if gotE != gotS {
		t.Fatalf("New engine stats %+v, NewSharded (K=1) stats %+v: want equal", gotE, gotS)
	}
	want := stats{updates: before.updates + 8, batches: before.batches + 5, rels: before.rels + 6}
	if gotE != want {
		t.Fatalf("Engine stats %+v, want %+v", gotE, want)
	}
}
