package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// TestEnumWorkGolden pins Snapshot.Work, the machine-independent delay
// proxy, on fixed seeded fixtures: the total count of one full scan and
// the largest per-tuple count. Every tick() of the iterators is one unit, so
// any change to these numbers means an iterator moved, added or dropped a
// cursor advance or lookup — which the enumeration's cost model forbids a
// pure implementation change to do. If the algorithm itself changes on
// purpose, re-record them from a run of this test.
func TestEnumWorkGolden(t *testing.T) {
	twoPath := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	multi := query.MustParse(multiTreeQuery)
	cases := []struct {
		name          string
		q             *query.Query
		eps           float64
		db            func() naive.Database
		rows          int
		total, maxRow int64
	}{
		{"twopath/eps=0", twoPath, 0, func() naive.Database { return zipfTwoPath(77, 600) }, 22322, 1828547, 166},
		{"twopath/eps=0.5", twoPath, 0.5, func() naive.Database { return zipfTwoPath(77, 600) }, 22322, 105139, 14},
		{"twopath/eps=1", twoPath, 1, func() naive.Database { return zipfTwoPath(77, 600) }, 22322, 22324, 1},
		{"multitree/eps=0.5", multi, 0.5, func() naive.Database {
			return randomDB(multi, rand.New(rand.NewSource(31)), 400, 8)
		}, 64, 3797, 73},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := New(c.q, Options{Mode: viewtree.Dynamic, Epsilon: c.eps, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := Preprocess(e, c.db()); err != nil {
				t.Fatal(err)
			}
			rows, total, maxRow := scanWork(e, 0)
			if rows != c.rows || total != c.total || maxRow != c.maxRow {
				t.Errorf("rows %d, work %d, max work/tuple %d; want %d, %d, %d",
					rows, total, maxRow, c.rows, c.total, c.maxRow)
			}
		})
	}
}

// heavyTwoPath builds R(A, B), S(B, C) with n rows each: heavy B values
// 0..heavy-1 carry 200 R rows and 2 S rows apiece, and every other row has
// its own light B value joining exactly one row on the other side. The
// heavy keys stay heavy from n = 1000 to n = 4000 while the result grows
// with n.
func heavyTwoPath(n, heavy int) naive.Database {
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.NewSchema("B", "C")),
	}
	for h := 0; h < heavy; h++ {
		for i := 0; i < 200; i++ {
			db["R"].Set(tuple.Tuple{int64(h*1000 + i), int64(h)}, 1)
		}
		for i := 0; i < 2; i++ {
			db["S"].Set(tuple.Tuple{int64(h), int64(h*1000 + i)}, 1)
		}
	}
	for b := int64(heavy); db["R"].Size() < n; b++ {
		db["R"].Set(tuple.Tuple{1_000_000 + b, b}, 1)
		db["S"].Set(tuple.Tuple{b, 1_000_000 + b}, 1)
	}
	for b := int64(-1); db["S"].Size() < n; b-- {
		db["S"].Set(tuple.Tuple{b, b}, 1)
	}
	return db
}

// freeConnexDB builds R(A, B, C), S(A, B, D), T(A, E) with n rows each and
// four rows per A value in every relation, so no key is heavy at any n and
// the result (16 rows per A value) grows linearly with n.
func freeConnexDB(n int) naive.Database {
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B", "C")),
		"S": relation.New("S", tuple.NewSchema("A", "B", "D")),
		"T": relation.New("T", tuple.NewSchema("A", "E")),
	}
	for i := int64(0); i < int64(n); i++ {
		db["R"].Set(tuple.Tuple{i / 4, i % 4, i}, 1)
		db["S"].Set(tuple.Tuple{i / 4, i % 4, i}, 1)
		db["T"].Set(tuple.Tuple{i / 4, i}, 1)
	}
	return db
}

// TestScanAllocsIndependentOfRows checks that a full snapshot scan
// allocates per iterator node and per grounded heavy key, never per
// result tuple: the same query over N and 4N rows with the same number of
// heavy keys allocates exactly the same count.
func TestScanAllocsIndependentOfRows(t *testing.T) {
	cases := []struct {
		name string
		q    string
		db   func(n int) naive.Database
	}{
		{"twopath/eps=0.5", "Q(A, C) = R(A, B), S(B, C)", func(n int) naive.Database { return heavyTwoPath(n, 3) }},
		{"freeconnex/eps=0.5", "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", freeConnexDB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := query.MustParse(c.q)
			var rows [2]int
			var allocs [2]float64
			for i, n := range []int{1000, 4000} {
				e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := Preprocess(e, c.db(n)); err != nil {
					t.Fatal(err)
				}
				s := e.Snapshot()
				allocs[i] = testing.AllocsPerRun(3, func() {
					rows[i] = 0
					s.Enumerate(func(tuple.Tuple, int64) bool { rows[i]++; return true })
				})
				s.Close()
				e.Close()
			}
			t.Logf("rows %d -> %d, allocs per scan %.0f -> %.0f", rows[0], rows[1], allocs[0], allocs[1])
			if rows[1] < 2*rows[0] {
				t.Fatalf("fixture does not grow the result: %d -> %d rows", rows[0], rows[1])
			}
			if allocs[0] != allocs[1] {
				t.Errorf("scan allocations grow with the result: %.0f allocs at %d rows, %.0f at %d rows",
					allocs[0], rows[0], allocs[1], rows[1])
			}
		})
	}
}

// TestConcurrentSnapshotsGroundedLookups runs four readers, each on its own
// Snapshot of one epoch, over a two-path result with several heavy keys,
// so the grounded enumeration and grounded lookups of all four interleave
// on the shared frozen relations and node metadata. Each reader must see
// exactly the oracle's result; under -race this also catches enumeration
// scratch kept anywhere the snapshots share.
func TestConcurrentSnapshotsGroundedLookups(t *testing.T) {
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	db := heavyTwoPath(1500, 4)
	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	naive.MustEval(q, db).ForEach(func(t tuple.Tuple, m int64) { want[fmt.Sprint(t)] = m })
	epoch := e.Epoch()

	// Every reader holds its snapshot before any starts enumerating: the
	// snapshots' capture and release synchronize on the engine, so readers
	// that ran one after another would never overlap.
	var wg, held sync.WaitGroup
	errs := make([]error, 4)
	held.Add(len(errs))
	for r := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.Snapshot()
			defer s.Close()
			held.Done()
			held.Wait()
			if s.Epoch() != epoch {
				errs[r] = fmt.Errorf("reader %d: epoch %d, want %d", r, s.Epoch(), epoch)
				return
			}
			for pass := 0; pass < 3; pass++ {
				got := resultMap(s.Enumerate)
				if len(got) != len(want) {
					errs[r] = fmt.Errorf("reader %d pass %d: %d tuples, want %d", r, pass, len(got), len(want))
					return
				}
				for k, m := range want {
					if got[k] != m {
						errs[r] = fmt.Errorf("reader %d pass %d: tuple %s mult %d, want %d", r, pass, k, got[k], m)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
