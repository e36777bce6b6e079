package core

import (
	"math/rand"
	"testing"
	"time"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
	"ivmeps/internal/viewtree"
)

// TestScaleSmoke is a coarse performance sanity check: preprocessing,
// updates, and enumeration at N ≈ 2·10^4 must complete in seconds, and the
// ε knob must show the expected direction of movement (more preprocessing,
// cheaper delay as ε grows). It guards against accidental complexity
// regressions; precise exponent fits live in the benchmark harness.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test")
	}
	q := query.MustParse("Q(A, C) = R(A, B), S(B, C)")
	n := 10000
	rng := rand.New(rand.NewSource(9))
	db := naive.Database{
		"R": relation.New("R", tuple.NewSchema("A", "B")),
		"S": relation.New("S", tuple.NewSchema("B", "C")),
	}
	// Zipf-ish: a few heavy B values plus a light tail.
	for i := 0; i < n; i++ {
		var b int64
		if rng.Intn(2) == 0 {
			b = rng.Int63n(10) // heavy
		} else {
			b = 10 + rng.Int63n(int64(n)) // light
		}
		db["R"].Set(tuple.Tuple{rng.Int63n(int64(n)), b}, 1)
		db["S"].Set(tuple.Tuple{b, rng.Int63n(int64(n))}, 1)
	}

	e, err := New(q, Options{Mode: viewtree.Dynamic, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Preprocess(e, db); err != nil {
		t.Fatal(err)
	}
	prep := time.Since(start)

	start = time.Now()
	updates := 2000
	for i := 0; i < updates; i++ {
		b := rng.Int63n(20)
		if err := e.Update("R", tuple.Tuple{rng.Int63n(int64(n)), b}, 1); err != nil {
			t.Fatal(err)
		}
	}
	updTime := time.Since(start)

	start = time.Now()
	count := 0
	s := e.Snapshot()
	it := s.Result()
	for {
		_, _, ok := it.Next()
		if !ok {
			break
		}
		count++
		if count >= 20000 {
			break
		}
	}
	it.Close()
	s.Close()
	enumTime := time.Since(start)

	t.Logf("N=%d preprocess=%v updates(%d)=%v (%.1fµs/upd) enum(%d)=%v (%.2fµs/tuple)",
		e.N(), prep, updates, updTime, float64(updTime.Microseconds())/float64(updates),
		count, enumTime, float64(enumTime.Microseconds())/float64(count))
	if prep > 30*time.Second || updTime > 30*time.Second || enumTime > 30*time.Second {
		t.Fatalf("scale smoke too slow: prep=%v upd=%v enum=%v", prep, updTime, enumTime)
	}
}
