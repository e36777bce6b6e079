package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// encodeStream serializes a generator's base (relations in name order)
// and its first n commits.
func encodeStream(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	g, err := newGen(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	put := func(v int64) { binary.Write(&buf, binary.LittleEndian, v) }
	putOp := func(rel string, row []int64, mult int64) {
		buf.WriteString(rel)
		put(int64(len(row)))
		for _, v := range row {
			put(v)
		}
		put(mult)
	}
	for _, rel := range sortedRels(g.base) {
		for _, row := range g.base[rel] {
			putOp(rel, row, 1)
		}
	}
	for range n {
		ops := g.next()
		put(int64(len(ops)))
		for _, o := range ops {
			putOp(o.rel, o.row, o.mult)
		}
	}
	return buf.Bytes()
}

func TestOpStreamIsByteIdenticalForASeed(t *testing.T) {
	for _, w := range workloadNames() {
		a := encodeStream(t, w, 7, 400)
		b := encodeStream(t, w, 7, 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams for seed 7 differ", w)
		}
		if c := encodeStream(t, w, 8, 400); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
	}
}

func TestSummarizePicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		tailPct float64
		tail    float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 90, 900},
		{100, 90, 90},
		{99, 50, 50}, // p90 would leave only 9 samples above it
		{25, 50, 13},
		{15, 0, 0}, // not even the median leaves ten above it
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.TailPct != tc.tailPct || s.Tail != tc.tail {
			t.Errorf("n=%d: got N=%d p%g=%g, want p%g=%g", tc.n, s.N, s.TailPct, s.Tail, tc.tailPct, tc.tail)
		}
	}
	if s := summarize(seq(1000)); s.P50 != 500 {
		t.Errorf("median of 1..1000 = %g, want 500", s.P50)
	}
}

func TestSelfTimesSubtractCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.commit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.commit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "server.commit", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "server.commit", Start: 90, End: 120}, // runs past 1
		{ID: 5, Parent: 2, Name: "engine", Start: 15, End: 20},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json at the
// repository root and the metric lists the program reports in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	for _, c := range []struct {
		what             string
		fromJSON, fromGo []string
	}{
		{"workloads", names(spec.Workloads), workloadNames()},
		{"end_to_end", names(spec.EndToEnd), slices.Sorted(slices.Values(endToEnd))},
		{"per_layer", names(spec.PerLayer), slices.Sorted(slices.Values(perLayer))},
	} {
		if !slices.Equal(c.fromJSON, c.fromGo) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program reports %v", c.what, c.fromJSON, c.fromGo)
		}
	}
}
