package benchutil

import (
	"strings"
	"testing"
)

func TestParseGoBench(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: ivmeps
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkUpdateSteadyState/q-hierarchical-8         	    8192	       626.8 ns/op	     191 B/op	       3 allocs/op
BenchmarkUpdateSteadyState/two-path-8               	    8192	      5870 ns/op	     725 B/op	      16 allocs/op
BenchmarkFig1Delay/eps=0.00-8                        	  100000	       101 ns/op
some stray output line
PASS
ok  	ivmeps	1.957s
`
	rep, err := ParseGoBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "ivmeps" {
		t.Fatalf("header = %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkUpdateSteadyState/q-hierarchical" || b0.Iterations != 8192 ||
		b0.NsPerOp != 626.8 || b0.BytesPerOp != 191 || b0.AllocsPerOp != 3 {
		t.Fatalf("first result = %+v", b0)
	}
	b2 := rep.Benchmarks[2]
	if b2.NsPerOp != 101 || b2.BytesPerOp != 0 || b2.AllocsPerOp != 0 {
		t.Fatalf("no-benchmem result = %+v", b2)
	}
}

// TestParseGoBenchProcsSuffix pins the GOMAXPROCS-suffix normalization:
// only a suffix every benchmark line shares is stripped.
func TestParseGoBenchProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []string
		want []string
	}{
		{"uniform -4 is stripped",
			[]string{"BenchmarkA-4", "BenchmarkSharded/K=4-4"},
			[]string{"BenchmarkA", "BenchmarkSharded/K=4"}},
		{"1-CPU names ending in digits are kept",
			[]string{"BenchmarkSharded/K=4", "BenchmarkSharded/K=8", "BenchmarkA"},
			[]string{"BenchmarkSharded/K=4", "BenchmarkSharded/K=8", "BenchmarkA"}},
		{"mixed suffixes are kept",
			[]string{"BenchmarkA", "BenchmarkA-2", "BenchmarkB-4"},
			[]string{"BenchmarkA", "BenchmarkA-2", "BenchmarkB-4"}},
	} {
		var in strings.Builder
		for _, n := range tc.in {
			in.WriteString(n + "\t100\t5 ns/op\n")
		}
		rep, err := ParseGoBench(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, b := range rep.Benchmarks {
			got = append(got, b.Name)
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%s: names %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParseGoBenchEmpty(t *testing.T) {
	rep, err := ParseGoBench(strings.NewReader("PASS\nok ivmeps 0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from empty input", len(rep.Benchmarks))
	}
}
