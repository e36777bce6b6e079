package benchutil

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// GoBenchResult is one parsed line of `go test -bench` output.
type GoBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// GoBenchReport is a parsed `go test -bench` run: the environment header
// lines plus every benchmark result, in input order. It is the schema of
// the BENCH_*.json perf-trajectory files.
type GoBenchReport struct {
	Goos       string          `json:"goos,omitempty"`
	Goarch     string          `json:"goarch,omitempty"`
	Pkg        string          `json:"pkg,omitempty"`
	CPU        string          `json:"cpu,omitempty"`
	Benchmarks []GoBenchResult `json:"benchmarks"`
}

// ParseGoBench parses the plain-text output of `go test -bench` (with or
// without -benchmem) into a report. Unrecognized lines are skipped, so the
// full test output can be piped in unfiltered. Benchmark names are
// normalized to the GOMAXPROCS=1 form (see stripProcs), so reports from
// machines with different CPU counts compare by name.
func ParseGoBench(r io.Reader) (*GoBenchReport, error) {
	rep := &GoBenchReport{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shape: Name iterations value unit [value unit ...]
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := GoBenchResult{Name: fields[0], Iterations: iters}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	stripProcs(rep.Benchmarks)
	return rep, nil
}

// stripProcs removes the "-N" suffix go test appends to every benchmark
// name when GOMAXPROCS is N > 1. It strips only when every benchmark
// carries the same such suffix: a 1-CPU run appends none, and its names
// may themselves end in digits (K=4, size-16).
func stripProcs(bs []GoBenchResult) {
	suffix := ""
	for i, b := range bs {
		j := strings.LastIndexByte(b.Name, '-')
		if j < 0 || j == len(b.Name)-1 || strings.Trim(b.Name[j+1:], "0123456789") != "" {
			return
		}
		if i == 0 {
			suffix = b.Name[j:]
		} else if b.Name[j:] != suffix {
			return
		}
	}
	for i := range bs {
		bs[i].Name = strings.TrimSuffix(bs[i].Name, suffix)
	}
}
