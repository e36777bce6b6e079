package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"time"
)

// tailPercentiles are the candidate tail percentiles, highest first. A
// summary reports the highest one that leaves at least minBeyond samples
// above it, so a tail figure is never read off one or two outliers.
var tailPercentiles = []float64{99.9, 99, 90, 50}

const minBeyond = 10

// summary is a timing distribution reduced to its median and its highest
// supported tail percentile, with the sample count they rest on.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when no candidate percentile is supported
	Tail    float64
}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002) from
	// pushing an exact rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return max(0, min(i, n-1))
}

// summarize reduces xs to a summary (xs is left as it is).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	xs = slices.Sorted(slices.Values(xs))
	s.P50 = xs[rankIndex(50, len(xs))]
	for _, p := range tailPercentiles {
		i := rankIndex(p, len(xs))
		if len(xs)-1-i >= minBeyond {
			s.TailPct, s.Tail = p, xs[i]
			break
		}
	}
	return s
}

// pct returns percentile p of xs (xs is left as it is), or 0 for no
// samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Sorted(slices.Values(xs))
	return xs[rankIndex(p, len(xs))]
}

// windows is how many equal consecutive stretches of a run the gated
// figures are computed over (half a second each in a 10 s run).
const windows = 16

// windowed cuts xs (samples in time order) into windows and returns the
// median over the windows of each window's percentile p. The noise of a
// shared machine comes in bursts; a median over short windows moves with a
// slowdown present in most of the run (as one the code causes is) but not
// with a burst that covers a few windows.
func windowed(xs []float64, p float64) float64 {
	if len(xs) < windows {
		return pct(xs, p)
	}
	var per []float64
	for w := range windows {
		per = append(per, pct(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], p))
	}
	return median(per)
}

// median is pct(xs, 50).
func median(xs []float64) float64 { return pct(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// checksum is an order-independent digest of a multiset result: distinct
// row count, total multiplicity, and the wrapping sum of per-(row, mult)
// hashes. Two results with equal checksums are equal with overwhelming
// probability, whatever order they were enumerated in.
type checksum struct {
	Rows    int
	SumMult int64
	Hash    uint64
}

func (c *checksum) add(row []int64, mult int64) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(mult))
	h.Write(b[:])
	c.Rows++
	c.SumMult += mult
	c.Hash += h.Sum64()
}

// foldState is a multiset folded from deltas: row key → multiplicity.
type foldState map[[3]int64]int64

func rowKey(row []int64) [3]int64 {
	var k [3]int64
	copy(k[:], row)
	return k
}

func (f foldState) add(row []int64, mult int64) {
	k := rowKey(row)
	f[k] += mult
	if f[k] == 0 {
		delete(f, k)
	}
}

// checksum digests the fold; arity restores the row width the key pads.
func (f foldState) checksum(arity int) checksum {
	var c checksum
	for k, m := range f {
		c.add(k[:arity], m)
	}
	return c
}
