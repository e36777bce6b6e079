package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// op is one single-tuple update of a generated stream.
type op struct {
	rel  string
	row  []int64
	mult int64
}

// relSet is a set of rows of one relation with O(1) insert, delete and
// uniform random choice.
type relSet struct {
	rows [][]int64
	idx  map[[3]int64]int
}

func (s *relSet) has(row []int64) bool { _, ok := s.idx[rowKey(row)]; return ok }

func (s *relSet) insert(row []int64) {
	s.idx[rowKey(row)] = len(s.rows)
	s.rows = append(s.rows, row)
}

func (s *relSet) remove(row []int64) {
	k := rowKey(row)
	i := s.idx[k]
	last := len(s.rows) - 1
	s.rows[i] = s.rows[last]
	s.idx[rowKey(s.rows[i])] = i
	s.rows = s.rows[:last]
	delete(s.idx, k)
}

func (s *relSet) pick(rng *rand.Rand) []int64 { return s.rows[rng.Intn(len(s.rows))] }

// shadow is the generator's own copy of the base relations. Generators
// emit only inserts of absent rows and deletes of present ones, so every op
// is valid and the shadow is the reference state the engine must reach.
type shadow struct {
	rels map[string]*relSet
}

func newShadow(rels ...string) *shadow {
	sh := &shadow{rels: map[string]*relSet{}}
	for _, r := range rels {
		sh.rels[r] = &relSet{idx: map[[3]int64]int{}}
	}
	return sh
}

func (sh *shadow) apply(o op) {
	if o.mult > 0 {
		sh.rels[o.rel].insert(o.row)
	} else {
		sh.rels[o.rel].remove(o.row)
	}
}

func (sh *shadow) size() int {
	n := 0
	for _, s := range sh.rels {
		n += len(s.rows)
	}
	return n
}

// snapshot copies the current rows per relation (for loading a base).
func (sh *shadow) snapshot() map[string][][]int64 {
	out := make(map[string][][]int64, len(sh.rels))
	for name, s := range sh.rels {
		out[name] = append([][]int64(nil), s.rows...)
	}
	return out
}

// gen is a seeded, deterministic op stream: a base database plus an
// unbounded sequence of commits. The same seed yields the same base and the
// same commits; nothing the system under test does feeds back into it.
type gen struct {
	rng  *rand.Rand
	sh   *shadow
	base map[string][][]int64
	n    int // commits emitted
	// swings counts completed N swings (embed-update), so a run can be
	// measured over whole swings, each with the same rebalancing work.
	swings int
	ops    []op
	step   func(g *gen) // appends the next commit's ops to g.ops
}

// next returns the next commit and applies it to the shadow.
func (g *gen) next() []op {
	g.ops = nil
	g.step(g)
	g.n++
	return g.ops
}

// ins and del emit one op and keep the shadow in step, so a later op of
// the same commit sees its effect.
func (g *gen) ins(rel string, row ...int64) {
	o := op{rel, row, 1}
	g.sh.apply(o)
	g.ops = append(g.ops, o)
}

func (g *gen) del(rel string, row []int64) {
	o := op{rel, row, -1}
	g.sh.apply(o)
	g.ops = append(g.ops, o)
}

// insAbsent inserts the first absent row draw() produces, giving up after
// a few collisions (the commit is then one op shorter).
func (g *gen) insAbsent(rel string, draw func() []int64) {
	s := g.sh.rels[rel]
	for range 8 {
		if row := draw(); !s.has(row) {
			g.ins(rel, row...)
			return
		}
	}
}

func (g *gen) delRandom(rel string) {
	if s := g.sh.rels[rel]; len(s.rows) > 0 {
		g.del(rel, s.pick(g.rng))
	}
}

// sortedRels lists a base's relations in name order: loading or ingesting
// in a fixed order keeps the engine's physical state (and its heap)
// repeatable for a seed.
func sortedRels(base map[string][][]int64) []string {
	names := make([]string, 0, len(base))
	for rel := range base {
		names = append(names, rel)
	}
	slices.Sort(names)
	return names
}

// finishBase records the shadow as the base database.
func (g *gen) finishBase() { g.base = g.sh.snapshot() }

// theta is the heavy/light threshold M^ε the engine uses right after
// preprocessing N tuples (M = 2N+1); the generators aim keys across it.
func theta(n int, eps float64) float64 { return math.Pow(float64(2*n+1), eps) }

// newGen returns the op stream of a workload.
func newGen(workload string, seed int64) (*gen, error) {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	switch workload {
	case "svc-write":
		socialGen(g)
	case "svc-read":
		pathReadGen(g)
	case "embed-update":
		pathUpdateGen(g)
	case "embed-sharded":
		retailGen(g)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return g, nil
}

// socialGen: Q(User) = Follows(User, Topic), Trending(Topic). Topics are
// Zipf-popular and the popular set drifts by one topic every 40 commits.
// On top of that, every 300 commits a fresh "viral" topic trends and takes
// half of all new follows, climbing past 1.5θ into the heavy partition;
// once the next one takes over, half of all unfollows drain it below θ/2
// again (a minor rebalance each way). Each commit is 8 ops.
func socialGen(g *gen) {
	const (
		users, topics   = 8000, 400
		follows, trends = 16000, 40
		opsPerCommit    = 8
		viralTopic      = 10_000
		viralCommits    = 300
	)
	g.sh = newShadow("Follows", "Trending")
	zipf := rand.NewZipf(g.rng, 1.1, 1, topics-1)
	topic := func() int64 { return int64((zipf.Uint64() + uint64(g.n/40)) % topics) }
	follow := func() []int64 { return []int64{g.rng.Int63n(users), topic()} }
	trend := func() []int64 { return []int64{topic()} }
	for g.sh.size() < follows {
		g.insAbsent("Follows", follow)
	}
	for len(g.sh.rels["Trending"].rows) < trends {
		g.insAbsent("Trending", trend)
	}
	g.finishBase()
	var viral, fading [][]int64 // follows of the current and previous viral topic
	g.step = func(g *gen) {
		v := int64(viralTopic + g.n/viralCommits)
		if g.n%viralCommits == 0 {
			if prev := []int64{v - 1}; g.sh.rels["Trending"].has(prev) {
				g.del("Trending", prev)
			}
			g.ins("Trending", v)
			fading = append(fading, viral...)
			viral = nil
		}
		for range opsPerCommit {
			switch {
			case g.rng.Intn(10) == 0 && len(g.sh.rels["Trending"].rows) >= trends:
				if row := g.sh.rels["Trending"].pick(g.rng); row[0] < viralTopic {
					g.del("Trending", row)
				}
			case g.rng.Intn(10) == 0:
				g.insAbsent("Trending", trend)
			case len(g.sh.rels["Follows"].rows) >= follows && g.rng.Intn(2) == 0:
				if len(fading) > 0 && g.rng.Intn(2) == 0 {
					last := len(fading) - 1
					g.del("Follows", fading[last])
					fading = fading[:last]
				} else if row := g.sh.rels["Follows"].pick(g.rng); row[1] < viralTopic {
					g.del("Follows", row)
				}
			case g.rng.Intn(2) == 0:
				row := []int64{g.rng.Int63n(users), v}
				if !g.sh.rels["Follows"].has(row) {
					g.ins("Follows", row...)
					viral = append(viral, row)
				}
			default:
				g.insAbsent("Follows", follow)
			}
		}
	}
}

// Two-path query Q(A, C) = R(A, B), S(B, C): B is drawn from a light tail,
// a few heavy values well above θ, and (for svc-read) a set of boundary
// values whose R-degree the stream swings across θ.
const (
	lightB    = 0
	heavyB    = 1_000_000
	boundaryB = 2_000_000
	hotB      = 3_000_000
	wide      = 1 << 30 // A and C domain: rows rarely collide
)

// pathBase loads heavy B values (degR × degS each) and a light tail.
func pathBase(g *gen, heavy, degR, degS, lightRows, lightKeys int) {
	g.sh = newShadow("R", "S")
	for h := range heavy {
		b := int64(heavyB + h)
		for range degR {
			g.insAbsent("R", func() []int64 { return []int64{g.rng.Int63n(wide), b} })
		}
		for range degS {
			g.insAbsent("S", func() []int64 { return []int64{b, g.rng.Int63n(wide)} })
		}
	}
	for range lightRows {
		g.insAbsent("R", func() []int64 { return []int64{g.rng.Int63n(wide), int64(lightB + g.rng.Intn(lightKeys))} })
		g.insAbsent("S", func() []int64 { return []int64{int64(lightB + g.rng.Intn(lightKeys)), g.rng.Int63n(wide)} })
	}
}

// lightOp inserts or deletes one light-tail row, keeping the size steady.
func lightOp(g *gen, lightKeys int) {
	rel := "R"
	if g.rng.Intn(2) == 0 {
		rel = "S"
	}
	if g.rng.Intn(2) == 0 {
		// Delete only light-tail rows: heavy and boundary keys keep the
		// degrees their own generators track.
		s := g.sh.rels[rel]
		for range 4 {
			row := s.pick(g.rng)
			b := row[1]
			if rel == "S" {
				b = row[0]
			}
			if b < heavyB {
				g.del(rel, row)
				return
			}
		}
		return
	}
	b := int64(lightB + g.rng.Intn(lightKeys))
	g.insAbsent(rel, func() []int64 {
		if rel == "R" {
			return []int64{g.rng.Int63n(wide), b}
		}
		return []int64{b, g.rng.Int63n(wide)}
	})
}

// pathReadGen (svc-read): a ~16k-tuple base whose ~31k-row result is
// dominated by three heavy B values, and a trickle of 4-op commits: half swing six
// boundary B values between 0.3θ and 1.7θ, past the 1.5θ and θ/2
// rebalancing thresholds (minor rebalances both ways),
// half churn the light tail.
func pathReadGen(g *gen) {
	const (
		boundary     = 6
		opsPerCommit = 4
		lightKeys    = 4000
	)
	pathBase(g, 3, 300, 20, 7000, lightKeys)
	th := theta(g.sh.size(), 0.5)
	deg := make([][][]int64, boundary) // R rows per boundary key, in insert order
	growing := make([]bool, boundary)
	for j := range boundary {
		b := int64(boundaryB + j)
		g.insAbsent("S", func() []int64 { return []int64{b, g.rng.Int63n(wide)} })
		for len(deg[j]) < int(0.9*th) {
			row := []int64{g.rng.Int63n(wide), b}
			if !g.sh.rels["R"].has(row) {
				g.ins("R", row...)
				deg[j] = append(deg[j], row)
			}
		}
		growing[j] = true
	}
	g.finishBase()
	g.step = func(g *gen) {
		for range opsPerCommit {
			if g.rng.Intn(2) == 0 {
				lightOp(g, lightKeys)
				continue
			}
			j := g.rng.Intn(boundary)
			switch {
			case growing[j] && float64(len(deg[j])) >= 1.7*th:
				growing[j] = false
			case !growing[j] && float64(len(deg[j])) <= 0.3*th:
				growing[j] = true
			}
			if growing[j] {
				row := []int64{g.rng.Int63n(wide), int64(boundaryB + j)}
				if !g.sh.rels["R"].has(row) {
					g.ins("R", row...)
					deg[j] = append(deg[j], row)
				}
			} else {
				last := len(deg[j]) - 1
				g.del("R", deg[j][last])
				deg[j] = deg[j][:last]
			}
		}
	}
}

// pathUpdateGen (embed-update): single-tuple updates over a ~10k-tuple
// base. N swings between 0.9·N0 and 2.2·N0, so every swing crosses an M
// doubling upward and a quarter downward (two major rebalances). While
// growing, 20% of inserts go to one hot B value that changes every 3000
// ops, lifting its R-degree past 1.5θ (a minor rebalance).
func pathUpdateGen(g *gen) {
	const lightKeys = 1000
	pathBase(g, 3, 300, 30, 4500, lightKeys)
	g.finishBase()
	n0 := g.sh.size()
	growing := true
	g.step = func(g *gen) {
		n := g.sh.size()
		switch {
		case growing && n >= n0*22/10:
			growing = false
		case !growing && n <= n0*9/10:
			growing = true
			g.swings++
		}
		if !growing {
			r, s := len(g.sh.rels["R"].rows), len(g.sh.rels["S"].rows)
			if g.rng.Intn(r+s) < r {
				g.delRandom("R")
			} else {
				g.delRandom("S")
			}
			return
		}
		if g.rng.Intn(10) < 2 {
			b := int64(hotB + g.n/3000)
			if g.rng.Intn(50) > 0 { // few S partners keep the result small
				g.insAbsent("R", func() []int64 { return []int64{g.rng.Int63n(wide), b} })
			} else {
				g.insAbsent("S", func() []int64 { return []int64{b, g.rng.Int63n(wide)} })
			}
			return
		}
		rel := "R"
		if g.rng.Intn(2) == 0 {
			rel = "S"
		}
		b := int64(lightB + g.rng.Intn(lightKeys))
		g.insAbsent(rel, func() []int64 {
			if rel == "R" {
				return []int64{g.rng.Int63n(wide), b}
			}
			return []int64{b, g.rng.Int63n(wide)}
		})
	}
}

// retailGen (embed-sharded): Example 18's retail query over ~36k tuples.
// Each commit is one atomic batch of ~500 ops spanning all three
// relations: line churn, discount churn, customer moves, and 50 lines of
// the current "bulk" order, which changes every ten batches; a bulk
// order climbs past 1.5θ lines and is cleared two periods later, below
// θ/2 (a minor rebalance each way).
func retailGen(g *gen) {
	const (
		customers, orders, lines = 3000, 10000, 30000
		regions, items, discs    = 7, 500, 20
		batch                    = 500
		bulkOrder                = 1_000_000
		bulkBatches              = 10
	)
	g.sh = newShadow("Lines", "Discounts", "Location")
	owner := make([]int64, orders)
	for o := range owner {
		owner[o] = g.rng.Int63n(customers)
	}
	line := func() []int64 {
		o := g.rng.Intn(orders)
		return []int64{owner[o], int64(o), g.rng.Int63n(items)}
	}
	disc := func() []int64 {
		o := g.rng.Intn(orders)
		return []int64{owner[o], int64(o), g.rng.Int63n(discs)}
	}
	for len(g.sh.rels["Lines"].rows) < lines {
		g.insAbsent("Lines", line)
	}
	for len(g.sh.rels["Discounts"].rows) < orders/3 {
		g.insAbsent("Discounts", disc)
	}
	region := make([]int64, customers)
	for c := range customers {
		region[c] = g.rng.Int63n(regions)
		g.ins("Location", int64(c), region[c])
	}
	g.finishBase()
	bulk := map[int][][]int64{} // bulk period → its lines
	g.step = func(g *gen) {
		w := g.n / bulkBatches
		if g.n%bulkBatches == 0 {
			for _, row := range bulk[w-2] {
				g.del("Lines", row)
			}
			delete(bulk, w-2)
		}
		cust := int64(w % customers)
		for n := len(g.ops); len(g.ops)-n < batch; {
			switch k := g.rng.Intn(100); {
			case k < 10:
				row := []int64{cust, int64(bulkOrder + w), g.rng.Int63n(wide)}
				if !g.sh.rels["Lines"].has(row) {
					g.ins("Lines", row...)
					bulk[w] = append(bulk[w], row)
				}
			case k < 85:
				if len(g.sh.rels["Lines"].rows) > lines+len(bulk[w])+len(bulk[w-1]) {
					row := g.sh.rels["Lines"].pick(g.rng)
					if row[1] < bulkOrder {
						g.del("Lines", row)
					}
				} else {
					g.insAbsent("Lines", line)
				}
			case k < 95:
				if len(g.sh.rels["Discounts"].rows) >= orders/3 {
					g.delRandom("Discounts")
				} else {
					g.insAbsent("Discounts", disc)
				}
			default:
				c := g.rng.Int63n(customers)
				g.del("Location", []int64{c, region[c]})
				region[c] = (region[c] + 1 + g.rng.Int63n(regions-1)) % regions
				g.ins("Location", c, region[c])
			}
		}
	}
}
