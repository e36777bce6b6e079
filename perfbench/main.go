// Command perfbench is the repository benchmark: it runs one named
// workload against the real ivmeps stack in this process and prints every
// metric by name and unit, then one JSON result line.
//
//	perfbench --workload svc-write --seed 1 --seconds 10 --trace 0
//
// Workloads: svc-write and svc-read drive an ivmd-style service (engine,
// internal/server on a loopback http.Server, internal/client connections);
// embed-update and embed-sharded drive the library directly. With --trace 0
// the JSON carries the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run plus the layer ladder (see README.md).
// Every run checks the final served result against internal/naive and
// exits non-zero on a mismatch.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Every workload reports exactly these end-to-end metrics (--trace 0).
// What "commit" and "read" are on each workload is in README.md. Tail
// percentiles and throughputs are printed but not gated: on a shared
// two-vCPU machine their run-to-run spread is wider than any bound a gate
// may use.
var endToEnd = []string{"setup_s", "heap_mb", "commit_p50_ms", "read_p50_ms"}

// Every workload reports exactly these per-layer metrics (--trace 1).
var perLayer = []string{
	"client.commit_self_us", "client.page_self_us", "client.rung_us",
	"server.commit_p50_us", "server.commit_p99_us", "server.commit_req_bytes_per_op",
	"server.rows_p50_us", "server.rows_p99_us", "server.page_resp_bytes_per_row",
	"server.watch_bytes_per_event", "server.watch_lagged", "server.rung_us",
	"ivmeps.commit_us", "ivmeps.apply_p50_us", "ivmeps.apply_p99_us",
	"ivmeps.snapshot_us", "ivmeps.first_row_us",
	"wal.commit_p50_us", "wal.commit_p99_us", "wal.bytes_per_op",
	"watch.commit_us", "watch.event_lag_p50_us", "watch.event_lag_p99_us", "watch.delta_rows_per_commit",
	"core.commit_us", "core.update_p50_us", "core.update_p99_us",
	"core.work_per_update", "core.view_deltas_per_op",
	"core.minor_rebalances", "core.major_rebalances", "core.rebalance_ms",
	"core.work_per_row_mean", "core.work_per_row_max", "core.build_s",
	"federation.commit_us", "federation.k1_commit_us",
	"bench.late_p99_ms", "bench.trace_overhead_pct",
}

// setupReps is how many times a run sets its system up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's output: human-readable lines as they happen,
// metrics, the op tally and correctness checks.
type report struct {
	e2e, layers       map[string]metric
	attempted, failed int64
	mismatches        []string
}

func (r *report) printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func (r *report) meta(key string, v any) { r.printf("meta   %-24s %v", key, v) }

// value prints a named figure; e2e or per-layer metrics also go to the JSON.
func (r *report) value(name string, v float64, unit, note string) {
	r.printf("metric %-32s %14.6g %-8s %s", name, v, unit, note)
}

func (r *report) endToEnd(name string, v float64, unit string) {
	r.e2e[name] = metric{v, unit}
	r.value(name, v, unit, "(end-to-end)")
}

func (r *report) layer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
	r.value(name, v, unit, "(per-layer)")
}

// timing prints a distribution as median plus highest supported tail.
func (r *report) timing(name string, xs []float64, unit string) summary {
	s := summarize(xs)
	tail := "no tail percentile supported"
	if s.TailPct > 50 {
		tail = fmt.Sprintf("p%g=%.6g", s.TailPct, s.Tail)
	}
	r.printf("timing %-32s p50=%.6g %s %s n=%d", name, s.P50, tail, unit, s.N)
	return s
}

// check records a correctness comparison.
func (r *report) check(what string, got, want checksum) {
	ok := got == want
	r.printf("check  %-32s %v (rows=%d summult=%d hash=%x)", what, okWord(ok), got.Rows, got.SumMult, got.Hash)
	if !ok {
		r.mismatches = append(r.mismatches, fmt.Sprintf("%s: got %+v want %+v", what, got, want))
	}
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}

// tally counts an attempted op and whether it failed.
func (r *report) tally(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and the layer ladder")
	flag.StringVar(&cfg.outDir, "out", os.TempDir(), "directory for the span dump of a traced run")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep := &report{e2e: map[string]metric{}, layers: map[string]metric{}}
	rep.meta("workload", cfg.workload)
	rep.meta("seed", cfg.seed)
	rep.meta("go", runtime.Version())
	rep.meta("nproc", runtime.NumCPU())
	rep.meta("GOMAXPROCS", runtime.GOMAXPROCS(0))
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	rep.meta("GOGC", gogc)
	rep.meta("query", w.query)
	rep.meta("epsilon", epsilon)
	rep.meta("trace", cfg.trace)

	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	want := endToEnd
	got := rep.e2e
	if cfg.trace {
		want, got = perLayer, rep.layers
	}
	out := map[string]metric{}
	for _, name := range want {
		m, ok := got[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", cfg.workload, name)
			return 1
		}
		out[name] = m
	}
	if rep.attempted > 0 {
		rep.value("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio",
			fmt.Sprintf("(%d failed of %d attempted)", rep.failed, rep.attempted))
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: correctness: %s\n", m)
	}
	correct := len(rep.mismatches) == 0 && rep.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(rep.attempted, 1), rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// epsilon is the trade-off parameter every workload runs at.
const epsilon = 0.5

// workload is one named benchmark workload.
type workload struct {
	query string
	run   func(cfg config, rep *report) error
}

var workloads = map[string]workload{
	"svc-write":     {socialQuery, runSvcWrite},
	"svc-read":      {pathQuery, runSvcRead},
	"embed-update":  {pathQuery, runEmbedUpdate},
	"embed-sharded": {retailQuery, runEmbedSharded},
}

const (
	socialQuery = "Q(User) = Follows(User, Topic), Trending(Topic)"
	pathQuery   = "Q(A, C) = R(A, B), S(B, C)"
	retailQuery = "Q(Cust, Disc, Region) = Lines(Cust, Order, Item), Discounts(Cust, Order, Disc), Location(Cust, Region)"
)

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// naiveDB loads the shadow state as an internal/naive database.
func naiveDB(q *query.Query, sh *shadow) (naive.Database, error) {
	db := naive.Database{}
	for _, a := range q.Atoms {
		if db[a.Rel] != nil {
			continue
		}
		rel := relation.New(a.Rel, a.Vars)
		for _, row := range sh.rels[a.Rel].rows {
			if err := rel.Add(tuple.Tuple(row), 1); err != nil {
				return nil, err
			}
		}
		db[a.Rel] = rel
	}
	return db, nil
}

// reference evaluates the query over the shadow state with internal/naive
// and digests the result.
func reference(queryText string, sh *shadow) (checksum, error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return checksum{}, err
	}
	db, err := naiveDB(q, sh)
	if err != nil {
		return checksum{}, err
	}
	res, err := naive.Eval(q, db)
	if err != nil {
		return checksum{}, err
	}
	var c checksum
	res.ForEach(func(t tuple.Tuple, m int64) { c.add(t, m) })
	return c, nil
}

// liveHeapMB is the live heap after a forced collection, in MB. The pause
// lets the goroutines of discarded set-ups (server connections) exit first.
func liveHeapMB() float64 {
	time.Sleep(100 * time.Millisecond)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// fsType names the filesystem holding dir, from /proc/mounts.
func fsType(dir string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}

// lateness reduces open-loop send lateness (ms, in due order) to its p99
// and flags a schedule the system could not keep: mean lateness in the
// second half above both 1 ms and twice the first half's.
func lateness(late []float64) (p99 float64, growing bool) {
	half := len(late) / 2
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(max(len(xs), 1))
	}
	first, second := mean(late[:half]), mean(late[half:])
	growing = second > 1 && second > 2*first
	return pct(late, 99), growing
}

// sustainable prints the open-loop hygiene verdict for one schedule.
func (r *report) sustainable(what string, late []float64) float64 {
	p99, growing := lateness(late)
	verdict := "sustainable"
	if growing {
		verdict = "UNSUSTAINABLE: lateness grew from the first half of the run to the second"
	}
	r.printf("sched  %-32s late_p99=%.4g ms n=%d %s", what, p99, len(late), verdict)
	return p99
}

// spinWindow is how long before a due time sleepUntil stops sleeping and
// yields in a loop instead: short sleeps overshoot by about a millisecond,
// which would otherwise show up as lateness in every open-loop figure.
const spinWindow = 1200 * time.Microsecond

// sleepUntil waits for t (no-op if it has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
