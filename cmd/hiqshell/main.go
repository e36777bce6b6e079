// Command hiqshell is a small interactive shell around the public API: set
// a query and ε, load tuples, build, apply single-tuple updates, and
// enumerate the maintained result.
//
// Example session:
//
//	> query Q(A, C) = R(A, B), S(B, C)
//	> eps 0.5
//	> insert R 1 10
//	> insert S 10 7
//	> build
//	> insert R 2 10
//	> result
//	(1, 7) x1
//	(2, 7) x1
//	> stats
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ivmeps"
)

type shell struct {
	q       *ivmeps.Query
	eps     float64
	engine  *ivmeps.Engine
	built   bool
	pending [][3]interface{} // rel, row, mult queued before build
}

func main() {
	sh := &shell{eps: 0.5}
	fmt.Println("ivm-eps shell — 'help' for commands")
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if !sh.exec(line) {
				return
			}
		}
		fmt.Print("> ")
	}
}

func (sh *shell) exec(line string) bool {
	fields := strings.Fields(line)
	cmd := fields[0]
	switch cmd {
	case "help":
		fmt.Println(`commands:
  query <Q(F) = R(X), ...>   set the query (before build)
  eps <0..1>                 set the trade-off parameter (before build)
  build                      run preprocessing over the loaded tuples
  insert <rel> <v1> <v2> ... insert a tuple (queued before build)
  delete <rel> <v1> <v2> ... delete a tuple (after build)
  result [limit]             enumerate distinct result tuples
  count                      count distinct result tuples
  classify                   show the query's class and widths
  explain                    show the engine's strategy (after build)
  stats                      show maintenance counters
  quit`)
	case "quit", "exit":
		return false
	case "query":
		q, err := ivmeps.ParseQuery(strings.TrimSpace(strings.TrimPrefix(line, "query")))
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		sh.q = q
		sh.engine = nil
		sh.built = false
		fmt.Println("query set:", q)
	case "eps":
		if len(fields) != 2 {
			fmt.Println("usage: eps <0..1>")
			return true
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || v < 0 || v > 1 {
			fmt.Println("error: eps must be in [0, 1]")
			return true
		}
		sh.eps = v
		fmt.Printf("eps = %v\n", v)
	case "classify":
		if sh.q == nil {
			fmt.Println("error: set a query first")
			return true
		}
		c := sh.q.Classify()
		fmt.Printf("%+v\n", c)
	case "build":
		if err := sh.build(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("built (N=%d, eps=%v)\n", sh.engine.N(), sh.eps)
		}
	case "insert", "delete":
		rel, row, err := parseRow(fields)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		mult := int64(1)
		if cmd == "delete" {
			mult = -1
		}
		if err := sh.apply(rel, row, mult); err != nil {
			fmt.Println("error:", err)
		}
	case "result":
		snap := sh.snapshot()
		if snap == nil {
			return true
		}
		defer snap.Close()
		limit := 50
		if len(fields) == 2 {
			if v, err := strconv.Atoi(fields[1]); err == nil {
				limit = v
			}
		}
		n := 0
		snap.Enumerate(func(row []int64, m int64) bool {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = strconv.FormatInt(v, 10)
			}
			fmt.Printf("(%s) x%d\n", strings.Join(parts, ", "), m)
			n++
			return n < limit
		})
		if n == 0 {
			fmt.Println("(empty)")
		}
	case "count":
		snap := sh.snapshot()
		if snap == nil {
			return true
		}
		defer snap.Close()
		fmt.Println(snap.Count())
	case "stats":
		if !sh.ensureBuilt() {
			return true
		}
		fmt.Printf("%+v\n", sh.engine.Stats())
	case "explain":
		if !sh.ensureBuilt() {
			return true
		}
		fmt.Print(sh.engine.Explain())
	default:
		fmt.Printf("unknown command %q — try 'help'\n", cmd)
	}
	return true
}

func (sh *shell) ensureBuilt() bool {
	if sh.engine == nil || !sh.built {
		fmt.Println("error: build first")
		return false
	}
	return true
}

// snapshot captures the built engine's committed state for one read, or
// prints why it cannot and returns nil.
func (sh *shell) snapshot() *ivmeps.Snapshot {
	if !sh.ensureBuilt() {
		return nil
	}
	snap, err := sh.engine.Snapshot()
	if err != nil {
		fmt.Println("error:", err)
		return nil
	}
	return snap
}

func (sh *shell) build() error {
	if sh.q == nil {
		return fmt.Errorf("set a query first")
	}
	if sh.built {
		return fmt.Errorf("already built")
	}
	e, err := ivmeps.New(sh.q, ivmeps.Options{Epsilon: sh.eps})
	if err != nil {
		return err
	}
	for _, p := range sh.pending {
		if err := e.LoadWeighted(p[0].(string), p[1].([]int64), p[2].(int64)); err != nil {
			return err
		}
	}
	if err := e.Build(); err != nil {
		return err
	}
	sh.engine = e
	sh.built = true
	sh.pending = nil
	return nil
}

func (sh *shell) apply(rel string, row []int64, mult int64) error {
	if sh.built {
		return sh.engine.Apply(rel, row, mult)
	}
	if mult < 0 {
		return fmt.Errorf("deletes before build are not supported; build first")
	}
	sh.pending = append(sh.pending, [3]interface{}{rel, row, mult})
	fmt.Println("queued (will load at build)")
	return nil
}

func parseRow(fields []string) (string, []int64, error) {
	if len(fields) < 2 {
		return "", nil, fmt.Errorf("usage: %s <rel> <v1> <v2> ...", fields[0])
	}
	rel := fields[1]
	row := make([]int64, 0, len(fields)-2)
	for _, f := range fields[2:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad value %q", f)
		}
		row = append(row, v)
	}
	return rel, row, nil
}
