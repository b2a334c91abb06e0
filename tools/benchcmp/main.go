// benchcmp compares two benchmark result files (the `go test -json
// -bench ... -benchmem` output the CI bench smoke uploads as
// bench.json) and prints a benchstat-style table, annotating every
// benchmark whose ns/op or allocs/op regressed by more than 10%.
//
//	go run ./tools/benchcmp old-bench.json new-bench.json
//
// The two metrics gate differently. allocs/op is deterministic even on
// a one-iteration smoke run on a shared 1-CPU runner, so an allocs/op
// regression is a failing check: it emits a ::error:: annotation and
// the tool exits 1 — also for any allocation by a benchmark that
// allocated nothing on main. ns/op on the same runner is noise-dominated, so
// timing regressions stay advisory ::warning:: annotations for a human
// (or a longer local run) to judge, and never affect the exit code.
// Missing or unparsable baselines are reported and skipped (exit 0).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark's parsed result line.
type metrics struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

// testEvent is the subset of the go test -json event schema we read.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches e.g.
//
//	BenchmarkDetectorSharded4-4  2  299813419 ns/op  100000 records/op  89392544 B/op  395937 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func parse(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]metrics{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// go test -json emits one event per write, not per line: a
	// benchmark's name and its numbers arrive as separate Output
	// fragments ("BenchmarkX \t" then "1\t 123 ns/op\n"), so fragments
	// are reassembled into lines before matching.
	var pending strings.Builder
	record := func(text string) {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(text))
		if m == nil {
			return
		}
		name, rest := m[1], m[2]
		var mt metrics
		fields := strings.Fields(rest)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				mt.nsPerOp = v
			case "allocs/op":
				mt.allocsPerOp = v
				mt.hasAllocs = true
			}
		}
		if mt.nsPerOp > 0 {
			out[name] = mt
		}
	}
	for sc.Scan() {
		line := sc.Bytes()
		// Accept both raw `go test -bench` output and -json events.
		if len(line) > 0 && line[0] == '{' {
			var ev testEvent
			if json.Unmarshal(line, &ev) != nil || ev.Action != "output" {
				continue
			}
			pending.WriteString(ev.Output)
			for {
				buffered := pending.String()
				nl := strings.IndexByte(buffered, '\n')
				if nl < 0 {
					break
				}
				record(buffered[:nl])
				pending.Reset()
				pending.WriteString(buffered[nl+1:])
			}
			continue
		}
		record(string(line))
	}
	record(pending.String())
	return out, sc.Err()
}

// delta formats a relative change. From a zero baseline any rise is
// an unbounded regression (+Inf), so a benchmark that allocated
// nothing stays gated; zero to zero is no change.
func delta(old, new float64) (float64, string) {
	if old == 0 {
		if new == 0 {
			return 0, "+0.0%"
		}
		return math.Inf(1), "+inf%"
	}
	d := (new - old) / old * 100
	return d, fmt.Sprintf("%+.1f%%", d)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run compares the benchmark files args[0] (baseline) and args[1],
// writing the table and annotations to stdout, and returns the exit
// code: 1 on an allocs/op regression, 2 on a usage error, else 0.
func run(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: benchcmp old-bench.json new-bench.json\n")
		return 2
	}
	old, err := parse(args[0])
	if err != nil {
		fmt.Fprintf(stdout, "benchcmp: cannot read baseline %s: %v — skipping compare\n", args[0], err)
		return 0
	}
	cur, err := parse(args[1])
	if err != nil {
		fmt.Fprintf(stdout, "benchcmp: cannot read %s: %v — skipping compare\n", args[1], err)
		return 0
	}
	if len(old) == 0 {
		fmt.Fprintf(stdout, "benchcmp: baseline %s holds no benchmark lines — skipping compare\n", args[0])
		return 0
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	const threshold = 10.0 // percent
	warned, failed := 0, 0
	fmt.Fprintf(stdout, "%-55s %14s %14s %9s %12s %12s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ", "old allocs", "new allocs", "Δ")
	for _, name := range names {
		o, n := old[name], cur[name]
		dns, dnsStr := delta(o.nsPerOp, n.nsPerOp)
		allocsOld, allocsNew, dalStr := "-", "-", "-"
		var dal float64
		if o.hasAllocs && n.hasAllocs {
			dal, dalStr = delta(o.allocsPerOp, n.allocsPerOp)
			allocsOld = strconv.FormatFloat(o.allocsPerOp, 'f', 0, 64)
			allocsNew = strconv.FormatFloat(n.allocsPerOp, 'f', 0, 64)
		}
		fmt.Fprintf(stdout, "%-55s %14.0f %14.0f %9s %12s %12s %9s\n",
			name, o.nsPerOp, n.nsPerOp, dnsStr, allocsOld, allocsNew, dalStr)
		if dns > threshold {
			fmt.Fprintf(stdout, "::warning title=benchmark regression::%s ns/op %s vs main (%.0f → %.0f); single-iteration smoke, confirm with a longer local run\n",
				name, dnsStr, o.nsPerOp, n.nsPerOp)
			warned++
		}
		if o.hasAllocs && n.hasAllocs && dal > threshold {
			fmt.Fprintf(stdout, "::error title=allocation regression::%s allocs/op %s vs main (%s → %s); allocs/op is deterministic — this gates the check\n",
				name, dalStr, allocsOld, allocsNew)
			failed++
		}
	}
	for name := range cur {
		if _, ok := old[name]; !ok {
			fmt.Fprintf(stdout, "%-55s (new benchmark, no baseline)\n", name)
		}
	}
	if warned == 0 && failed == 0 {
		fmt.Fprintln(stdout, "no >10% regressions vs main")
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "benchcmp: %d allocs/op regression(s) vs main — failing\n", failed)
		return 1
	}
	return 0
}
