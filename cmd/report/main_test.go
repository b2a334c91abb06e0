package main

// The report golden: stdout of a default run, at one and at two
// detector shards, must equal testdata/report.golden once the lines
// that vary between runs of one build are masked. Regenerate after a
// deliberate change to an experiment or its rendering with
//
//	go test ./cmd/report -run TestReportGolden -update

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden")

// childEnv marks a test binary started to run the command itself.
const childEnv = "V6SCAN_REPORT_CHILD"

// TestMain runs main when the binary is a report child (see reports),
// and the tests otherwise.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenShards are the detector shard counts the golden holds at.
var goldenShards = []int{1, 2}

// reports runs the command once per shard count, concurrently, once
// per test binary (so -count=N pays for one run), and returns each
// run's stdout or its failure, in goldenShards order.
var reports = sync.OnceValue(func() []string {
	outs := make([]string, len(goldenShards))
	var wg sync.WaitGroup
	for i, n := range goldenShards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(os.Args[0], "-shards", fmt.Sprint(n))
			cmd.Env = append(os.Environ(), childEnv+"=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			outs[i] = string(out)
			if err != nil {
				outs[i] = fmt.Sprintf("report -shards %d: %v\n%s", n, err, stderr.String())
			}
		}()
	}
	wg.Wait()
	return outs
})

// The lines that vary between runs of one build: the CDN run header
// and the ids experiment's summary print a wall time, and both print
// the shard count.
var (
	cdnHeader  = regexp.MustCompile(`(?m)^(\[cdn run: \d+ machines, \d+ weeks, )\d+ shards(, \d+ records detected, )[^\]]+\]$`)
	idsSummary = regexp.MustCompile(`(?m)^(\d+ records through )\d+ shards in [^:]+(: .+)$`)
)

// mask replaces the run times and shard counts with fixed tokens; each
// pattern must match exactly once, so a change to either line's format
// fails loudly instead of leaving a timing in the golden.
func mask(t *testing.T, out string) string {
	t.Helper()
	for _, m := range []struct {
		re   *regexp.Regexp
		with string
	}{
		{cdnHeader, "${1}N shards${2}T]"},
		{idsSummary, "${1}N shards in T${2}"},
	} {
		if n := len(m.re.FindAllStringIndex(out, -1)); n != 1 {
			t.Fatalf("%d lines match %s, want 1:\n%s", n, m.re, out)
		}
		out = m.re.ReplaceAllString(out, m.with)
	}
	return out
}

// TestReportGolden: the tables and figures of a default run are the
// committed ones at every shard count.
func TestReportGolden(t *testing.T) {
	golden := filepath.Join("testdata", "report.golden")
	outs := reports()
	if *update {
		if err := os.WriteFile(golden, []byte(mask(t, outs[0])), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	for i, n := range goldenShards {
		t.Run(fmt.Sprint("shards=", n), func(t *testing.T) {
			if got := mask(t, outs[i]); got != string(want) {
				t.Errorf("report differs from %s (regenerate with -update after a deliberate change)\n%s",
					golden, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
