package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonEvents renders output fragments as `go test -json` output
// events, one per fragment, the way a benchmark line arrives split
// between its name and its numbers.
func jsonEvents(t *testing.T, fragments ...string) string {
	t.Helper()
	var b strings.Builder
	for _, f := range fragments {
		line, err := json.Marshal(testEvent{Action: "output", Output: f})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// writeFile writes content under the test's temp dir and returns the
// path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// benchJSON is one benchmark result as -json splits it: the name, then
// the numbers.
func benchJSON(t *testing.T, name, numbers string) string {
	return jsonEvents(t, name+"-2   \t", numbers+"\n")
}

func TestParseReassemblesJSONFragments(t *testing.T) {
	path := writeFile(t, "bench.json", jsonEvents(t,
		"goos: linux\n",
		"BenchmarkDetectorSharded4-4 \t",
		"       2\t 299813419 ns/op\t  100000 records/op\t89392544 B/op\t  395937 ",
		"allocs/op\n",
		"PASS\n",
	))
	got, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics{nsPerOp: 299813419, allocsPerOp: 395937, hasAllocs: true}
	if len(got) != 1 || got["BenchmarkDetectorSharded4"] != want {
		t.Fatalf("parse = %+v, want BenchmarkDetectorSharded4 %+v", got, want)
	}
}

func TestRunExitCodes(t *testing.T) {
	base := writeFile(t, "old.json", benchJSON(t, "BenchmarkX", "1\t1000 ns/op\t10 allocs/op"))
	for _, tc := range []struct {
		name, numbers string
		code          int
		out           string
	}{
		{"allocs regression", "1\t1000 ns/op\t12 allocs/op", 1, "::error title=allocation regression::BenchmarkX"},
		{"ns regression alone", "1\t5000 ns/op\t10 allocs/op", 0, "::warning title=benchmark regression::BenchmarkX"},
		{"no regression", "1\t1050 ns/op\t10 allocs/op", 0, "no >10% regressions vs main"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeFile(t, "new.json", benchJSON(t, "BenchmarkX", tc.numbers))
			var out strings.Builder
			if code := run([]string{base, cur}, &out); code != tc.code {
				t.Fatalf("exit %d, want %d; output:\n%s", code, tc.code, out.String())
			}
			if !strings.Contains(out.String(), tc.out) {
				t.Fatalf("output lacks %q:\n%s", tc.out, out.String())
			}
		})
	}
}

// TestRunZeroAllocBaseline: a benchmark that allocated nothing on main
// is still gated — any allocation fails the check — and zero stays
// zero without a regression.
func TestRunZeroAllocBaseline(t *testing.T) {
	base := writeFile(t, "old.json", benchJSON(t, "BenchmarkX", "1\t1000 ns/op\t0 allocs/op"))
	for _, tc := range []struct {
		allocs string
		code   int
		out    string
	}{
		{"28", 1, "::error title=allocation regression::BenchmarkX allocs/op +inf% vs main (0 → 28)"},
		{"0", 0, "no >10% regressions vs main"},
	} {
		cur := writeFile(t, "new.json", benchJSON(t, "BenchmarkX", "1\t1000 ns/op\t"+tc.allocs+" allocs/op"))
		var out strings.Builder
		if code := run([]string{base, cur}, &out); code != tc.code {
			t.Fatalf("0 → %s allocs/op: exit %d, want %d; output:\n%s", tc.allocs, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.out) {
			t.Fatalf("0 → %s allocs/op: output lacks %q:\n%s", tc.allocs, tc.out, out.String())
		}
	}
}

func TestRunMissingBaseline(t *testing.T) {
	cur := writeFile(t, "new.json", benchJSON(t, "BenchmarkX", "1\t1000 ns/op\t10 allocs/op"))
	for name, base := range map[string]string{
		"absent": filepath.Join(t.TempDir(), "none.json"),
		"empty":  writeFile(t, "old.json", jsonEvents(t, "PASS\n")),
	} {
		var out strings.Builder
		if code := run([]string{base, cur}, &out); code != 0 {
			t.Fatalf("%s baseline: exit %d, want 0; output:\n%s", name, code, out.String())
		}
		if !strings.Contains(out.String(), "skipping compare") {
			t.Fatalf("%s baseline: output lacks the skip notice:\n%s", name, out.String())
		}
	}
}
