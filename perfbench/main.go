// Command perfbench measures v6scan's two user-facing programs on
// seeded synthetic inputs: cmd/v6scan, the analyst's batch pass over
// firewall logs, and cmd/v6scand, the operator's live blocklisting
// daemon. It runs the real binaries as child processes, checks their
// output against reference runs, and prints one JSON result line:
//
//	perfbench -root <checkout> -out <build dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// additionally replays the workload in-process through each layer's
// public functions, with a span around every call, and reports the
// per-layer metrics. perfbench/run.sh builds everything and runs it.
//
// Inputs, reference outputs and the daemon's resume checkpoint are
// made once per seed, untimed, and cached under <build dir>/inputs.
// Set-up times, rates and CPU costs are scaled to a reference host
// speed measured around every sample (calib.go); the unscaled values
// are kept in the result file under <build dir>/results.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchEnv is one invocation's settings.
type benchEnv struct {
	root    string // checkout root: module of the programs under test
	out     string // build, cache and result directory
	seed    uint64
	seconds int
	trace   bool
	procs   int // CPUs this process may use (what nproc prints)
}

func (e *benchEnv) bin(prog string) string { return filepath.Join(e.out, "bin", prog) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark scenario. prep writes its cached inputs
// into dir; run measures the untraced program; traced replays it
// through the layers' public functions.
type workload struct {
	prep   func(e *benchEnv, dir string) error
	run    func(e *benchEnv, dir string) (*outcome, error)
	traced func(e *benchEnv, dir string, un *outcome, tr *tracer) (map[string]float64, string, error)
}

// outcome is what a run measured: the end-to-end metrics, the
// operations attempted and failed, the digest of the program's checked
// output, and details kept in the result file only.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	digest    string
	details   map[string]any
}

var workloads = map[string]workload{
	"cdn_filter_detect":  {prepCDN, runCDN, tracedCDN},
	"churn_ids_publish":  {prepChurn, runChurn, tracedChurn},
	"daemon_resume_tail": {prepDaemon, runDaemon, tracedDaemon},
}

func main() {
	e := &benchEnv{procs: runtime.NumCPU()}
	var name string
	var seed int64
	var traceFlag int
	var prepOnly, calibrateOnly bool
	flag.StringVar(&e.root, "root", ".", "checkout root holding the programs' sources")
	flag.StringVar(&e.out, "out", ".bench_build", "directory for binaries, cached inputs and results")
	flag.StringVar(&name, "workload", "", "workload to run")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&e.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&prepOnly, "prep", false, "only make and cache the workload's inputs")
	flag.BoolVar(&calibrateOnly, "calibrate", false, "only run the host-speed reference computation")
	flag.Parse()
	if calibrateOnly {
		calibrateWork()
		return
	}
	e.seed, e.trace = uint64(seed), traceFlag == 1
	if err := run(e, name, prepOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(e *benchEnv, name string, prepOnly bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if e.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	var err error
	if e.root, err = filepath.Abs(e.root); err != nil {
		return err
	}
	if e.out, err = filepath.Abs(e.out); err != nil {
		return err
	}
	for _, p := range []string{"v6scan", "v6scand"} {
		if _, err := os.Stat(e.bin(p)); err != nil {
			return fmt.Errorf("program under test not built: %w", err)
		}
	}
	results := filepath.Join(e.out, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	dir := inputsDir(e, name)
	if prepOnly {
		return prepare(e, dir, w.prep)
	}
	if _, err := os.Stat(filepath.Join(dir, "done")); err != nil {
		// Inputs are made in a child process, so the memory and
		// garbage collection of generation are gone before timing.
		cmd := e.command(context.Background(), os.Args[0], append(os.Args[1:], "-prep")...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("preparing inputs: %w", err)
		}
		// Write the new files back now rather than during the timed
		// runs, so a run after preparation measures like any other.
		syscall.Sync()
	}
	oc, err := w.run(e, dir)
	if err != nil {
		return err
	}
	res := result{Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metric{}}
	file := resultFile{Env: stamp(e), Workload: name, Details: oc.details, Digest: oc.digest}
	if e.trace {
		tr := newTracer()
		layers, dig, err := w.traced(e, dir, oc, tr)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		// The replay must be the same computation as the program.
		res.Attempted++
		if dig != oc.digest {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced output digest %s differs from the program's %s\n", dig, oc.digest)
		}
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return fmt.Errorf("traced run did not report %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		spans := filepath.Join(results, fmt.Sprintf("%s-seed%d-spans.json", name, e.seed))
		if err := tr.writeJSON(spans); err != nil {
			return err
		}
		file.Spans = spans
		file.Layers = tracedReport(tr)
	} else {
		for _, m := range endToEnd {
			v, ok := oc.metrics[m.name]
			if !ok {
				return fmt.Errorf("run did not report %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	file.Result = res
	if err := file.write(filepath.Join(results, fmt.Sprintf("%s-seed%d-trace%t.json", name, e.seed, e.trace))); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the programs sees, reported by
// every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "records/s"},
	{"cpu_ns_per_record", "ns"},
	{"peak_rss_mib", "MiB"},
}

// resultFile is the full record of one run, written beside the spans.
type resultFile struct {
	Env      envStamp       `json:"env"`
	Workload string         `json:"workload"`
	Result   result         `json:"result"`
	Digest   string         `json:"output_digest"`
	Details  map[string]any `json:"details,omitempty"`
	Layers   *layerReport   `json:"layers,omitempty"`
	Spans    string         `json:"spans,omitempty"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// envStamp identifies the machine and code a result came from, so
// results can be compared across commits.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	ChildProcs int    `json:"child_gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Nproc      string `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	SourceSHA  string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Time       string `json:"time"`
}

func stamp(e *benchEnv) envStamp {
	s := envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0), ChildProcs: e.procs, NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Time: time.Now().UTC().Format(time.RFC3339), GitSHA: "none", Nproc: "unknown",
	}
	if out, err := exec.Command("nproc").Output(); err == nil {
		s.Nproc = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		s.GitSHA = strings.TrimSpace(string(out))
	}
	s.SourceSHA = sourceDigest(e)
	return s
}

// sourceDigest hashes the programs' Go sources and go.mod, so runs of
// the same code compare equal even outside a git checkout.
func sourceDigest(e *benchEnv) string {
	var paths []string
	filepath.WalkDir(e.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == e.out || strings.HasPrefix(d.Name(), ".") && p != e.root || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(e.root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inputsVersion changes whenever generation changes, so stale caches
// are never reused.
const inputsVersion = 4

// inputsDir is where a workload's inputs for this seed are cached.
func inputsDir(e *benchEnv, name string) string {
	return filepath.Join(e.out, "inputs", fmt.Sprintf("%s-seed%d-v%d", name, e.seed, inputsVersion))
}

// prepare runs prep into a temporary directory and renames it to dir,
// so an interrupted preparation never leaves a partial cache.
func prepare(e *benchEnv, dir string, prep func(*benchEnv, string) error) error {
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "prep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := prep(e, tmp); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "done"), nil, 0o644); err != nil {
		return err
	}
	os.RemoveAll(dir)
	return os.Rename(tmp, dir)
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// scratchDir makes a fresh directory for one child's writable state.
func (e *benchEnv) scratchDir(prefix string) (string, error) {
	base := filepath.Join(e.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}
