// v6scand is the long-running serving counterpart of the v6scan batch
// CLI: it follows a growing binary firewall log (the record format of
// cmd/telescope-sim and tools/mklog), runs the dynamic-aggregation
// IDS continuously with stream-time eviction and periodic
// checkpoints, and serves the results over HTTP:
//
//	GET /healthz            liveness + generation
//	GET /api/state          serving snapshot (records, candidates, tail progress)
//	GET /api/sessions       IDS working set per aggregation level
//	GET /api/alerts         published alerts, paginated (?offset=&limit=)
//	GET /api/alerts/stream  Server-Sent Events alert feed (?from=)
//	GET /metrics            Prometheus text exposition
//	GET /debug/pprof/       the runtime profiles of net/http/pprof
//
// The profiles (/debug/pprof/profile?seconds=N for CPU, heap,
// goroutine, trace, …) serve `go tool pprof` against the running
// daemon. Like the API they are served to whoever can reach -listen,
// whose default is loopback only; widen it behind a proxy that keeps
// /debug/ private.
//
// Alerted prefixes can additionally be mirrored into an atomically
// rewritten one-CIDR-per-line blocklist file (-blocklist) for a
// firewall reload hook to consume.
//
// Lifecycle: SIGTERM/SIGINT drain everything durable in the log, cut
// a final checkpoint (with -checkpoint-dir), end the SSE streams, and
// exit. The tail itself follows the log across rotation (rename or
// replace) and truncation, so no signal is needed to pick up a new
// file: SIGHUP, which logrotate-style postrotate hooks send, is noted
// on stdout and otherwise ignored. After a crash or a stop, -resume
// restores the latest checkpoint and skips the already-processed log
// prefix; the alerts of the exact tick a periodic checkpoint was cut
// at may be re-published (at-least-once delivery).
//
//	v6scand -i /var/log/fw.log -listen 127.0.0.1:8080
//	v6scand -i fw.log -shards 8 -advance-every 1m \
//	        -checkpoint-every 1h -checkpoint-dir ck -resume \
//	        -blocklist block.rules
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"v6scan/internal/ids"
	"v6scan/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "v6scand:", err)
		os.Exit(1)
	}
}

// run is the testable seam: flags in, exit error out.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("v6scand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input     = fs.String("i", "", "binary firewall log to tail (required; may not exist yet)")
		listen    = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		shards    = fs.Int("shards", 1, "IDS engine shards (1 runs inline; more run on worker goroutines)")
		minDsts   = fs.Int("min-dsts", 0, "destination threshold for alerting (0 = engine default)")
		timeout   = fs.Duration("timeout", 0, "idle eviction timeout (0 = engine default)")
		advance   = fs.Duration("advance-every", time.Minute, "stream-time tick cadence (alerting latency)")
		ckptEvery = fs.Duration("checkpoint-every", 0, "stream-time checkpoint cadence (0 = final checkpoint only)")
		ckptDir   = fs.String("checkpoint-dir", "", "checkpoint directory (enables final + periodic snapshots)")
		resume    = fs.Bool("resume", false, "restore the latest checkpoint before tailing")
		poll      = fs.Duration("poll", 0, "tail growth-poll interval (0 = default)")
		blocklist = fs.String("blocklist", "", "CIDR rule file to mirror alerted prefixes into")
		alertCap  = fs.Int("alert-backlog", 0, "alert backlog bound for pagination and SSE clients (0 = default 4096)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		fs.Usage()
		return fmt.Errorf("-i is required")
	}

	d, err := serve.NewDaemon(serve.Config{
		LogPath:         *input,
		Shards:          *shards,
		IDS:             ids.Config{MinDsts: *minDsts, Timeout: *timeout},
		AdvanceEvery:    *advance,
		CheckpointEvery: *ckptEvery,
		CheckpointDir:   *ckptDir,
		Resume:          *resume,
		Poll:            *poll,
		BlocklistPath:   *blocklist,
		AlertBacklog:    *alertCap,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", d.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)

	// Signals are caught before the serving line is printed, so a
	// supervisor that waits for that line may signal at once.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sig)
	go func() {
		for {
			select {
			case s := <-sig:
				if s == syscall.SIGHUP {
					fmt.Fprintln(stdout, "v6scand: SIGHUP ignored: the tail follows log rotation")
					continue
				}
				fmt.Fprintf(stdout, "v6scand: draining (%v)\n", s)
				cancel()
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	fmt.Fprintf(stdout, "v6scand: tailing %s, serving http://%s\n", *input, ln.Addr())

	err = d.Run(ctx)
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	srv.Shutdown(shCtx)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "v6scand: stopped cleanly")
	return nil
}
