package serve

// The daemon's HTTP surface. Every handler is read-only against
// published snapshots — none touches the engine or the pipeline.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the daemon's HTTP API:
//
//	GET /healthz            liveness + generation
//	GET /api/state          the full State snapshot
//	GET /api/sessions       IDS working-set detail per aggregation level
//	GET /api/alerts         published alerts, paginated (?offset=seq&limit=n)
//	GET /api/alerts/stream  Server-Sent Events alert feed (?from=seq)
//	GET /metrics            Prometheus text exposition
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /api/state", d.handleState)
	mux.HandleFunc("GET /api/sessions", d.handleSessions)
	mux.HandleFunc("GET /api/alerts", d.handleAlerts)
	mux.HandleFunc("GET /api/alerts/stream", d.handleAlertStream)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s := d.State()
	writeJSON(w, map[string]any{
		"status":     "ok",
		"running":    s.Running,
		"generation": s.Generation,
		"updated_at": s.UpdatedAt,
	})
}

func (d *Daemon) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, d.State())
}

// sessionLevel is one row of /api/sessions: the working set at one
// aggregation level.
type sessionLevel struct {
	Level      string `json:"level"`
	Candidates int    `json:"candidates"`
}

func (d *Daemon) handleSessions(w http.ResponseWriter, r *http.Request) {
	s := d.State()
	levels := make([]sessionLevel, 0, len(s.levels))
	for _, l := range s.levels {
		levels = append(levels, sessionLevel{Level: l.String(), Candidates: s.Candidates[l.String()]})
	}
	writeJSON(w, map[string]any{
		"as_of":             s.LastTick,
		"levels":            levels,
		"dropped":           s.DroppedCandidates,
		"dropped_per_shard": s.DroppedPerShard,
		"memory_bytes":      s.MemoryBytes,
	})
}

// alertsPage is the /api/alerts response: total is the count of alerts
// ever published (the sequence space), first the oldest sequence the
// bounded backlog still holds.
type alertsPage struct {
	Total  uint64     `json:"total"`
	First  uint64     `json:"first"`
	Alerts []SeqAlert `json:"alerts"`
}

func (d *Daemon) handleAlerts(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, err := queryUint(q.Get("offset"), 0)
	if err != nil {
		http.Error(w, "bad offset", http.StatusBadRequest)
		return
	}
	limit, err := queryUint(q.Get("limit"), 100)
	if err != nil || limit > 10000 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return
	}
	alerts, total, first := d.hub.page(offset, int(limit))
	if alerts == nil {
		alerts = []SeqAlert{}
	}
	writeJSON(w, alertsPage{Total: total, First: first, Alerts: alerts})
}

// handleAlertStream serves the SSE feed: the ?from= backlog first,
// then live alerts as ticks fire. Each event is
//
//	id: <seq>
//	event: alert
//	data: <SeqAlert JSON>
//
// Each client reads the alert ring from its own cursor, writing
// whatever has been published since its last write and flushing once
// per batch, so a burst costs one flush. A client that falls further
// behind than the ring holds (Config.AlertBacklog) loses the alerts it
// evicted, counted in v6scand_sse_dropped_total, and the stream goes
// on from the oldest retained one (an SSE client sees the gap in the
// ids); the pipeline never blocks on a reader. Once Run has returned,
// the stream writes out everything published and ends.
func (d *Daemon) handleAlertStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	from, err := queryUint(r.URL.Query().Get("from"), 0)
	if err != nil {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 2000\n\n")
	fl.Flush()

	sub, next := d.hub.subscribe(from)
	defer d.hub.unsubscribe(sub)
	var batch []SeqAlert
	for final := false; ; {
		batch, next = d.hub.read(next, batch[:0])
		for _, sa := range batch {
			if writeSSE(w, sa) != nil {
				return
			}
		}
		fl.Flush()
		if final {
			return
		}
		select {
		case <-sub.wake:
		case <-r.Context().Done():
			return
		case <-d.hub.done:
			final = true // nothing more is published: one last read
		}
	}
}

func writeSSE(w http.ResponseWriter, sa SeqAlert) error {
	b, err := json.Marshal(sa)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: alert\ndata: %s\n\n", sa.Seq, b)
	return err
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.reg.WritePrometheus(w)
}

// queryUint parses an optional non-negative integer query parameter.
func queryUint(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 63)
}
