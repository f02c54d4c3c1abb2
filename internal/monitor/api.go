package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// NewServer builds the daemon's HTTP handler over a manager. Every
// session route lives under /api/v1. Routes:
//
//	GET    /healthz                         — liveness + session count
//	GET    /api/v1/sessions                 — list sessions
//	POST   /api/v1/sessions                 — create a session (Config body)
//	GET    /api/v1/sessions/{id}            — one session
//	DELETE /api/v1/sessions/{id}            — stop and remove
//	GET    /api/v1/sessions/{id}/metrics    — windowed metrics (?window=SECONDS)
//	GET    /api/v1/sessions/{id}/series     — per-second buckets (?seconds=N)
//	GET    /api/v1/sessions/{id}/alerts     — alert status + history
//	POST   /api/v1/sessions/{id}/ingest     — push frames (push sessions);
//	                                          bodies over MaxIngestBytes get 413
//
// All responses are JSON; errors use {"error": "..."} with
// 400/404/413/429. Per-record ingest failures add structured locator
// fields ("record", "field", "value") beside the error message.
func NewServer(mgr *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":       "ok",
			"sessions":     len(mgr.List()),
			"max_sessions": mgr.Max(),
		})
	})
	mux.HandleFunc("GET /api/v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		sessions := mgr.List()
		views := make([]View, len(sessions))
		for i, s := range sessions {
			views[i] = s.View()
		}
		writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
	})
	mux.HandleFunc("POST /api/v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var cfg Config
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding config: %w", err))
			return
		}
		s, err := mgr.Create(cfg)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, s.View())
	})
	mux.HandleFunc("GET /api/v1/sessions/{id}", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		writeJSON(w, http.StatusOK, s.View())
	}))
	mux.HandleFunc("DELETE /api/v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := mgr.Delete(r.PathValue("id")); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deleted": r.PathValue("id")})
	})
	mux.HandleFunc("GET /api/v1/sessions/{id}/metrics", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		window := 0
		if q := r.URL.Query().Get("window"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n <= 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("window must be a positive integer, got %q", q))
				return
			}
			window = n
		}
		writeJSON(w, http.StatusOK, s.Metrics(window))
	}))
	mux.HandleFunc("GET /api/v1/sessions/{id}/series", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		n := DefaultMetricsWindowSec
		if q := r.URL.Query().Get("seconds"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("seconds must be a positive integer, got %q", q))
				return
			}
			n = v
		}
		buckets := s.Series(n)
		if buckets == nil {
			buckets = []Bucket{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"seconds": buckets})
	}))
	mux.HandleFunc("GET /api/v1/sessions/{id}/alerts", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		eng := s.Alerts()
		status := eng.Status()
		if status == nil {
			status = []AlertStatus{}
		}
		history := eng.History()
		if history == nil {
			history = []AlertEvent{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": status, "history": history})
	}))
	mux.HandleFunc("POST /api/v1/sessions/{id}/ingest", withSession(mgr, func(w http.ResponseWriter, r *http.Request, s *Session) {
		// Read the whole body under the cap: an oversized (or
		// unbounded) push fails with 413 before it can balloon the
		// daemon's memory.
		buf := bodyPool.Get().(*bytes.Buffer)
		defer bodyPool.Put(buf)
		buf.Reset()
		if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxIngestBytes)); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
					"error":       fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
					"limit_bytes": tooBig.Limit,
				})
				return
			}
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding records: %w", err))
			return
		}
		// The records copy nothing from buf, so it goes back to the
		// pool while they wait in the session's queue.
		recs, err := decodeIngest(buf.Bytes())
		if err != nil {
			// Field-level failures carry a structured locator so a
			// pusher can find the offending record without parsing
			// prose out of the error string.
			var fe *fieldError
			if errors.As(err, &fe) {
				writeJSON(w, http.StatusBadRequest, map[string]any{
					"error":  fe.Error(),
					"record": fe.Record,
					"field":  fe.Field,
					"value":  fe.Value,
				})
				return
			}
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding records: %w", err))
			return
		}
		accepted, dropped, rejected, err := s.Ingest(recs)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"accepted": accepted, "dropped": dropped, "rejected": rejected,
		})
	}))
	return mux
}

// withSession resolves {id} and 404s unknown sessions.
func withSession(mgr *Manager, h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		h(w, r, s)
	}
}

// MaxIngestBytes caps an ingest request body. At ~2x hex expansion it
// admits on the order of a million typical frames per push — far past
// any sane batch — while bounding what a misbehaving pusher can make
// the daemon buffer.
const MaxIngestBytes = 16 << 20

// bodyPool holds ingest body buffers for reuse across requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// fieldError locates a per-record validation failure for the
// structured ingest error response.
type fieldError struct {
	Record int
	Field  string
	Value  string
	Err    error
}

func (e *fieldError) Error() string {
	return fmt.Sprintf("record %d: %s: %v", e.Record, e.Field, e.Err)
}
func (e *fieldError) Unwrap() error { return e.Err }

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrMaxSessions):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
