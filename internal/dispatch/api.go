package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// NewServer builds the coordinator's HTTP handler. All routes are
// versioned under /api/v1 from day one. Routes:
//
//	GET  /healthz                       — liveness + progress counts
//	GET  /api/v1/campaign               — the campaign manifest
//	                                      (matrix, metrics)
//	GET  /api/v1/status                 — shard/lease/run progress
//	POST /api/v1/leases/claim           — claim a shard lease
//	POST /api/v1/leases/{id}/heartbeat  — keep a lease alive (410 once
//	                                      it expired: claim again)
//	POST /api/v1/leases/{id}/journal    — upload a shard's records
//	GET  /api/v1/report                 — final report JSON (404 until
//	                                      every shard folded)
//
// All responses are JSON; errors use {"error": "..."} with
// 400/404/409/410 (409 = conflicting record, which is corruption or
// version skew, never a retryable race).
func NewServer(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "shards": st.Shards, "shards_done": st.ShardsDone, "done": st.Done,
		})
	})
	mux.HandleFunc("GET /api/v1/campaign", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Manifest())
	})
	mux.HandleFunc("GET /api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("POST /api/v1/leases/claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, c.Claim(req.Worker))
	})
	mux.HandleFunc("POST /api/v1/leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		expires, err := c.Heartbeat(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, HeartbeatResponse{ExpiresUnixMS: expires.UnixMilli()})
	})
	mux.HandleFunc("POST /api/v1/leases/{id}/journal", func(w http.ResponseWriter, r *http.Request) {
		var req UploadRequest
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		req.Lease = r.PathValue("id")
		resp, err := c.Upload(req)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /api/v1/report", func(w http.ResponseWriter, r *http.Request) {
		data, ok := c.Report()
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("campaign incomplete"))
			return
		}
		// The cached bytes ARE the artifact — serving them verbatim is
		// what keeps the distributed report byte-identical to the
		// single-process one.
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	return mux
}

// maxBodyBytes caps request bodies; the largest legitimate body is a
// shard upload, a few hundred bytes per record.
const maxBodyBytes = 16 << 20

func decodeBody(r *http.Request, v any) error {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrLeaseGone):
		return http.StatusGone
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
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
