package monitor

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// keysOf returns the sorted top-level keys of a JSON object — the
// contract the API's consumers depend on.
func keysOf(t *testing.T, raw []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response is not a JSON object: %v\n%s", err, raw)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, raw []byte, want ...string) {
	t.Helper()
	sort.Strings(want)
	got := keysOf(t, raw)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("JSON keys changed:\n  got  %v\n  want %v\nbody: %s", got, want, raw)
	}
}

// do issues a request and returns status + body.
func do(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestAPIContract(t *testing.T) {
	mgr := NewManager(context.Background(), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()

	// Health.
	code, body := do(t, "GET", srv.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d\n%s", code, body)
	}
	wantKeys(t, body, "status", "sessions", "max_sessions")

	// Empty listing.
	code, body = do(t, "GET", srv.URL+"/api/v1/sessions", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	wantKeys(t, body, "sessions")

	// Create a push session with an alert rule.
	code, body = do(t, "POST", srv.URL+"/api/v1/sessions", Config{
		Name:   "contract",
		Source: SourceConfig{Type: SourcePush},
		Alerts: []Rule{{
			Name: "util-high", Metric: "utilization_pct", Op: ">=",
			Raise: 20, Clear: 5, WindowSec: 2,
		}},
	})
	if code != http.StatusCreated {
		t.Fatalf("create: %d\n%s", code, body)
	}
	// The session view is the shape dashboards consume; pin it.
	wantKeys(t, body,
		"id", "name", "state", "source", "window_sec", "queue_cap",
		"accepted", "dropped", "rejected", "frames", "parse_errors",
		"channels", "last_second")
	var created View
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.State != StateRunning {
		t.Fatalf("created view: %+v", created)
	}
	id := created.ID

	// Ingest three busy seconds plus a closing beacon.
	recs := busyQuietTrace(3, 0)
	var wire []map[string]any
	for _, r := range recs {
		wire = append(wire, map[string]any{
			"time_us": int64(r.Time), "rate": uint16(r.Rate),
			"channel": int(r.Channel), "orig_len": r.OrigLen,
			"frame_hex": hex.EncodeToString(r.Frame),
		})
	}
	code, body = do(t, "POST", srv.URL+"/api/v1/sessions/"+id+"/ingest",
		map[string]any{"records": wire})
	if code != http.StatusOK {
		t.Fatalf("ingest: %d\n%s", code, body)
	}
	wantKeys(t, body, "accepted", "dropped", "rejected")
	var ing struct{ Accepted, Dropped, Rejected int }
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != len(recs) || ing.Dropped != 0 || ing.Rejected != 0 {
		t.Fatalf("ingest counts %+v, want %d accepted", ing, len(recs))
	}

	// Poll metrics until the busy seconds close through the pipeline.
	var metrics WindowMetrics
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = do(t, "GET", srv.URL+"/api/v1/sessions/"+id+"/metrics?window=10", nil)
		if code != http.StatusOK {
			t.Fatalf("metrics: %d\n%s", code, body)
		}
		if err := json.Unmarshal(body, &metrics); err != nil {
			t.Fatal(err)
		}
		// The reorder horizon holds the stream's tail while the push
		// session stays open, so only fully closed seconds appear:
		// with 3 busy seconds ingested, at least 2 must close.
		if metrics.Seconds >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never populated: %+v", metrics)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wantKeys(t, body,
		"window_sec", "seconds", "from_second", "to_second", "channels",
		"frames", "frames_per_sec", "utilization_pct", "retry_rate_pct",
		"throughput_mbps", "goodput_mbps", "congestion")
	if metrics.UtilizationPct < 20 {
		t.Fatalf("busy trace utilization %.1f%%, want >=20", metrics.UtilizationPct)
	}

	// The alert raised; status and history have stable shapes.
	code, body = do(t, "GET", srv.URL+"/api/v1/sessions/"+id+"/alerts", nil)
	if code != http.StatusOK {
		t.Fatalf("alerts: %d", code)
	}
	wantKeys(t, body, "status", "history")
	var alerts struct {
		Status  []AlertStatus `json:"status"`
		History []AlertEvent  `json:"history"`
	}
	if err := json.Unmarshal(body, &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts.Status) != 1 || !alerts.Status[0].Active {
		t.Fatalf("alert not raised: %+v", alerts.Status)
	}
	if len(alerts.History) == 0 || alerts.History[0].State != StateRaised {
		t.Fatalf("alert history: %+v", alerts.History)
	}

	// Series endpoint.
	code, body = do(t, "GET", srv.URL+"/api/v1/sessions/"+id+"/series?seconds=5", nil)
	if code != http.StatusOK {
		t.Fatalf("series: %d", code)
	}
	wantKeys(t, body, "seconds")

	// Bad requests.
	if code, _ = do(t, "GET", srv.URL+"/api/v1/sessions/"+id+"/metrics?window=x", nil); code != http.StatusBadRequest {
		t.Fatalf("bad window param: %d, want 400", code)
	}
	if code, body = do(t, "POST", srv.URL+"/api/v1/sessions", Config{Source: SourceConfig{Type: "tape"}}); code != http.StatusBadRequest {
		t.Fatalf("bad source type: %d\n%s", code, body)
	}
	wantKeys(t, body, "error")

	// Unknown session: 404 everywhere.
	for _, ep := range []string{"", "/metrics", "/alerts", "/series"} {
		if code, _ = do(t, "GET", srv.URL+"/api/v1/sessions/nope"+ep, nil); code != http.StatusNotFound {
			t.Fatalf("GET unknown session%s: %d, want 404", ep, code)
		}
	}

	// Cap: one slot left, fill it, then 429.
	if code, _ = do(t, "POST", srv.URL+"/api/v1/sessions", Config{Source: SourceConfig{Type: SourcePush}}); code != http.StatusCreated {
		t.Fatalf("second create: %d", code)
	}
	code, body = do(t, "POST", srv.URL+"/api/v1/sessions", Config{Source: SourceConfig{Type: SourcePush}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: %d, want 429\n%s", code, body)
	}

	// Delete frees the slot; the session is gone.
	if code, _ = do(t, "DELETE", srv.URL+"/api/v1/sessions/"+id, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code, _ = do(t, "GET", srv.URL+"/api/v1/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session still served: %d", code)
	}
	if code, _ = do(t, "DELETE", srv.URL+"/api/v1/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", code)
	}
}

// TestAPIVersionedRoutes pins the /api/v1 surface: every session
// route serves under /api/v1, and the retired unversioned /api paths
// answer 404 for every method.
// TestAPIRejectsOversizedSessions checks that a queue_size or
// window_sec above its bound is a 400 that creates no session, where
// an allocation of that size would panic the handler or reserve
// gigabytes, and that the daemon keeps serving.
func TestAPIRejectsOversizedSessions(t *testing.T) {
	mgr := NewManager(context.Background(), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()

	push := SourceConfig{Type: SourcePush}
	for _, cfg := range []Config{
		{Source: push, QueueSize: 1 << 62},
		{Source: push, WindowSec: 1 << 62},
		{Source: push, QueueSize: MaxQueueSize + 1},
		{Source: push, WindowSec: MaxWindowSec + 1},
	} {
		code, body := do(t, "POST", srv.URL+"/api/v1/sessions", cfg)
		if code != http.StatusBadRequest {
			t.Fatalf("queue_size %d window_sec %d: %d, want 400\n%s", cfg.QueueSize, cfg.WindowSec, code, body)
		}
	}
	code, body := do(t, "GET", srv.URL+"/healthz", nil)
	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if err := json.Unmarshal(body, &health); err != nil || code != http.StatusOK ||
		health.Status != "ok" || health.Sessions != 0 {
		t.Fatalf("healthz after rejected creates: %d %s", code, body)
	}
	// The bounds themselves are accepted.
	code, body = do(t, "POST", srv.URL+"/api/v1/sessions", Config{Source: push, QueueSize: MaxQueueSize, WindowSec: MaxWindowSec})
	if code != http.StatusCreated {
		t.Fatalf("session at the bounds: %d\n%s", code, body)
	}
}

func TestAPIVersionedRoutes(t *testing.T) {
	mgr := NewManager(context.Background(), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()

	code, body := do(t, "POST", srv.URL+"/api/v1/sessions", Config{
		Name: "v1", Source: SourceConfig{Type: SourcePush},
	})
	if code != http.StatusCreated {
		t.Fatalf("v1 create: %d\n%s", code, body)
	}
	var created View
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID

	// Only /api/v1 serves the session; the unversioned paths are gone.
	for _, path := range []string{
		"/sessions", "/sessions/" + id, "/sessions/" + id + "/metrics",
		"/sessions/" + id + "/series", "/sessions/" + id + "/alerts",
	} {
		if code, body := do(t, "GET", srv.URL+"/api/v1"+path, nil); code != http.StatusOK {
			t.Fatalf("/api/v1%s: %d\n%s", path, code, body)
		}
		if code, _ := do(t, "GET", srv.URL+"/api"+path, nil); code != http.StatusNotFound {
			t.Fatalf("/api%s: %d, want 404", path, code)
		}
	}
	for _, path := range []string{"/sessions", "/sessions/" + id + "/ingest"} {
		if code, _ := do(t, "POST", srv.URL+"/api"+path, map[string]any{}); code != http.StatusNotFound {
			t.Fatalf("POST /api%s: %d, want 404", path, code)
		}
	}
	if code, _ := do(t, "DELETE", srv.URL+"/api/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("DELETE /api/sessions/%s: %d, want 404", id, code)
	}

	// Errors version the same way.
	code, _ = do(t, "GET", srv.URL+"/api/v1/sessions/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("v1 unknown session: %d, want 404", code)
	}
	if code, _ = do(t, "DELETE", srv.URL+"/api/v1/sessions/"+id, nil); code != http.StatusOK {
		t.Fatalf("v1 delete: %d", code)
	}
}

func TestAPIPcapSession(t *testing.T) {
	mgr := NewManager(context.Background(), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()

	path := writePcap(t, busyQuietTrace(2, 1))
	code, body := do(t, "POST", srv.URL+"/api/v1/sessions", Config{
		Source: SourceConfig{Type: SourcePcap, Path: path},
	})
	if code != http.StatusCreated {
		t.Fatalf("create pcap session: %d\n%s", code, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = do(t, "GET", srv.URL+"/api/v1/sessions/"+v.ID, nil)
		if code != http.StatusOK {
			t.Fatalf("get: %d", code)
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay did not finish: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.Frames == 0 || v.Error != "" {
		t.Fatalf("finished replay: %+v", v)
	}
}

// pushSession creates a push session and returns its id.
func pushSession(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	code, body := do(t, "POST", srv.URL+"/api/v1/sessions", Config{
		Source: SourceConfig{Type: SourcePush},
	})
	if code != http.StatusCreated {
		t.Fatalf("create push session: %d\n%s", code, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// TestIngestBodyTooLarge pins the ingest body cap: anything over
// MaxIngestBytes is refused with 413 and a structured limit, without
// being buffered first.
func TestIngestBodyTooLarge(t *testing.T) {
	mgr := NewManager(context.Background(), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()
	id := pushSession(t, srv)

	// One giant frame_hex string pushes the body just past the cap.
	huge := strings.Repeat("a", MaxIngestBytes+1024)
	code, body := do(t, "POST", srv.URL+"/api/v1/sessions/"+id+"/ingest",
		map[string]any{"records": []map[string]any{{"frame_hex": huge}}})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: %d, want 413\n%.200s", code, body)
	}
	wantKeys(t, body, "error", "limit_bytes")
	var resp struct {
		LimitBytes int64 `json:"limit_bytes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.LimitBytes != MaxIngestBytes {
		t.Fatalf("limit_bytes = %d, want %d", resp.LimitBytes, MaxIngestBytes)
	}

	// The cap holds for the whole body, not its first JSON value: a
	// short value padded past the cap is refused too.
	padded := append([]byte(`{"records":[]}`), bytes.Repeat([]byte{' '}, MaxIngestBytes)...)
	post, err := http.Post(srv.URL+"/api/v1/sessions/"+id+"/ingest", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("short value padded past the cap: %d, want 413", post.StatusCode)
	}

	// A body just under the cap is still parsed (and rejected for what
	// it says, not for its size).
	code, body = do(t, "POST", srv.URL+"/api/v1/sessions/"+id+"/ingest",
		map[string]any{"records": []map[string]any{}})
	if code != http.StatusOK {
		t.Fatalf("small ingest after oversized one: %d\n%s", code, body)
	}
}

// TestIngestMalformedHexStructuredError pins the structured error for
// undecodable frame_hex: 400 plus machine-readable locator fields.
func TestIngestMalformedHexStructuredError(t *testing.T) {
	mgr := NewManager(context.Background(), 2)
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()
	id := pushSession(t, srv)

	good := map[string]any{"time_us": 1000, "rate": 10, "channel": 1,
		"frame_hex": hex.EncodeToString(beaconRec(1000, 1).Frame)}
	bad := map[string]any{"time_us": 2000, "rate": 10, "channel": 1,
		"frame_hex": "zz-not-hex"}
	code, body := do(t, "POST", srv.URL+"/api/v1/sessions/"+id+"/ingest",
		map[string]any{"records": []map[string]any{good, bad}})
	if code != http.StatusBadRequest {
		t.Fatalf("malformed hex: %d, want 400\n%s", code, body)
	}
	wantKeys(t, body, "error", "record", "field", "value")
	var resp struct {
		Error  string `json:"error"`
		Record int    `json:"record"`
		Field  string `json:"field"`
		Value  string `json:"value"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Record != 1 || resp.Field != "frame_hex" || resp.Value != "zz-not-hex" {
		t.Fatalf("structured error = %+v", resp)
	}
	if !strings.Contains(resp.Error, "record 1") || !strings.Contains(resp.Error, "frame_hex") {
		t.Fatalf("error message %q lacks locator prose", resp.Error)
	}
}
