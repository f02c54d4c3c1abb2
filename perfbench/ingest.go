package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"wlan80211/internal/monitor"
	"wlan80211/internal/workload"
)

// The ingest workload pushes the seed's full-scale day trace into a
// wland push session over the versioned HTTP API, open loop: batch i
// is due at (records before it) / ingestRate after the start, however
// long earlier requests took, and its latency is timed from that due
// time. One goroutine pushes over one keep-alive loopback connection
// into an in-process monitor.NewServer with the default queue and one
// alert rule. The simulator is bypassed.
//
// A run pushes the trace's first ingestRecords records, so every seed
// offers the same load for the same time; seeds change the frames.
const (
	ingestRate    = 60000  // offered records per second
	ingestRecords = 200000 // records per run; a day trace holds ~216k-250k
	ingestBatch   = 128    // records per request body
	warmupBatches = 400    // requests in the untimed warm-up run
)

// sessionConfig is the POST /api/v1/sessions body: a push session
// with the default queue and one utilization alert.
const sessionConfig = `{"name":"perfbench","source":{"type":"push"},` +
	`"alerts":[{"name":"busy","metric":"utilization_pct","op":">=","raise":60,"clear":40,"window_sec":5}]}`

type ingestWorkload struct {
	bodies [][]byte // pre-encoded ingest request bodies
	counts []int    // records in each body

	mgr       *monitor.Manager
	stopMgr   context.CancelFunc
	srv       *http.Server
	serveDone chan struct{}
	base      string
	client    *http.Client
	handler   handlerTimer
}

// wireRecord is the ingest endpoint's JSON form of one
// capture.Record.
type wireRecord struct {
	TimeUS    int64  `json:"time_us"`
	Rate      uint16 `json:"rate"`
	Channel   int    `json:"channel"`
	SignalDBm int8   `json:"signal_dbm,omitempty"`
	NoiseDBm  int8   `json:"noise_dbm,omitempty"`
	OrigLen   int    `json:"orig_len,omitempty"`
	FrameHex  string `json:"frame_hex"`
}

// generate simulates the seed's full-scale day session and encodes
// the start of its merged trace as ingest bodies, one per line, in
// dir.
func (w *ingestWorkload) generate(seed int64, dir string) error {
	s := workload.DaySession()
	if seed != 0 {
		s.Seed = seed
	}
	b, err := s.Scale(1).Build()
	if err != nil {
		return err
	}
	recs := b.Run()
	recs = recs[:min(len(recs), ingestRecords)]

	path := filepath.Join(dir, "day-ingest.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i := 0; i < len(recs); i += ingestBatch {
		batch := recs[i:min(i+ingestBatch, len(recs))]
		wire := make([]wireRecord, len(batch))
		for j, r := range batch {
			wire[j] = wireRecord{
				TimeUS: int64(r.Time), Rate: uint16(r.Rate), Channel: int(r.Channel),
				SignalDBm: r.SignalDBm, NoiseDBm: r.NoiseDBm, OrigLen: r.OrigLen,
				FrameHex: hex.EncodeToString(r.Frame),
			}
		}
		body, err := json.Marshal(map[string][]wireRecord{"records": wire})
		if err != nil {
			f.Close()
			return err
		}
		bw.Write(body)
		bw.WriteByte('\n')
		w.counts = append(w.counts, len(batch))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	w.bodies = bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	if len(w.bodies) != len(w.counts) {
		return fmt.Errorf("read back %d bodies, wrote %d", len(w.bodies), len(w.counts))
	}
	return nil
}

// warmup starts the server and pushes the first warmupBatches bodies,
// which opens the keep-alive connection.
func (w *ingestWorkload) warmup() error {
	ctx, cancel := context.WithCancel(context.Background())
	w.stopMgr = cancel
	w.mgr = monitor.NewManager(ctx, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: w.handler.wrap(monitor.NewServer(w.mgr))}
	w.serveDone = make(chan struct{})
	go func() {
		defer close(w.serveDone)
		// Serve returns ErrServerClosed once close shuts it down; any
		// other failure shows as failed requests.
		_ = w.srv.Serve(ln)
	}()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	o, err := w.push(nil, min(warmupBatches, len(w.bodies)))
	if err == nil && o.failed > 0 {
		err = fmt.Errorf("%d of %d records failed", o.failed, o.attempted)
	}
	return err
}

func (w *ingestWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		<-w.serveDone
	}
	if w.mgr != nil {
		w.mgr.Close()
		w.stopMgr()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// setup is one POST /api/v1/sessions; the session is deleted
// afterwards, untimed.
func (w *ingestWorkload) setup() (time.Duration, error) {
	t0 := time.Now()
	id, err := w.createSession()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, w.deleteSession(id)
}

func (w *ingestWorkload) run(tr *tracer) (outcome, error) {
	return w.push(tr, len(w.bodies))
}

// push runs one open-loop ingest of the first n bodies into a fresh
// session and drains it. The measured interval runs from the first
// due push until the session has drained after its stop.
func (w *ingestWorkload) push(tr *tracer, n int) (outcome, error) {
	id, err := w.createSession()
	if err != nil {
		return outcome{}, err
	}
	// The session pointer outlives DELETE, so its drained View can be
	// read after the pipeline settles.
	sess, err := w.mgr.Get(id)
	if err != nil {
		return outcome{}, err
	}
	w.handler.reset(tr != nil)

	var offered, accepted, dropped, rejected, failed int64
	var late, idle time.Duration
	var requestsD time.Duration
	lat := make([]time.Duration, 0, n)
	path := "/api/v1/sessions/" + id + "/ingest"
	m := startMeter()
	start := m.start
	root := tr.begin("ingest-run", -1)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(offered) / ingestRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			slept := time.Now()
			time.Sleep(wait)
			idle += time.Since(slept)
		}
		if l := time.Since(due); l > late {
			late = l
		}
		sp := tr.begin("ingest", root)
		code, body, err := w.do(http.MethodPost, path, w.bodies[i])
		requestsD += tr.end(sp)
		lat = append(lat, time.Since(due))
		offered += int64(w.counts[i])
		var resp struct{ Accepted, Dropped, Rejected int64 }
		if err == nil && code/100 == 2 {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil || code/100 != 2 {
			fmt.Fprintf(os.Stderr, "ingest: request %d: status %d err %v\n", i, code, err)
			failed += int64(w.counts[i])
			continue
		}
		accepted += resp.Accepted
		dropped += resp.Dropped
		rejected += resp.Rejected
	}
	sp := tr.begin("drain", root)
	err = w.deleteSession(id)
	drainD := tr.end(sp)
	tr.end(root)
	o := outcome{sample: m.stop(), work: float64(offered), attempted: offered, latencies: lat}
	if err != nil {
		return outcome{}, err
	}

	// Every offered record must be accepted and analyzed: the responses
	// and the drained session must agree on it.
	v := sess.View()
	o.failed = failed + dropped + rejected
	if v.Accepted != accepted || v.Dropped != dropped || v.Rejected != rejected ||
		v.Frames != accepted || accepted+o.failed != offered {
		fmt.Fprintf(os.Stderr, "ingest: %d offered; responses say %d/%d/%d accepted/dropped/rejected, the drained session %d/%d/%d and %d frames\n",
			offered, accepted, dropped, rejected, v.Accepted, v.Dropped, v.Rejected, v.Frames)
		o.failed = max(o.failed, offered-v.Frames, 1)
	}
	if tr == nil {
		return o, nil
	}

	handlerD, requests := w.handler.total()
	wall := o.sample.wall
	o.layers = map[string]float64{
		"monitor.handler_s":          handlerD.Seconds(),
		"monitor.handler_us_per_rec": nsPer(handlerD, offered) / 1e3,
		"monitor.requests":           float64(requests),
		"monitor.accepted":           float64(v.Accepted),
		"monitor.dropped":            float64(v.Dropped),
		"monitor.rejected":           float64(v.Rejected),
		"monitor.frames":             float64(v.Frames),
		"monitor.drain_s":            drainD.Seconds(),
		"monitor.generator_late_ms":  float64(late) / float64(time.Millisecond),
		"analysis.frames":            float64(v.Frames),
		"analysis.parse_errors":      float64(v.ParseErrors),
		// The open loop's wall is requests, drain and the generator's
		// idle waits; the rest is client-side overhead between them.
		"trace.unaccounted_pct": 100 * (wall - requestsD - drainD - idle).Seconds() / wall.Seconds(),
	}
	return o, nil
}

func (w *ingestWorkload) createSession() (string, error) {
	code, body, err := w.do(http.MethodPost, "/api/v1/sessions", []byte(sessionConfig))
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", code, body)
	}
	var v struct{ ID string }
	if err := json.Unmarshal(body, &v); err != nil {
		return "", err
	}
	if v.ID == "" {
		return "", errors.New("create session: no id in response")
	}
	return v.ID, nil
}

// deleteSession stops the session; the API answers once its pipeline
// has drained.
func (w *ingestWorkload) deleteSession(id string) error {
	code, body, err := w.do(http.MethodDelete, "/api/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("delete session %s: status %d: %s", id, code, body)
	}
	return nil
}

// do sends one request and reads the whole response, so the
// keep-alive connection is reused.
func (w *ingestWorkload) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// handlerTimer times the server's ingest handler from outside, by
// wrapping the handler monitor.NewServer returns. It records only
// while a traced run has it on.
type handlerTimer struct {
	on       atomic.Bool
	ns       atomic.Int64
	requests atomic.Int64
}

func (h *handlerTimer) reset(on bool) {
	h.ns.Store(0)
	h.requests.Store(0)
	h.on.Store(on)
}

func (h *handlerTimer) total() (time.Duration, int64) {
	return time.Duration(h.ns.Load()), h.requests.Load()
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !h.on.Load() || !strings.HasSuffix(r.URL.Path, "/ingest") {
			next.ServeHTTP(rw, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(rw, r)
		h.ns.Add(int64(time.Since(t0)))
		h.requests.Add(1)
	})
}
