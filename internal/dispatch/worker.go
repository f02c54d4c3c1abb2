package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"wlan80211/internal/experiment"
)

// Worker is the client side of the dispatch protocol: claim a shard,
// run it as a local crash-resumable campaign, upload the journal,
// repeat until the coordinator says done.
//
// Crash safety rides entirely on the campaign machinery. The shard
// campaign dir (Dir/shard-N) journals every completed run, so a
// worker SIGKILLed mid-shard loses nothing committed: restarted with
// the same Dir it resumes its own journal; a different worker leased
// the shard instead recomputes it bit-identically (runs are
// deterministic), and the coordinator dedups the overlap by spec
// index.
type Worker struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Dir is the worker's state directory; each leased shard runs in
	// Dir/shard-N.
	Dir string
	// Name identifies the worker in coordinator logs.
	Name string
	// Workers bounds concurrent runs within a shard; <=0 means
	// GOMAXPROCS.
	Workers int
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run participates in the campaign until it completes (nil) or ctx is
// canceled (ctx.Err()). The initial manifest fetch retries briefly so
// a worker started a moment before its coordinator still connects.
func (w *Worker) Run(ctx context.Context) error {
	man, err := w.fetchManifest(ctx)
	if err != nil {
		return err
	}
	for {
		var claim ClaimResponse
		if _, err := w.postJSON(ctx, "/api/v1/leases/claim", ClaimRequest{Worker: w.Name}, &claim); err != nil {
			return err
		}
		switch {
		case claim.Done:
			w.logf("worker %s: campaign done", w.Name)
			return nil
		case claim.Wait:
			if err := sleepCtx(ctx, time.Duration(claim.RetryMS)*time.Millisecond); err != nil {
				return err
			}
		case claim.Lease != nil:
			campaignDone, err := w.runShard(ctx, man, claim.Lease)
			if err != nil {
				return err
			}
			if campaignDone {
				// This upload completed the campaign; the coordinator
				// may exit before another claim would reach it.
				w.logf("worker %s: campaign done", w.Name)
				return nil
			}
		default:
			return fmt.Errorf("dispatch: claim response carried neither lease, wait, nor done")
		}
	}
}

// fetchManifest gets the campaign identity, retrying connection
// failures for a few seconds.
func (w *Worker) fetchManifest(ctx context.Context) (experiment.Manifest, error) {
	var man experiment.Manifest
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, 250*time.Millisecond); err != nil {
				return man, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Coordinator+"/api/v1/campaign", nil)
		if err != nil {
			return man, err
		}
		resp, err := w.client().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		err = decodeResponse(resp, &man)
		resp.Body.Close()
		if err != nil {
			return man, err
		}
		return man, nil
	}
	return man, fmt.Errorf("dispatch: coordinator unreachable at %s: %w", w.Coordinator, lastErr)
}

// runShard executes one leased range as a local journaled campaign,
// uploads the resulting records, and reports whether that upload
// completed the whole campaign. A heartbeat goroutine keeps the lease
// alive while the runs execute; losing the lease mid-run (410) does
// not abort the work — the upload is still accepted while the shard
// is pending.
func (w *Worker) runShard(ctx context.Context, man experiment.Manifest, ls *Lease) (bool, error) {
	dir := filepath.Join(w.Dir, fmt.Sprintf("shard-%d", ls.Shard))
	w.logf("worker %s: %s: shard %d [%d,%d) in %s", w.Name, ls.ID, ls.Shard, ls.From, ls.To, dir)

	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx, ls)
	}()

	ex, err := (&experiment.Runner{}).Execute(ctx, experiment.RunSpecOpts{
		Mode:        experiment.ModeCampaign,
		Matrix:      man.Matrix,
		CampaignDir: dir,
		Workers:     w.Workers,
		Metrics:     man.Metrics,
		Range:       &experiment.SpecRange{From: ls.From, To: ls.To},
	})
	stopHB()
	hbWG.Wait()
	if err != nil {
		return false, fmt.Errorf("dispatch: shard %d: %w", ls.Shard, err)
	}

	up := UploadRequest{Lease: ls.ID, Shard: ls.Shard}
	for i := ls.From; i < ls.To; i++ {
		if !ex.Campaign.Done[i] {
			return false, fmt.Errorf("dispatch: shard %d: run %d did not complete", ls.Shard, i)
		}
		up.Records = append(up.Records, ex.Campaign.Records[i])
	}
	var resp UploadResponse
	if _, err := w.postJSON(ctx, "/api/v1/leases/"+ls.ID+"/journal", up, &resp); err != nil {
		return false, err
	}
	w.logf("worker %s: shard %d uploaded (%d accepted, shard done=%v, campaign done=%v)",
		w.Name, ls.Shard, resp.Accepted, resp.ShardDone, resp.CampaignDone)
	return resp.CampaignDone, nil
}

// heartbeatLoop renews the lease at a third of its TTL until stopped.
// A 410 means the lease expired (the coordinator may reassign the
// shard); the worker keeps computing — its upload still counts.
func (w *Worker) heartbeatLoop(ctx context.Context, ls *Lease) {
	interval := time.Duration(ls.TTLMS) * time.Millisecond / 3
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var hb HeartbeatResponse
			status, err := w.postJSON(ctx, "/api/v1/leases/"+ls.ID+"/heartbeat", struct{}{}, &hb)
			if status == http.StatusGone {
				w.logf("worker %s: %s gone; continuing shard %d anyway (upload dedups)", w.Name, ls.ID, ls.Shard)
				return
			}
			if err != nil && ctx.Err() == nil {
				w.logf("worker %s: heartbeat %s: %v", w.Name, ls.ID, err)
			}
		}
	}
}

// postJSON posts a JSON body and decodes a JSON response, returning
// the HTTP status. Non-2xx responses return the server's {"error"}
// message as the error.
func (w *Worker) postJSON(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeResponse(resp, out)
}

// decodeResponse decodes a 2xx JSON body into out, or turns an error
// response into a Go error carrying the server's message.
func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("dispatch: coordinator: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("dispatch: coordinator: HTTP %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps d or returns early with ctx.Err().
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
