package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/monitor"
	"wlan80211/internal/phy"
)

// fixturePcap writes a radiotap pcap whose air is saturated for
// busySecs seconds and then beacon-only quiet for quietSecs — the
// shape that forces an alert to raise and then clear.
func fixturePcap(t *testing.T, busySecs, quietSecs int) string {
	t.Helper()
	ap := dot11.AddrFromUint64(0x01)
	sta := dot11.AddrFromUint64(0x02)
	wrap := func(tm phy.Micros, f dot11.Frame, r phy.Rate) capture.Record {
		return capture.Record{
			Time: tm, Rate: r, Channel: phy.Channel1,
			SignalDBm: -50, NoiseDBm: -95,
			OrigLen: f.WireLen(), Frame: f.AppendTo(nil),
		}
	}
	var recs []capture.Record
	var seq uint16
	for sec := 0; sec < busySecs; sec++ {
		tm := phy.Micros(sec) * phy.MicrosPerSecond
		limit := tm + phy.MicrosPerSecond - 20_000
		for tm < limit {
			d := dot11.NewData(ap, sta, ap, seq, make([]byte, 1400))
			d.FC.ToDS = true
			recs = append(recs, wrap(tm, d, phy.Rate11Mbps))
			end := tm + phy.Airtime(d.WireLen(), phy.Rate11Mbps)
			recs = append(recs, wrap(end+phy.SIFS, dot11.NewACK(sta), phy.Rate1Mbps))
			tm = end + phy.SIFS + phy.Airtime(14, phy.Rate1Mbps) + phy.DIFS
			seq++
		}
	}
	for sec := busySecs; sec < busySecs+quietSecs; sec++ {
		tm := phy.Micros(sec) * phy.MicrosPerSecond
		for i := 0; i < 5; i++ {
			b := dot11.NewBeacon(ap, "net", 1, uint64(tm), seq)
			recs = append(recs, wrap(tm+phy.Micros(i)*100_000, b, phy.Rate1Mbps))
			seq++
		}
	}
	// Trailing beacon so the final quiet second closes.
	last := dot11.NewBeacon(ap, "net", 1, 0, seq)
	recs = append(recs, wrap(phy.Micros(busySecs+quietSecs)*phy.MicrosPerSecond+1000, last, phy.Rate1Mbps))

	path := filepath.Join(t.TempDir(), "fixture.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := capture.NewWriter(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func apiDo(t *testing.T, method, url string, body any, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonEndToEnd is the acceptance path: boot the daemon, run a
// pcap-replay session and a live scenario session concurrently, poll
// metrics until windows populate, observe the replay trip its alert
// (raise, then hysteresis clear in the quiet tail), and SIGTERM-drain
// the whole daemon cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	// The daemon's own signal path: SIGTERM cancels this context.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	ready := make(chan net.Addr, 1)
	daemonErr := make(chan error, 1)
	go func() {
		daemonErr <- runDaemon(ctx, "127.0.0.1:0", 4, monitor.DefaultWindowSec, ready)
	}()
	var base string
	select {
	case a := <-ready:
		base = "http://" + a.String()
	case err := <-daemonErr:
		t.Fatalf("daemon failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	var health struct {
		Status      string `json:"status"`
		MaxSessions int    `json:"max_sessions"`
	}
	if code := apiDo(t, "GET", base+"/healthz", nil, &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, health)
	}
	if health.MaxSessions != 4 {
		t.Fatalf("-max-sessions not honored: %+v", health)
	}

	// Session A: pcap replay with an alert rule that the busy phase
	// must raise and the quiet tail must clear.
	pcapPath := fixturePcap(t, 4, 4)
	var replay monitor.View
	code := apiDo(t, "POST", base+"/api/v1/sessions", monitor.Config{
		Name:   "replay",
		Source: monitor.SourceConfig{Type: monitor.SourcePcap, Path: pcapPath},
		Alerts: []monitor.Rule{{
			Name: "congested", Metric: "utilization_pct", Op: ">=",
			Raise: 20, Clear: 5, WindowSec: 2,
		}},
	}, &replay)
	if code != http.StatusCreated {
		t.Fatalf("creating replay session: %d", code)
	}

	// Session B: a live scenario run from the experiment registry.
	var live monitor.View
	code = apiDo(t, "POST", base+"/api/v1/sessions", monitor.Config{
		Name:   "live",
		Source: monitor.SourceConfig{Type: monitor.SourceScenario, Scenario: "day", Seed: 1, Scale: 0.02},
	}, &live)
	if code != http.StatusCreated {
		t.Fatalf("creating scenario session: %d", code)
	}

	// Poll both sessions until their windows populate.
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range []string{replay.ID, live.ID} {
		for {
			var m monitor.WindowMetrics
			if code := apiDo(t, "GET", fmt.Sprintf("%s/api/v1/sessions/%s/metrics?window=60", base, id), nil, &m); code != http.StatusOK {
				t.Fatalf("metrics %s: %d", id, code)
			}
			if m.Seconds > 0 && m.Frames > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s window never populated", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The replay finishes quickly (speed 0); its alert history must
	// show the raise and the hysteresis clear.
	var alerts struct {
		Status  []monitor.AlertStatus `json:"status"`
		History []monitor.AlertEvent  `json:"history"`
	}
	for {
		if code := apiDo(t, "GET", base+"/api/v1/sessions/"+replay.ID+"/alerts", nil, &alerts); code != http.StatusOK {
			t.Fatalf("alerts: %d", code)
		}
		raised, cleared := false, false
		for _, ev := range alerts.History {
			switch ev.State {
			case monitor.StateRaised:
				raised = true
			case monitor.StateCleared:
				cleared = raised
			}
		}
		if raised && cleared {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert never completed raise+clear: %+v", alerts.History)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if alerts.Status[0].Active {
		t.Fatalf("alert still active after the quiet tail: %+v", alerts.Status)
	}

	// Both sessions are live concurrently (or the replay already
	// finished — both must be listed).
	var listing struct {
		Sessions []monitor.View `json:"sessions"`
	}
	if code := apiDo(t, "GET", base+"/api/v1/sessions", nil, &listing); code != http.StatusOK || len(listing.Sessions) != 2 {
		t.Fatalf("listing: %d, %d sessions", code, len(listing.Sessions))
	}

	// SIGTERM: the daemon must drain both sessions and return nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-daemonErr:
		if err != nil {
			t.Fatalf("daemon exited with error after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain within 30s of SIGTERM")
	}
}
