// Congestionmonitor: a streaming per-second congestion classifier —
// the "robust operation" use case from the paper's introduction. It
// plugs a custom Metric stage into the analysis pipeline: the shared
// decoder computes channel busy-time (Equations 2–8) once per frame,
// the stage classifies each finished second, and an alert fires
// whenever the channel's congestion class changes. Records flow in
// incrementally (here from a live simulation, in production from a
// monitor-mode capture read record by record by a capture.Cursor).
package main

import (
	"fmt"

	"wlan80211/internal/analysis"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
	"wlan80211/internal/sim"
	"wlan80211/internal/sniffer"
	"wlan80211/internal/workload"
)

// monitor is a custom analysis.Metric: an incremental per-second
// utilization classifier. The decoder hands it every frame's CBT
// charge; it only has to bucket and classify.
type monitor struct {
	classifier analysis.Classifier
	cbt        phy.Micros
	last       analysis.Class
}

// OnFrame accumulates the open second's busy time.
func (m *monitor) OnFrame(ev *analysis.FrameEvent) { m.cbt += ev.CBT }

// OnSecond classifies the finished second and reports transitions.
func (m *monitor) OnSecond(sec int64) {
	u := analysis.UtilizationPercent(m.cbt)
	m.cbt = 0
	class := m.classifier.Classify(u)
	marker := "  "
	if class != m.last {
		marker = "▶ " // class transition: this is the alert
	}
	fmt.Printf("%st=%3ds  util=%3d%%  %s\n", marker, sec, u, class)
	m.last = class
}

// Finalize has nothing to merge: the monitor's output is its alerts.
func (m *monitor) Finalize(r *analysis.Result) {}

func main() {
	fmt.Println("congestion monitor (channel 1) — ▶ marks class transitions")

	analysis.Register("congestion-alert", "live per-second congestion class transitions",
		func() analysis.Metric { return &monitor{classifier: analysis.PaperClassifier()} })
	a, err := analysis.New(analysis.Options{Metrics: []string{"congestion-alert"}})
	if err != nil {
		panic(err)
	}

	// Live source: a cell whose load ramps from light to saturated.
	sw := workload.Sweep{
		Stations:    16,
		StepSec:     3,
		TailSec:     10,
		Load:        4,
		RoomSize:    22,
		RateFactory: rate.NewMixedFactory(),
		Channel:     phy.Channel1,
		Seed:        42,
	}
	// Rebuild the sweep manually so the analyzer sees records as the
	// simulation produces them (streaming, not post-hoc).
	cfg := sim.DefaultConfig()
	cfg.Seed = sw.Seed
	net := sim.New(cfg)
	ap := net.AddAP("ap", sim.Position{X: 11, Y: 11}, sw.Channel)
	sn := sniffer.New(sniffer.DefaultConfig("mon", 1, sim.Position{X: 11, Y: 13}, sw.Channel))

	seen := 0
	net.AddTap(tapFunc(func(o sim.TxObservation) {
		sn.ObserveTransmission(o)
		for _, r := range sn.Records()[seen:] {
			a.Feed(r)
			seen++
		}
	}))

	for i := 0; i < sw.Stations; i++ {
		st := net.AddStation(fmt.Sprintf("u%d", i), sim.Position{X: 5 + float64(i), Y: 9}, ap, sw.RateFactory)
		at := phy.Micros(i*sw.StepSec) * phy.MicrosPerSecond
		net.Schedule(at, func() { net.StartTraffic(st, sim.ProfileBulk, sw.Load) })
	}
	net.RunFor(phy.Micros(sw.DurationSec()) * phy.MicrosPerSecond)
	a.Result() // close the final second (flushes the last alert line)
}

type tapFunc func(sim.TxObservation)

func (f tapFunc) ObserveTransmission(o sim.TxObservation) { f(o) }
