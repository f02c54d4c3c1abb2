package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/report"
	"wlan80211/internal/workload"
)

// analyzeWorkload is wlanalyze's default path over the seed's
// full-scale plenary session, one radiotap pcap per sniffer: read
// every file, merge, feed all nine analysis stages, take the Result
// and render every table and figure. The simulator is bypassed.
//
// The pcaps hold the session's first analyzeFrames frames (cut at a
// capture time), so every seed offers the same amount of work.
const analyzeFrames = 300000 // a full plenary session captures ~340k-390k

type analyzeWorkload struct {
	paths []string
	ref   experiment.Summary
}

// generate simulates the plenary session, writes each sniffer's trace
// as a pcap in dir, and analyzes the in-memory merged trace for the
// reference Summary every timed run must reproduce.
func (w *analyzeWorkload) generate(seed int64, dir string) error {
	s := workload.PlenarySession()
	if seed != 0 {
		s.Seed = seed
	}
	b, err := s.Scale(1).Build()
	if err != nil {
		return err
	}
	merged := b.Run()
	if len(merged) == 0 {
		return fmt.Errorf("plenary session captured no frames")
	}
	cut := merged[min(len(merged), analyzeFrames)-1].Time
	merged = merged[:sort.Search(len(merged), func(i int) bool { return merged[i].Time > cut })]
	a, err := analysis.New(analysis.Options{})
	if err != nil {
		return err
	}
	a.FeedAll(merged)
	w.ref = experiment.Summarize(a.Result())

	for _, sn := range b.Sniffers {
		path := filepath.Join(dir, sn.Config().Name+".pcap")
		var recs []capture.Record
		for _, r := range sn.Records() {
			if r.Time <= cut {
				recs = append(recs, r)
			}
		}
		if err := writePcap(path, recs, sn.Config().SnapLen); err != nil {
			return err
		}
		w.paths = append(w.paths, path)
	}
	return nil
}

func writePcap(path string, recs []capture.Record, snap int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	pw, err := capture.NewWriter(bw, snap)
	if err != nil {
		f.Close()
		return err
	}
	for _, r := range recs {
		if err := pw.Write(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := pw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *analyzeWorkload) warmup() error {
	o, err := w.run(nil)
	if err == nil && o.failed > 0 {
		err = fmt.Errorf("pcap-path summary differs from the in-memory trace's")
	}
	return err
}

func (w *analyzeWorkload) close() {}

// setup is analysis.New plus opening every input.
func (w *analyzeWorkload) setup() (time.Duration, error) {
	t0 := time.Now()
	if _, err := analysis.New(analysis.Options{}); err != nil {
		return 0, err
	}
	files := make([]*os.File, 0, len(w.paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range w.paths {
		f, err := os.Open(p)
		if err != nil {
			return 0, err
		}
		files = append(files, f)
	}
	return time.Since(t0), nil
}

func (w *analyzeWorkload) run(tr *tracer) (outcome, error) {
	m := startMeter()
	root := tr.begin("analyze", -1)
	a, err := analysis.New(analysis.Options{})
	if err != nil {
		return outcome{}, err
	}
	var readD time.Duration
	var records, skipped int64
	traces := make([][]capture.Record, 0, len(w.paths))
	for _, p := range w.paths {
		sp := tr.begin("read", root)
		recs, sk, err := readPcap(p)
		readD += tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
		traces = append(traces, recs)
		records += int64(len(recs))
		skipped += int64(sk)
	}
	sp := tr.begin("merge", root)
	merged := capture.Merge(traces...)
	mergeD := tr.end(sp)
	sp = tr.begin("feed", root)
	a.FeedAll(merged)
	feedD := tr.end(sp)
	sp = tr.begin("result", root)
	r := a.Result()
	resultD := tr.end(sp)
	sp = tr.begin("render", root)
	for _, t := range report.AllFigures(r) {
		if _, err := t.WriteTo(io.Discard); err != nil {
			return outcome{}, err
		}
	}
	renderD := tr.end(sp)
	wall := tr.end(root)
	o := outcome{sample: m.stop(), work: float64(r.TotalFrames), attempted: 1}

	if got := experiment.Summarize(r); got != w.ref || skipped != 0 {
		fmt.Fprintf(os.Stderr, "analyze: pcap path summary %+v (skipped %d) differs from the in-memory trace's %+v\n", got, skipped, w.ref)
		o.failed = 1
	}
	if tr == nil {
		return o, nil
	}
	o.layers = map[string]float64{
		"capture.read_s":        readD.Seconds(),
		"capture.ns_per_rec":    nsPer(readD, records),
		"capture.merge_s":       mergeD.Seconds(),
		"capture.records":       float64(records),
		"capture.skipped":       float64(skipped),
		"analysis.self_s":       feedD.Seconds(),
		"analysis.ns_per_frame": nsPer(feedD, int64(len(merged))),
		"analysis.result_s":     resultD.Seconds(),
		"analysis.frames":       float64(r.TotalFrames),
		"analysis.parse_errors": float64(r.ParseErrors),
		"report.render_s":       renderD.Seconds(),
		"trace.unaccounted_pct": 100 * (wall - readD - mergeD - feedD - resultD - renderD).Seconds() / wall.Seconds(),
	}
	return o, nil
}

// readPcap is wlanalyze's per-file read: open, capture.ReadAll, close.
func readPcap(path string) ([]capture.Record, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return capture.ReadAll(f)
}
