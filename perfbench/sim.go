package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/sim"
	"wlan80211/internal/workload"
)

// simWorkload is the day and grid256 workloads: full-scale runs of a
// registered scenario through Runner.Execute with one worker — the
// collect path wlansweep takes by default for day, the journaled
// campaign path distributed workers take for grid256.
//
// Traced runs compose the same pipeline from its stages (workload
// build, RunStream, Dedup, Reorder, TraceHasher, Analyzer) so the
// calls into each layer can be timed and counted from outside. The
// untimed warm-up is such a composed run; its outputs are the
// reference every timed run is checked against.
type simWorkload struct {
	name     string // registry name: "day" or "grid256"
	campaign bool
	// sessions is how many scenario seeds one run simulates, one after
	// another. A day session's transmissions vary by ~±10% between
	// seeds, so a day run simulates three to keep its work steady
	// across seeds; grid256 varies by ~±3% and simulates one.
	sessions int
	seeds    []int64
	dir      string
	runs     int
	ref      []simCounters // per seed
}

// simCounters are one session's deterministic outputs: equal on every
// run of one seed.
type simCounters struct {
	summary    experiment.Summary
	hash       string
	stats      sim.NetStats
	events     uint64
	heapOps    uint64
	deferrals  uint64
	rows       int
	links      int
	records    int64
	deduped    int64
	dedupPeak  int
	reorderMax int
}

// tx is the simulator's work: every transmission it put on the air.
func (c simCounters) tx() int64 {
	s := c.stats
	return s.DataSent + s.RTSSent + s.CTSSent + s.ACKSent + s.BeaconsSent
}

func (w *simWorkload) matrix() experiment.Matrix {
	return experiment.Matrix{Scenarios: []string{w.name}, Seeds: w.seeds, Scales: []float64{1}}
}

func (w *simWorkload) work() float64 {
	var tx int64
	for _, c := range w.ref {
		tx += c.tx()
	}
	return float64(tx)
}

// generate derives the run's scenario seeds; the simulator workloads
// have no other inputs.
func (w *simWorkload) generate(seed int64, dir string) error {
	w.dir = dir
	for i := 0; i < w.sessions; i++ {
		w.seeds = append(w.seeds, seed*int64(w.sessions)+int64(i))
	}
	return nil
}

func (w *simWorkload) close() {}

func (w *simWorkload) warmup() error {
	for _, seed := range w.seeds {
		c, _, err := w.compose(nil, -1, seed)
		if err != nil {
			return err
		}
		w.ref = append(w.ref, c)
	}
	return nil
}

// setup is Matrix.Expand plus Scenario.Build: everything Execute does
// before the simulations start.
func (w *simWorkload) setup() (time.Duration, error) {
	t0 := time.Now()
	specs, err := w.matrix().Expand()
	if err != nil {
		return 0, err
	}
	for _, spec := range specs {
		if _, err := spec.Scenario.Build(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (w *simWorkload) run(tr *tracer) (outcome, error) {
	if tr != nil {
		return w.runTraced(tr)
	}
	opts := experiment.RunSpecOpts{Matrix: w.matrix(), Mode: experiment.ModeCollect, Workers: 1}
	if w.campaign {
		opts.Mode = experiment.ModeCampaign
		opts.CampaignDir = filepath.Join(w.dir, fmt.Sprintf("campaign-%d", w.runs))
		defer os.RemoveAll(opts.CampaignDir)
	}
	w.runs++
	m := startMeter()
	ex, err := (&experiment.Runner{}).Execute(context.Background(), opts)
	o := outcome{sample: m.stop(), work: w.work(), attempted: 1}
	if err == nil {
		err = w.check(ex, opts.CampaignDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: check failed: %v\n", w.name, err)
		o.failed = 1
	}
	return o, nil
}

// check compares an Execute result with the reference runs: the same
// Summary per seed, and for a campaign the same journaled trace hash.
func (w *simWorkload) check(ex *experiment.Execution, campaignDir string) error {
	if !w.campaign {
		if len(ex.Results) != len(w.ref) {
			return fmt.Errorf("%d results, want %d", len(ex.Results), len(w.ref))
		}
		for i, r := range ex.Results {
			if r.Err != nil {
				return r.Err
			}
			if r.Summary != w.ref[i].summary {
				return fmt.Errorf("seed %d: summary %+v differs from the composed pipeline's %+v", w.seeds[i], r.Summary, w.ref[i].summary)
			}
		}
		return nil
	}
	recs, err := experiment.ReadJournal(experiment.JournalPath(campaignDir))
	if err != nil {
		return err
	}
	if len(recs) != len(w.ref) {
		return fmt.Errorf("journal holds %d records, want %d", len(recs), len(w.ref))
	}
	for _, rec := range recs {
		if rec.Index < 0 || rec.Index >= len(w.ref) {
			return fmt.Errorf("journal record index %d out of range", rec.Index)
		}
		ref := w.ref[rec.Index]
		if rec.TraceHash != ref.hash {
			return fmt.Errorf("seed %d: journal trace hash %s differs from the composed pipeline's %s", rec.Seed, rec.TraceHash, ref.hash)
		}
		if rec.Summary != ref.summary {
			return fmt.Errorf("seed %d: journal summary %+v differs from the composed pipeline's %+v", rec.Seed, rec.Summary, ref.summary)
		}
	}
	return nil
}

func (w *simWorkload) runTraced(tr *tracer) (outcome, error) {
	m := startMeter()
	root := tr.begin("run", -1)
	var (
		cs []simCounters
		st stageTimes
	)
	var err error
	for i, seed := range w.seeds {
		c, t, cerr := w.compose(tr, root, seed)
		if cerr == nil && c != w.ref[i] {
			cerr = fmt.Errorf("seed %d: deterministic counters %+v differ from the reference run's %+v", seed, c, w.ref[i])
		}
		if cerr != nil {
			err = cerr
			break
		}
		cs = append(cs, c)
		st.add(t)
	}
	wall := tr.end(root)
	o := outcome{sample: m.stop(), work: w.work(), attempted: 1}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: traced check failed: %v\n", w.name, err)
		o.failed = 1
		return o, nil
	}
	o.layers = simLayers(cs, st, wall)
	return o, nil
}

// built is one constructed simulation, from the workload package.
type built struct {
	net    *sim.Network
	stream func(func(capture.Record))
	multi  bool
}

// build constructs the scenario exactly as the experiment registry's
// factory for w.name does; the Summary and trace-hash checks catch
// any drift between the two.
func (w *simWorkload) build(seed int64) (built, error) {
	switch w.name {
	case "day":
		s := workload.DaySession()
		if seed != 0 {
			s.Seed = seed
		}
		b, err := s.Scale(1).Build()
		if err != nil {
			return built{}, err
		}
		return built{b.Net, b.RunStream, false}, nil
	case "grid256":
		g := workload.Grid256()
		if seed != 0 {
			g.Seed = seed
		}
		b, err := g.Scale(1).Build()
		if err != nil {
			return built{}, err
		}
		return built{b.Net, b.RunStream, b.MultiSniffer()}, nil
	}
	return built{}, fmt.Errorf("no composed pipeline for %q", w.name)
}

// stageTimes are the phase spans and per-record stage call times of
// composed sessions.
type stageTimes struct {
	build, stream, flush, result time.Duration
	feed, hash, reorder, dedup   callTimer
}

func (t *stageTimes) add(o stageTimes) {
	t.build += o.build
	t.stream += o.stream
	t.flush += o.flush
	t.result += o.result
	for _, p := range []struct{ to, from *callTimer }{
		{&t.feed, &o.feed}, {&t.hash, &o.hash}, {&t.reorder, &o.reorder}, {&t.dedup, &o.dedup},
	} {
		p.to.d += p.from.d
		p.to.n += p.from.n
	}
}

// compose runs one session through build → stream → [dedup] →
// reorder → [trace hash] → analyzer, the pipeline Execute runs for
// this workload. With a tracer it spans each phase and times the
// per-record calls into each stage.
func (w *simWorkload) compose(tr *tracer, parent int, seed int64) (simCounters, stageTimes, error) {
	var t stageTimes
	sess := tr.begin("session", parent)
	defer tr.end(sess)
	sp := tr.begin("build", sess)
	b, err := w.build(seed)
	t.build = tr.end(sp)
	if err != nil {
		return simCounters{}, t, err
	}
	a, err := analysis.New(analysis.Options{})
	if err != nil {
		return simCounters{}, t, err
	}

	next := experiment.Sink(a.Feed)
	if tr != nil {
		next = t.feed.wrap(next)
	}
	var th *experiment.TraceHasher
	if w.campaign {
		th = experiment.NewTraceHasher(next)
		next = th.Add
		if tr != nil {
			next = t.hash.wrap(next)
		}
	}
	ro := experiment.NewReorder(next)
	head := experiment.Sink(ro.Add)
	if tr != nil {
		head = t.reorder.wrap(head)
	}
	var dd *experiment.Dedup
	if b.multi {
		dd = experiment.NewDedup(head)
		head = dd.Add
		if tr != nil {
			head = t.dedup.wrap(head)
		}
	}
	var c simCounters
	sink := func(rec capture.Record) {
		c.records++
		head(rec)
	}

	sp = tr.begin("stream", sess)
	b.stream(sink)
	t.stream = tr.end(sp)
	sp = tr.begin("flush", sess)
	ro.Flush()
	t.flush = tr.end(sp)
	sp = tr.begin("result", sess)
	r := a.Result()
	t.result = tr.end(sp)

	c.summary = experiment.Summarize(r)
	if th != nil {
		c.hash = th.Sum()
	}
	c.stats = b.net.Stats
	c.events = b.net.EventsProcessed()
	c.heapOps = b.net.EventHeapOps()
	c.deferrals = b.net.EventDeferrals()
	c.rows, c.links, _ = b.net.LinkStats()
	if dd != nil {
		c.deduped = dd.Dropped
		c.dedupPeak = dd.MaxPending()
	}
	c.reorderMax = ro.MaxPending()
	return c, t, nil
}

// simLayers turns a traced run's sessions into per-layer metrics.
// Each stage's call time covers the stages it feeds, so its self time
// subtracts the next stage's; the simulator's (with its sniffer taps)
// is the stream phase minus the first stage's calls.
func simLayers(cs []simCounters, t stageTimes, wall time.Duration) map[string]float64 {
	var tx, events, heapOps, deferrals, records, deduped, frames, parseErrors int64
	var acked, sent, collisions, queueDrops int64
	var rows, links, dedupPeak, reorderMax int
	for _, c := range cs {
		tx += c.tx()
		events += int64(c.events)
		heapOps += int64(c.heapOps)
		deferrals += int64(c.deferrals)
		records += c.records
		deduped += c.deduped
		frames += c.summary.Frames
		parseErrors += c.summary.ParseErrors
		acked += c.stats.DataAcked
		sent += c.stats.DataSent
		collisions += c.stats.Collisions
		queueDrops += c.stats.QueueDrops
		rows += c.rows
		links += c.links
		dedupPeak = max(dedupPeak, c.dedupPeak)
		reorderMax = max(reorderMax, c.reorderMax)
	}

	reorderFeeds := t.feed.d
	if t.hash.n > 0 {
		reorderFeeds = t.hash.d
	}
	headD := t.reorder.d
	var dedupSelf, hashSelf time.Duration
	if t.dedup.n > 0 {
		headD = t.dedup.d
		dedupSelf = t.dedup.d - t.reorder.d
	}
	if t.hash.n > 0 {
		hashSelf = t.hash.d - t.feed.d
	}
	simSelf := t.stream - headD
	reorderSelf := t.reorder.d + t.flush - reorderFeeds
	phases := t.build + t.stream + t.flush + t.result
	return map[string]float64{
		"workload.build_s":       t.build.Seconds(),
		"sim.self_s":             simSelf.Seconds(),
		"sim.tx":                 float64(tx),
		"sim.ns_per_tx":          nsPer(simSelf, tx),
		"sim.ns_per_event":       nsPer(simSelf, events),
		"sim.data_acked_ratio":   ratio(float64(acked), float64(sent)),
		"sim.collisions_per_tx":  ratio(float64(collisions), float64(tx)),
		"sim.queue_drops":        float64(queueDrops),
		"sim.links_per_row":      ratio(float64(links), float64(rows)),
		"eventq.events":          float64(events),
		"eventq.heap_ops":        float64(heapOps),
		"eventq.deferrals":       float64(deferrals),
		"eventq.events_per_tx":   ratio(float64(events), float64(tx)),
		"eventq.heap_ops_per_tx": ratio(float64(heapOps), float64(tx)),
		"sniffer.records":        float64(records),
		"sniffer.records_per_tx": ratio(float64(records), float64(tx)),
		"dedup.self_s":           dedupSelf.Seconds(),
		"dedup.ns_per_rec":       nsPer(dedupSelf, t.dedup.n),
		"dedup.dropped":          float64(deduped),
		"dedup.max_pending":      float64(dedupPeak),
		"reorder.self_s":         reorderSelf.Seconds(),
		"reorder.ns_per_rec":     nsPer(reorderSelf, t.reorder.n),
		"reorder.max_pending":    float64(reorderMax),
		"tracehash.self_s":       hashSelf.Seconds(),
		"analysis.self_s":        t.feed.d.Seconds(),
		"analysis.ns_per_frame":  nsPer(t.feed.d, t.feed.n),
		"analysis.result_s":      t.result.Seconds(),
		"analysis.frames":        float64(frames),
		"analysis.parse_errors":  float64(parseErrors),
		// The phases tile each session; what they leave is analyzer
		// construction, summarizing and the gaps between sessions.
		"trace.unaccounted_pct": 100 * (wall - phases).Seconds() / wall.Seconds(),
	}
}
