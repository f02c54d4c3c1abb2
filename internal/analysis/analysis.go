// Package analysis is the canonical entry point for the paper's
// congestion analysis (Jardosh et al., IMC 2005): channel busy-time
// (Table 2, Equations 2–7), per-second channel utilization (Equation
// 8), throughput and goodput, congestion classification with knee
// detection (Sec 5), unrecorded-frame estimation from DCF atomicity
// (Sec 4.4, Equation 1), the 16 size×rate frame categories (Sec 6),
// and the per-figure aggregations for Figures 4–15.
//
// The analysis is a streaming pipeline: a shared single-pass decoder
// parses each record once, tracks DCF exchange state, and fans
// annotated FrameEvents out to independent Metric stages — one per
// paper figure group — selected through Options.Metrics. Records
// arrive incrementally via Feed (or straight from a pcap stream via
// Run), so peak memory is bounded by per-second accumulator state and
// the per-device exchange tables, not by trace length. Work is sharded
// per channel — the unit at which the paper computes every metric —
// and shards merge in ascending channel order, so the Result does not
// depend on how records from different channels interleave.
//
// The analysis consumes only capture records — what a vicinity sniffer
// could see — never simulator ground truth, so its estimators face the
// same information limits the paper's did.
package analysis

import (
	"io"
	"sort"
	"sync/atomic"

	"wlan80211/internal/capture"
	"wlan80211/internal/pcapio"
	"wlan80211/internal/phy"
)

// Options configures an Analyzer.
type Options struct {
	// Metrics selects which registered stages run, by name
	// (see Names). Empty runs every registered stage — unless Extra
	// is set, when empty runs none.
	Metrics []string
	// Extra appends per-shard metric stages beyond the registered
	// set: each factory is invoked once per channel shard, exactly
	// like a registry factory, and its stages see the same annotated
	// FrameEvents. This is how embedding layers (the live monitor)
	// tap the decoder without registering globally; such a layer
	// runs only the registered stages it names, since it pays for
	// every stage's state and may never read the Result.
	Extra []Factory
}

// Analyzer consumes capture records incrementally and produces the
// paper's Result. Feed records (in non-decreasing time order per
// channel), then call Result once. Analyzer is not safe for
// concurrent use (Snapshot excepted).
type Analyzer struct {
	opts Options
	defs []metricDef
	// shards holds one decoder per channel — the per-channel unit of
	// work, with its own metric instances, fed only that channel's
	// records.
	shards map[phy.Channel]*decoder
	res    *Result

	// Live counters behind Snapshot: readable from any goroutine
	// while Feed runs on another.
	snapFrames   atomic.Int64
	snapErrors   atomic.Int64
	snapChannels atomic.Int64
	snapLast     atomic.Int64
}

// Snapshot is a goroutine-safe point-in-time view of an Analyzer's
// progress — the monitoring surface, so an embedding layer never
// reaches into decoder or stage internals.
type Snapshot struct {
	// Frames counts records accepted by Feed so far.
	Frames int64
	// ParseErrors counts records decoded so far whose MAC frame
	// failed to parse.
	ParseErrors int64
	// Channels is the number of channel shards opened.
	Channels int
	// LastTime is the newest record timestamp fed.
	LastTime phy.Micros
}

// Snapshot returns the current progress counters. Unlike every other
// Analyzer method it is safe to call concurrently with Feed (from any
// goroutine): values are individually atomic and mutually consistent
// only up to Feed's progress.
func (a *Analyzer) Snapshot() Snapshot {
	return Snapshot{
		Frames:      a.snapFrames.Load(),
		ParseErrors: a.snapErrors.Load(),
		Channels:    int(a.snapChannels.Load()),
		LastTime:    phy.Micros(a.snapLast.Load()),
	}
}

// New builds an Analyzer. It fails only when Options.Metrics names an
// unregistered stage.
func New(opts Options) (*Analyzer, error) {
	var defs []metricDef
	if len(opts.Metrics) > 0 || len(opts.Extra) == 0 {
		var err error
		if defs, err = lookup(opts.Metrics); err != nil {
			return nil, err
		}
	}
	return &Analyzer{
		opts:   opts,
		defs:   defs,
		shards: make(map[phy.Channel]*decoder),
	}, nil
}

// shardFor returns (creating on first use) the channel's decoder.
func (a *Analyzer) shardFor(ch phy.Channel) *decoder {
	if s, ok := a.shards[ch]; ok {
		return s
	}
	metrics := make([]Metric, 0, len(a.defs)+len(a.opts.Extra))
	for _, d := range a.defs {
		metrics = append(metrics, d.factory())
	}
	for _, f := range a.opts.Extra {
		metrics = append(metrics, f())
	}
	s := newDecoder(metrics)
	a.shards[ch] = s
	a.snapChannels.Add(1)
	return s
}

// Feed consumes one record. Records must arrive in non-decreasing
// time order within each channel (interleaving across channels is
// fine); a record older than its channel's open second is folded into
// the open second. Feed panics if called after Result.
func (a *Analyzer) Feed(rec capture.Record) {
	if a.res != nil {
		panic("analysis: Feed after Result")
	}
	s := a.shardFor(rec.Channel)
	a.snapFrames.Add(1)
	for {
		old := a.snapLast.Load()
		if int64(rec.Time) <= old || a.snapLast.CompareAndSwap(old, int64(rec.Time)) {
			break
		}
	}
	if !s.feed(rec) {
		a.snapErrors.Add(1)
	}
}

// FeedAll consumes a slice of records via Feed.
func (a *Analyzer) FeedAll(recs []capture.Record) {
	for i := range recs {
		a.Feed(recs[i])
	}
}

// Run streams a radiotap pcap directly into the analyzer, record by
// record, without materializing the trace. It returns the number of
// records skipped because their radiotap header failed to decode
// (matching capture.ReadAll's tolerance). Run may be called for
// several streams before Result.
func (a *Analyzer) Run(rd io.Reader) (skipped int, err error) {
	pr, err := pcapio.NewReader(rd)
	if err != nil {
		return 0, err
	}
	if pr.LinkType() != pcapio.LinkTypeRadiotap {
		return 0, capture.ErrLinkType
	}
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return skipped, nil
		}
		if err != nil {
			return skipped, err
		}
		r, err := capture.FromPcap(p)
		if err != nil {
			skipped++
			continue
		}
		a.Feed(r)
	}
}

// Result closes every open second, merges all channel shards in
// ascending channel order, and returns the analysis. Repeated calls
// return the same Result; Feed must not be called afterwards.
func (a *Analyzer) Result() *Result {
	if a.res != nil {
		return a.res
	}
	channels := make([]phy.Channel, 0, len(a.shards))
	for ch := range a.shards {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i] < channels[j] })

	res := newResult()
	for _, ch := range channels {
		s := a.shards[ch]
		s.close()
		res.TotalFrames += s.totalFrames
		res.ParseErrors += s.parseErrors
		for _, m := range s.metrics {
			m.Finalize(res)
		}
	}
	res.finish()
	a.res = res
	return res
}

// Analyze runs the full pipeline over a merged trace with every
// registered metric, sequentially. Records are processed per channel
// in time order (each channel's records are stably sorted by
// timestamp first, so unordered input is accepted).
func Analyze(recs []capture.Record) *Result {
	r, err := AnalyzeWith(Options{}, recs)
	if err != nil {
		panic(err) // unreachable: default options never fail
	}
	return r
}

// AnalyzeWith is Analyze with explicit Options.
func AnalyzeWith(opts Options, recs []capture.Record) (*Result, error) {
	a, err := New(opts)
	if err != nil {
		return nil, err
	}
	byCh := capture.SplitByChannel(recs)
	channels := make([]phy.Channel, 0, len(byCh))
	for ch := range byCh {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i] < channels[j] })
	for _, ch := range channels {
		chRecs := byCh[ch]
		sort.SliceStable(chRecs, func(i, j int) bool { return chRecs[i].Time < chRecs[j].Time })
		a.FeedAll(chRecs)
	}
	return a.Result(), nil
}
