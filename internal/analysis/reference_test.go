package analysis

import (
	"sort"

	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// The decoder's exchange state and the aps stage before they were keyed
// by AddrID: every (transmitter, sequence) pair and every address in a
// Go map, the exchange matched on addresses. refAnalyze runs them, with
// the other registered stages unchanged, as the reference every test of
// the ID-keyed fast path compares against.

type refPendingData struct {
	valid   bool
	ta      dot11.Addr
	end     phy.Micros
	rate    phy.Rate
	wireLen int
	retry   bool
	seqKey  uint64
}

type refPendingRTS struct {
	valid  bool
	ta, ra dot11.Addr
	end    phy.Micros
	sawCTS bool
}

type refDecoder struct {
	metrics []Metric

	started bool
	second  int64

	pend      refPendingData
	prts      refPendingRTS
	firstSeen map[uint64]phy.Micros // (ta,seq) → first attempt time

	totalFrames int64
	parseErrors int64

	parser dot11.Parser
	ev     FrameEvent
}

// refAddrSeqKey packs a transmitter address and sequence number.
func refAddrSeqKey(a dot11.Addr, seq uint16) uint64 {
	var v uint64
	for _, b := range a {
		v = v<<8 | uint64(b)
	}
	return v<<12 | uint64(seq&0xfff)
}

func (d *refDecoder) feed(rec capture.Record) {
	sec := rec.Second()
	if !d.started {
		d.started = true
		d.second = sec
	}
	for d.second < sec {
		for _, m := range d.metrics {
			m.OnSecond(d.second)
		}
		d.second++
	}

	d.totalFrames++
	ev := &d.ev
	*ev = FrameEvent{Rec: rec, Second: d.second, RateIdx: rateIdx(rec.Rate)}

	p, err := d.parser.Parse(rec.Frame)
	if err != nil {
		d.parseErrors++
		d.dispatch(ev)
		return
	}
	ev.Parsed = p

	switch f := p.Frame.(type) {
	case *dot11.Data:
		ev.Kind = KindData
		ev.CBT = CBTData(rec.OrigLen, rec.Rate)
		if ci, ok := CategoryOf(rec.OrigLen, rec.Rate).Index(); ok {
			ev.CatIndex, ev.CatOK = ci, true
		}
		if d.prts.valid && d.prts.ta == f.Addr2 {
			if !d.prts.sawCTS {
				ev.Missing = MissingCTS
				ev.MissingAddr = d.prts.ra
			}
			d.prts.valid = false
		}
		if !f.Addr1.IsGroup() {
			end := rec.Time + phy.Airtime(rec.OrigLen, rec.Rate)
			key := refAddrSeqKey(f.Addr2, f.Seq.Num)
			first, ok := d.firstSeen[key]
			if !ok || rec.Time-first > 2*phy.MicrosPerSecond {
				first = rec.Time
				d.firstSeen[key] = first
			}
			d.pend = refPendingData{
				valid:   true,
				ta:      f.Addr2,
				end:     end,
				rate:    rec.Rate,
				wireLen: rec.OrigLen,
				retry:   f.FC.Retry,
				seqKey:  key,
			}
		} else {
			ev.GoodputBits = int64(rec.OrigLen) * 8
			d.pend.valid = false
		}

	case *dot11.ACK:
		ev.Kind = KindACK
		ev.CBT = CBTACK()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		if d.pend.valid && d.pend.ta == f.RA && rec.Time-d.pend.end <= AckMatchWindow {
			ev.Acked = true
			ev.GoodputBits += int64(d.pend.wireLen) * 8
			ev.AckedRateIdx = rateIdx(d.pend.rate)
			ev.AckedRetry = d.pend.retry
			if first, ok := d.firstSeen[d.pend.seqKey]; ok {
				delay := float64(rec.Time-first) / 1e6
				if ci, okc := CategoryOf(d.pend.wireLen, d.pend.rate).Index(); okc && delay >= 0 {
					ev.AckedCat, ev.AckedDelay, ev.AckedDelayOK = ci, delay, true
				}
				delete(d.firstSeen, d.pend.seqKey)
			}
		} else {
			ev.Missing = MissingData
			ev.MissingAddr = f.RA
		}
		d.pend.valid = false
		d.prts.valid = false

	case *dot11.RTS:
		ev.Kind = KindRTS
		ev.CBT = CBTRTS()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		d.prts = refPendingRTS{valid: true, ta: f.TA, ra: f.RA, end: rec.Time + phy.Airtime(rec.OrigLen, rec.Rate)}
		d.pend.valid = false

	case *dot11.CTS:
		ev.Kind = KindCTS
		ev.CBT = CBTCTS()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		if d.prts.valid && d.prts.ta == f.RA && rec.Time-d.prts.end <= AckMatchWindow {
			d.prts.sawCTS = true
		} else {
			ev.Missing = MissingRTS
			ev.MissingAddr = f.RA
			d.prts = refPendingRTS{valid: true, ta: f.RA, end: rec.Time + phy.Airtime(rec.OrigLen, rec.Rate), sawCTS: true}
		}
		d.pend.valid = false

	case *dot11.Beacon:
		ev.Kind = KindBeacon
		ev.CBT = CBTBeacon()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		d.pend.valid = false
		d.prts.valid = false

	case *dot11.Management:
		ev.Kind = KindMgmt
		ev.CBT = CBTData(rec.OrigLen, rec.Rate)
		ev.GoodputBits = int64(rec.OrigLen) * 8
		d.pend.valid = false
		d.prts.valid = false
	}

	d.dispatch(ev)
}

func (d *refDecoder) dispatch(ev *FrameEvent) {
	for _, m := range d.metrics {
		m.OnFrame(ev)
	}
}

type refAPsMetric struct {
	known   map[dot11.Addr]bool
	frames  map[dot11.Addr]int64
	unrec   map[dot11.Addr]int64
	windows map[int64]map[dot11.Addr]bool
}

func (m *refAPsMetric) OnFrame(ev *FrameEvent) {
	if ev.Kind == KindInvalid {
		return
	}
	if m.known == nil {
		m.known = make(map[dot11.Addr]bool)
		m.frames = make(map[dot11.Addr]int64)
		m.unrec = make(map[dot11.Addr]int64)
		m.windows = make(map[int64]map[dot11.Addr]bool)
	}
	switch f := ev.Parsed.Frame.(type) {
	case *dot11.Beacon:
		m.known[f.SA] = true
	case *dot11.Data:
		if f.FC.FromDS && !f.FC.ToDS {
			m.known[f.Addr2] = true
		}
	}
	if ta, ok := dot11.TransmitterOf(ev.Parsed.Frame); ok {
		m.frames[ta]++
	}
	if ra := dot11.ReceiverOf(ev.Parsed.Frame); !ra.IsGroup() {
		m.frames[ra]++
	}
	if ev.Missing != MissingNone {
		m.unrec[ev.MissingAddr]++
	}
	if d, ok := ev.Parsed.Frame.(*dot11.Data); ok {
		w := int64(ev.Rec.Time / phy.MicrosPerSecond / UserWindowSeconds)
		m.addUser(w, d.Addr2)
		m.addUser(w, d.Addr1)
	}
}

func (m *refAPsMetric) addUser(w int64, a dot11.Addr) {
	if a.IsGroup() {
		return
	}
	set, ok := m.windows[w]
	if !ok {
		set = make(map[dot11.Addr]bool)
		m.windows[w] = set
	}
	set[a] = true
}

func (m *refAPsMetric) OnSecond(sec int64) {}

func (m *refAPsMetric) Finalize(r *Result) {
	if m.known == nil {
		return
	}
	r.APs.merge(m.known, m.frames, m.unrec)
	r.mergeUserWindows(m.windows)
}

// builtinStages names the nine paper stages, so the reference and the
// fast path run the same set whatever else a test registers.
var builtinStages = []string{"util", "throughput", "rtscts", "rates", "categories", "firstack", "delay", "aps", "unrecorded"}

// refAnalyze feeds recs, in the order given, through one refDecoder per
// channel running the built-in stages with aps swapped for refAPsMetric,
// and merges the shards as Analyzer.Result does.
func refAnalyze(recs []capture.Record) *Result {
	defs, err := lookup(builtinStages)
	if err != nil {
		panic(err)
	}
	shards := make(map[phy.Channel]*refDecoder)
	for _, r := range recs {
		s, ok := shards[r.Channel]
		if !ok {
			s = &refDecoder{firstSeen: make(map[uint64]phy.Micros)}
			for _, d := range defs {
				if d.name == "aps" {
					s.metrics = append(s.metrics, &refAPsMetric{})
				} else {
					s.metrics = append(s.metrics, d.factory())
				}
			}
			shards[r.Channel] = s
		}
		s.feed(r)
	}
	channels := make([]phy.Channel, 0, len(shards))
	for ch := range shards {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i] < channels[j] })
	res := newResult()
	for _, ch := range channels {
		s := shards[ch]
		if s.started {
			for _, m := range s.metrics {
				m.OnSecond(s.second)
			}
		}
		res.TotalFrames += s.totalFrames
		res.ParseErrors += s.parseErrors
		for _, m := range s.metrics {
			m.Finalize(res)
		}
	}
	res.finish()
	return res
}
