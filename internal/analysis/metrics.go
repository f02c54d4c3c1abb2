package analysis

import (
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
	"wlan80211/internal/stats"
)

// The built-in stages, one per paper figure group, registered in
// figure order. Each is an independent accumulator over the shared
// decoder's events; disabling one simply leaves its Result fields
// zero-valued.
func init() {
	Register("util", "per-second CBT, utilization series and histogram (Figures 5a-c)",
		func() Metric { return &utilMetric{} })
	Register("throughput", "throughput and goodput vs utilization (Figure 6)",
		func() Metric { return &throughputMetric{} })
	Register("rtscts", "RTS and CTS frames per second vs utilization (Figure 7)",
		func() Metric { return &rtsctsMetric{} })
	Register("rates", "per-rate busy time and bytes vs utilization (Figures 8-9)",
		func() Metric { return &ratesMetric{} })
	Register("categories", "transmissions per 16 size x rate category (Figures 10-13)",
		func() Metric { return &categoriesMetric{} })
	Register("firstack", "first-attempt acknowledgments per rate (Figure 14)",
		func() Metric { return &firstAckMetric{} })
	Register("delay", "acceptance delay per category (Figure 15)",
		func() Metric { return &delayMetric{} })
	Register("aps", "per-AP traffic attribution and user counts (Figure 4)",
		func() Metric { return &apsMetric{} })
	Register("unrecorded", "unrecorded-frame estimators from DCF atomicity (Sec 4.4)",
		func() Metric { return &unrecordedMetric{} })
}

// utilMetric builds the gap-free per-second SecondStat series and the
// utilization histogram (Figures 5a/5b/5c).
type utilMetric struct {
	haveCh   bool
	cur      SecondStat
	tputBits int64
	gputBits int64
	series   []SecondStat
	hist     *stats.Histogram
}

func (m *utilMetric) OnFrame(ev *FrameEvent) {
	if !m.haveCh {
		m.haveCh = true
		m.cur.Channel = ev.Rec.Channel
	}
	m.cur.CBT += ev.CBT
	switch ev.Kind {
	case KindInvalid:
		return
	case KindData:
		m.cur.Data++
	case KindACK:
		m.cur.ACK++
	case KindRTS:
		m.cur.RTS++
	case KindCTS:
		m.cur.CTS++
	case KindBeacon:
		m.cur.Beacon++
	}
	m.tputBits += int64(ev.Rec.OrigLen) * 8
	m.gputBits += ev.GoodputBits
}

func (m *utilMetric) OnSecond(sec int64) {
	s := m.cur
	s.Second = sec
	s.Utilization = UtilizationPercent(s.CBT)
	s.ThroughputMbps = float64(m.tputBits) / 1e6
	s.GoodputMbps = float64(m.gputBits) / 1e6
	m.series = append(m.series, s)
	if m.hist == nil {
		m.hist = stats.NewHistogram(101)
	}
	m.hist.Add(s.Utilization)
	ch := m.cur.Channel
	m.cur = SecondStat{Channel: ch}
	m.tputBits, m.gputBits = 0, 0
}

func (m *utilMetric) Finalize(r *Result) {
	if len(m.series) > 0 {
		r.PerChannel[m.series[0].Channel] = m.series
	}
	if m.hist != nil {
		r.UtilHist.Merge(m.hist)
	}
}

// throughputMetric aggregates per-second throughput and goodput by
// utilization (Figure 6).
type throughputMetric struct {
	secondUtil
	tputBits int64
	gputBits int64
	tput     stats.ByUtilization
	gput     stats.ByUtilization
}

func (m *throughputMetric) OnFrame(ev *FrameEvent) {
	m.observe(ev)
	if ev.Kind == KindInvalid {
		return
	}
	m.tputBits += int64(ev.Rec.OrigLen) * 8
	m.gputBits += ev.GoodputBits
}

func (m *throughputMetric) OnSecond(sec int64) {
	u := m.flush()
	m.tput.Add(u, float64(m.tputBits)/1e6)
	m.gput.Add(u, float64(m.gputBits)/1e6)
	m.tputBits, m.gputBits = 0, 0
}

func (m *throughputMetric) Finalize(r *Result) {
	r.Throughput.Merge(&m.tput)
	r.Goodput.Merge(&m.gput)
}

// rtsctsMetric counts RTS and CTS frames per second by utilization
// (Figure 7).
type rtsctsMetric struct {
	secondUtil
	rts, cts     int
	rtsBy, ctsBy stats.ByUtilization
}

func (m *rtsctsMetric) OnFrame(ev *FrameEvent) {
	m.observe(ev)
	switch ev.Kind {
	case KindRTS:
		m.rts++
	case KindCTS:
		m.cts++
	}
}

func (m *rtsctsMetric) OnSecond(sec int64) {
	u := m.flush()
	m.rtsBy.Add(u, float64(m.rts))
	m.ctsBy.Add(u, float64(m.cts))
	m.rts, m.cts = 0, 0
}

func (m *rtsctsMetric) Finalize(r *Result) {
	r.RTSPerSec.Merge(&m.rtsBy)
	r.CTSPerSec.Merge(&m.ctsBy)
}

// ratesMetric attributes busy time and bytes to each transmission rate
// (Figures 8 and 9).
type ratesMetric struct {
	secondUtil
	cbtPerRate   [4]int64
	bytesPerRate [4]int64
	cbtBy        [4]stats.ByUtilization
	bytesBy      [4]stats.ByUtilization
}

func (m *ratesMetric) OnFrame(ev *FrameEvent) {
	m.observe(ev)
	if ev.Kind == KindInvalid {
		return
	}
	m.cbtPerRate[ev.RateIdx] += int64(ev.CBT)
	m.bytesPerRate[ev.RateIdx] += int64(ev.Rec.OrigLen)
}

func (m *ratesMetric) OnSecond(sec int64) {
	u := m.flush()
	for i := 0; i < 4; i++ {
		m.cbtBy[i].Add(u, float64(m.cbtPerRate[i])/1e6)
		m.bytesBy[i].Add(u, float64(m.bytesPerRate[i]))
		m.cbtPerRate[i], m.bytesPerRate[i] = 0, 0
	}
}

func (m *ratesMetric) Finalize(r *Result) {
	for i := 0; i < 4; i++ {
		r.BusyTimePerRate[i].Merge(&m.cbtBy[i])
		r.BytesPerRate[i].Merge(&m.bytesBy[i])
	}
}

// categoriesMetric counts data transmissions per size x rate category
// (Figures 10-13).
type categoriesMetric struct {
	secondUtil
	tx   [16]int
	txBy [16]stats.ByUtilization
}

func (m *categoriesMetric) OnFrame(ev *FrameEvent) {
	m.observe(ev)
	if ev.Kind == KindData && ev.CatOK {
		m.tx[ev.CatIndex]++
	}
}

func (m *categoriesMetric) OnSecond(sec int64) {
	u := m.flush()
	for i := 0; i < 16; i++ {
		m.txBy[i].Add(u, float64(m.tx[i]))
		m.tx[i] = 0
	}
}

func (m *categoriesMetric) Finalize(r *Result) {
	for i := 0; i < 16; i++ {
		r.TxPerCategory[i].Merge(&m.txBy[i])
	}
}

// firstAckMetric counts data frames acknowledged at the first attempt,
// per rate (Figure 14).
type firstAckMetric struct {
	secondUtil
	acked [4]int
	by    [4]stats.ByUtilization
}

func (m *firstAckMetric) OnFrame(ev *FrameEvent) {
	m.observe(ev)
	if ev.Acked && !ev.AckedRetry {
		m.acked[ev.AckedRateIdx]++
	}
}

func (m *firstAckMetric) OnSecond(sec int64) {
	u := m.flush()
	for i := 0; i < 4; i++ {
		m.by[i].Add(u, float64(m.acked[i]))
		m.acked[i] = 0
	}
}

func (m *firstAckMetric) Finalize(r *Result) {
	for i := 0; i < 4; i++ {
		r.FirstAckPerRate[i].Merge(&m.by[i])
	}
}

// delaySample is one measured acceptance delay awaiting its second's
// utilization.
type delaySample struct {
	cat   int
	delay float64 // seconds
}

// delayMetric measures MSDU acceptance delay per category (Figure 15).
type delayMetric struct {
	secondUtil
	pending []delaySample
	by      [16]stats.ByUtilization
}

func (m *delayMetric) OnFrame(ev *FrameEvent) {
	m.observe(ev)
	if ev.AckedDelayOK {
		m.pending = append(m.pending, delaySample{cat: ev.AckedCat, delay: ev.AckedDelay})
	}
}

func (m *delayMetric) OnSecond(sec int64) {
	u := m.flush()
	for _, d := range m.pending {
		m.by[d.cat].Add(u, d.delay)
	}
	m.pending = m.pending[:0]
}

func (m *delayMetric) Finalize(r *Result) {
	for i := 0; i < 16; i++ {
		r.AcceptDelay[i].Merge(&m.by[i])
	}
}

// apsMetric discovers APs, attributes traffic and unrecorded frames to
// them, and collects the per-window client addresses behind the user
// count (Figure 4). Discovery and counting happen in the same pass:
// frames are counted for every address and the report filters to the
// final AP set, which is only complete once all shards merge. State is
// kept by the decoder's AddrIDs; Finalize turns it into the
// address-keyed sets the Result merges. Slot 0 of each slice takes the
// counts of "no address" and is never reported.
type apsMetric struct {
	ids    *addrTable // the shard's address table; nil until a frame parses
	ap     []bool     // by ID: a beacon transmitter or FromDS BSSID
	frames []int64    // by ID: frames sent, or received as unicast
	unrec  []int64    // by ID: unrecorded frames attributed (Sec 4.4)

	// wins lists the 30 s user windows in first-seen order, each with
	// the IDs counted in it; lastWin[id] is 1 + the index in wins of
	// the window id was last counted in, so a repeat costs one compare.
	// A record out of time order can count an ID in a window twice;
	// Finalize deduplicates. cur indexes the window last used and
	// winIdx maps a window to its index.
	wins    []userWindow
	lastWin []int32
	cur     int
	winIdx  map[int64]int
}

// userWindow is one Figure 4b window's client IDs.
type userWindow struct {
	w   int64
	ids []AddrID
}

func (m *apsMetric) OnFrame(ev *FrameEvent) {
	if ev.Kind == KindInvalid {
		return
	}
	m.ids = ev.ids
	if n := len(m.ids.addrs); n > len(m.frames) {
		m.grow(n)
	}
	// AP discovery: beacon transmitters and FromDS BSSIDs.
	switch ev.Kind {
	case KindBeacon:
		m.ap[ev.TAID] = true
	case KindData:
		if fc := ev.Parsed.FC; fc.FromDS && !fc.ToDS {
			m.ap[ev.TAID] = true
		}
	}
	// Traffic attribution (transmitter plus unicast receiver).
	m.frames[ev.TAID]++
	if !m.ids.group(ev.RAID) {
		m.frames[ev.RAID]++
	}
	// Unrecorded-frame attribution (Sec 4.4).
	m.unrec[ev.MissingID]++
	// User counting: client addresses of data exchanges per 30 s
	// window (AP addresses are filtered out at finish time, once the
	// AP set is complete).
	if ev.Kind == KindData {
		i := m.window(int64(ev.Rec.Time / phy.MicrosPerSecond / UserWindowSeconds))
		m.addUser(i, ev.TAID)
		m.addUser(i, ev.RAID)
	}
}

// grow extends the per-ID slices to n IDs.
func (m *apsMetric) grow(n int) {
	k := n - len(m.frames)
	m.ap = append(m.ap, make([]bool, k)...)
	m.frames = append(m.frames, make([]int64, k)...)
	m.unrec = append(m.unrec, make([]int64, k)...)
	m.lastWin = append(m.lastWin, make([]int32, k)...)
}

// window returns the index in wins of window w, opening it if new.
// Records arrive in time order, so w is almost always the window last
// used; the map serves window changes and late records.
func (m *apsMetric) window(w int64) int {
	if len(m.wins) > 0 && m.wins[m.cur].w == w {
		return m.cur
	}
	i, ok := m.winIdx[w]
	if !ok {
		if m.winIdx == nil {
			m.winIdx = make(map[int64]int)
		}
		i = len(m.wins)
		m.wins = append(m.wins, userWindow{w: w})
		m.winIdx[w] = i
	}
	m.cur = i
	return i
}

func (m *apsMetric) addUser(i int, id AddrID) {
	if m.lastWin[id] == int32(i+1) || m.ids.group(id) {
		return
	}
	m.lastWin[id] = int32(i + 1)
	m.wins[i].ids = append(m.wins[i].ids, id)
}

func (m *apsMetric) OnSecond(sec int64) {}

func (m *apsMetric) Finalize(r *Result) {
	if m.ids == nil {
		return
	}
	known := make(map[dot11.Addr]bool)
	frames := make(map[dot11.Addr]int64, len(m.frames))
	unrec := make(map[dot11.Addr]int64)
	for id := 1; id < len(m.frames); id++ {
		a := m.ids.addrs[id]
		if m.ap[id] {
			known[a] = true
		}
		if n := m.frames[id]; n > 0 {
			frames[a] = n
		}
		if n := m.unrec[id]; n > 0 {
			unrec[a] = n
		}
	}
	r.APs.merge(known, frames, unrec)
	windows := make(map[int64]map[dot11.Addr]bool, len(m.wins))
	for _, w := range m.wins {
		set := make(map[dot11.Addr]bool, len(w.ids))
		for _, id := range w.ids {
			set[m.ids.addrs[id]] = true
		}
		windows[w.w] = set
	}
	r.mergeUserWindows(windows)
}

// unrecordedMetric totals the atomicity-based unrecorded-frame
// estimators (Sec 4.4, Equation 1).
type unrecordedMetric struct {
	u UnrecordedStats
}

func (m *unrecordedMetric) OnFrame(ev *FrameEvent) {
	m.u.Captured++
	switch ev.Missing {
	case MissingData:
		m.u.MissingData++
	case MissingRTS:
		m.u.MissingRTS++
	case MissingCTS:
		m.u.MissingCTS++
	}
}

func (m *unrecordedMetric) OnSecond(sec int64) {}

func (m *unrecordedMetric) Finalize(r *Result) {
	r.Unrecorded.MissingData += m.u.MissingData
	r.Unrecorded.MissingRTS += m.u.MissingRTS
	r.Unrecorded.MissingCTS += m.u.MissingCTS
	r.Unrecorded.Captured += m.u.Captured
}
