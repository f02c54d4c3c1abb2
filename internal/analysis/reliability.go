package analysis

import (
	"math"
	"sort"

	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// This file implements the beacon-reception reliability metric of the
// authors' companion paper (Jardosh et al., "Understanding Link-Layer
// Behavior in Highly Congested IEEE 802.11b Wireless Networks",
// E-WIND 2005 — reference [10], discussed in Sec 2): access points
// beacon at a fixed interval, so the fraction of expected beacons a
// listener actually receives is a passive probe of link reliability,
// and its dips correlate with congestion. The present paper supersedes
// it with channel utilization; both are provided so the two congestion
// estimates can be compared (see the reliability ablation bench).

// BeaconReliability is the per-AP beacon reception ratio over fixed
// windows.
type BeaconReliability struct {
	// WindowSeconds is the averaging window.
	WindowSeconds int
	// Series maps each AP to its per-window reliability samples,
	// ordered by window.
	Series map[dot11.Addr][]ReliabilityPoint
}

// ReliabilityPoint is one window of one AP's beacon reliability.
type ReliabilityPoint struct {
	// WindowStart is the first second of the window.
	WindowStart int64
	// Received is the number of beacons captured in the window.
	Received int
	// Expected is the number implied by the AP's beacon interval.
	Expected int
}

// Ratio returns received/expected clamped to [0, 1]; a window can
// over-count slightly when beacon timing drifts across its edge.
func (p ReliabilityPoint) Ratio() float64 {
	if p.Expected <= 0 {
		return 0
	}
	r := float64(p.Received) / float64(p.Expected)
	if r > 1 {
		r = 1
	}
	return r
}

// MeasureBeaconReliability scans a trace for beacons and computes the
// per-AP reception ratio over windows of the given length. The beacon
// interval is read from the beacons themselves (Sec 5.1 assumes the
// standard ~100 ms interval; APs advertise theirs in time units).
func MeasureBeaconReliability(recs []capture.Record, windowSeconds int) *BeaconReliability {
	c := NewBeaconCounter(windowSeconds)
	for i := range recs {
		c.Add(&recs[i])
	}
	return c.Result()
}

// BeaconCounter computes beacon reliability one record at a time, in
// memory proportional to the APs and windows seen rather than to the
// trace: MeasureBeaconReliability is a BeaconCounter fed a whole
// trace. Feed it the records in trace order; an AP's advertised
// interval is the last one seen.
type BeaconCounter struct {
	windowSeconds int
	aps           map[dot11.Addr]*beaconState
	parser        dot11.Parser
}

type beaconState struct {
	counts   map[int64]int
	interval phy.Micros // advertised beacon interval
	first    int64      // first window seen
	last     int64      // last window seen
}

// NewBeaconCounter starts a count over windows of the given length
// (UserWindowSeconds when it is not positive).
func NewBeaconCounter(windowSeconds int) *BeaconCounter {
	if windowSeconds <= 0 {
		windowSeconds = UserWindowSeconds
	}
	return &BeaconCounter{windowSeconds: windowSeconds, aps: make(map[dot11.Addr]*beaconState)}
}

// Add counts rec if it is a beacon. It reads rec only during the
// call.
func (c *BeaconCounter) Add(rec *capture.Record) {
	p, err := c.parser.Parse(rec.Frame)
	if err != nil {
		return
	}
	b, ok := p.Frame.(*dot11.Beacon)
	if !ok {
		return
	}
	w := int64(rec.Time / phy.MicrosPerSecond / phy.Micros(c.windowSeconds))
	st := c.aps[b.SA]
	if st == nil {
		st = &beaconState{counts: make(map[int64]int), first: w, last: w}
		c.aps[b.SA] = st
	}
	st.counts[w]++
	if iv := phy.Micros(b.BeaconInterval) * 1024; iv > 0 {
		st.interval = iv
	}
	st.first = min(st.first, w)
	st.last = max(st.last, w)
}

// Result returns the reliability series of every AP counted so far.
func (c *BeaconCounter) Result() *BeaconReliability {
	out := &BeaconReliability{
		WindowSeconds: c.windowSeconds,
		Series:        make(map[dot11.Addr][]ReliabilityPoint, len(c.aps)),
	}
	for addr, st := range c.aps {
		interval := st.interval
		if interval <= 0 {
			interval = phy.Micros(dot11.BeaconIntervalTU) * 1024
		}
		expected := int(phy.Micros(c.windowSeconds) * phy.MicrosPerSecond / interval)
		if expected < 1 {
			expected = 1
		}
		var series []ReliabilityPoint
		for w := st.first; w <= st.last; w++ {
			series = append(series, ReliabilityPoint{
				WindowStart: w * int64(c.windowSeconds),
				Received:    st.counts[w],
				Expected:    expected,
			})
		}
		out.Series[addr] = series
	}
	return out
}

// MeanRatio returns the mean reliability over every AP and window.
func (r *BeaconReliability) MeanRatio() float64 {
	var sum float64
	var n int
	for _, series := range r.Series {
		for _, p := range series {
			sum += p.Ratio()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// APs returns the AP addresses with reliability series, sorted for
// deterministic iteration.
func (r *BeaconReliability) APs() []dot11.Addr {
	out := make([]dot11.Addr, 0, len(r.Series))
	for a := range r.Series {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// CorrelateWithUtilization pairs each reliability window with the mean
// utilization of the same window (over all channels in the result) and
// returns the Pearson correlation coefficient. The E-WIND paper's
// thesis predicts a negative correlation: reliability falls as the
// channel saturates. Returns 0 if there are fewer than 3 windows or no
// variance.
func (r *BeaconReliability) CorrelateWithUtilization(res *Result) float64 {
	// Mean utilization per window across channels.
	utilByWindow := make(map[int64][]float64)
	for _, secs := range res.PerChannel {
		for _, s := range secs {
			w := s.Second / int64(r.WindowSeconds)
			utilByWindow[w] = append(utilByWindow[w], float64(s.Utilization))
		}
	}
	var xs, ys []float64
	for _, series := range r.Series {
		for _, p := range series {
			w := p.WindowStart / int64(r.WindowSeconds)
			us, ok := utilByWindow[w]
			if !ok {
				continue
			}
			sum := 0.0
			for _, u := range us {
				sum += u
			}
			xs = append(xs, sum/float64(len(us)))
			ys = append(ys, p.Ratio())
		}
	}
	return pearson(xs, ys)
}

// pearson computes the correlation coefficient of two equal-length
// samples (0 when undefined).
func pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n < 3 || n != len(ys) {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
