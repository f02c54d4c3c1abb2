package experiment

import (
	"fmt"
	"math"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// The simulator's taps observe a transmission when it *completes*, so
// a streamed run delivers records in non-decreasing end-time order
// while capture timestamps are start times: when transmissions
// overlap (collisions), a short frame that started later can be
// delivered before a long frame that started earlier. The
// materialized path hides this behind capture.Merge's timestamp sort.
// Reorder restores start-time order on the fly with a bounded buffer:
// because end times never decrease and no frame stays on the air
// longer than maxAirtime, any buffered record whose start precedes
// the newest end by more than maxAirtime can never be preceded by a
// future arrival and is safe to release.

// MaxReorderWire bounds the wire length a reordered stream can carry:
// comfortably above both the 802.11 MPDU ceiling (2346 bytes) and the
// largest frame the traffic profiles generate (~1540 bytes). Ingest
// layers validate against it before feeding the streaming stages,
// because Add fails loudly on anything larger.
const MaxReorderWire = 4096

// MaxReorderPending caps the records a Reorder holds. The horizon
// rule alone bounds the depth only for a stream whose starts keep
// pace with its ends; a source that stamps a flood of records with one
// start time would be held whole until Flush. At the cap the earliest
// pending record is released early — fed, or dropped as a duplicate,
// never lost. Real streams stay two orders of magnitude below it
// (peak depth 149 on perfbench day, 86 on grid256), and with the
// release group the ring never outgrows 1<<13 slots.
const MaxReorderPending = 1<<13 - maxGroup

// maxAirtime is the longest any single frame can occupy the air: a
// MaxReorderWire-byte frame at 1 Mbps with the long preamble (~33 ms).
// It is the reordering horizon — and therefore the peak buffer depth,
// independent of trace length.
var maxAirtime = phy.Airtime(MaxReorderWire, phy.Rate1Mbps)

// ReorderHorizon returns the streaming stages' shared time horizon:
// records are held (Reorder) or remembered (Dedup) only this long
// behind the stream's end-time watermark.
func ReorderHorizon() phy.Micros { return maxAirtime }

// InReorderRange reports whether a record starting at start with
// airtime air has an end time the window can compute: the start is
// not negative and start+air does not overflow. Ingest layers reject
// records that fail it, as they reject airtimes beyond the horizon.
func InReorderRange(start, air phy.Micros) bool {
	return start >= 0 && start <= math.MaxInt64-air
}

// Reorder is the streaming bridge's sorting and same-air dedup stage:
// records added in observation (end-time) order are released to the
// sink in start-time order, ties broken by sniffer ID then arrival —
// exactly the order capture.Merge's stable timestamp sort produces
// for the same records (Merge sorts the concatenation of per-sniffer
// traces, so its tie order is sniffer registration order, then
// within-trace capture order). Like Merge, it drops a record that is
// capture.SameAir with one released before it at the same start time:
// several sniffers on one channel each capture a transmission, and
// the copy kept is the first in that order. Not safe for concurrent
// use; each run gets its own Reorder.
//
// The pending records sit in a ring sorted by (start, sniffer,
// arrival), so the next release is always at the head. An arrival is
// placed by scanning back from the tail: an end-ordered stream is
// almost start-ordered too, so nearly every record lands at or within
// a few slots of the tail, and only the records after it move. Every
// copy of one transmission shares its start time, so a release is
// compared only with the last maxGroup records released since the
// start time last changed; they stay in their slots just behind the
// head.
type Reorder struct {
	sink Sink
	// ring[(head+i)&(len(ring)-1)] for i < n are the pending records
	// in release order, and for -group <= i < 0 the last records
	// released at the current start time; len(ring) is a power of
	// two. A slot keeps its frame buffer after its record leaves the
	// group, for the next record that lands in it.
	ring           []capture.Record
	head, n, group int
	// watermark is the newest observation end time seen.
	watermark phy.Micros
	// maxPending is the high-water mark of the pending records,
	// exposed for the bounded-memory test.
	maxPending int
	// Dropped counts the same-air duplicates not released.
	Dropped int64
}

// NewReorder creates a reordering stage feeding sink. Records the
// sink receives alias pooled buffers valid only during the call.
func NewReorder(sink Sink) *Reorder {
	return &Reorder{sink: sink}
}

// Add accepts the next record of an observation-ordered stream and
// releases every buffered record that can no longer be preceded.
func (r *Reorder) Add(rec capture.Record) {
	air := phy.Airtime(rec.OrigLen, rec.Rate)
	if air > maxAirtime {
		// Impossible for the simulator's traffic (see MaxReorderWire);
		// fail loudly rather than silently mis-sort.
		panic(fmt.Sprintf("experiment: frame airtime %dµs exceeds reorder horizon %dµs", air, maxAirtime))
	}
	if r.n == MaxReorderPending {
		r.release()
	}
	if r.n+r.group >= len(r.ring) {
		r.grow()
	}
	mask := len(r.ring) - 1

	// rec goes after every pending record that sorts at or before it;
	// it arrived last, so it also follows its ties.
	at := r.n
	for at > 0 {
		p := &r.ring[(r.head+at-1)&mask]
		if p.Time < rec.Time || p.Time == rec.Time && p.SnifferID <= rec.SnifferID {
			break
		}
		at--
	}
	// Move the records after it up one slot. The free slot at the tail
	// lends its buffer to rec, whose incoming bytes alias a producer
	// buffer that dies when this call returns.
	buf := r.ring[(r.head+r.n)&mask].Frame[:0]
	for i := r.n; i > at; i-- {
		r.ring[(r.head+i)&mask] = r.ring[(r.head+i-1)&mask]
	}
	slot := &r.ring[(r.head+at)&mask]
	*slot = rec
	slot.Frame = append(buf, rec.Frame...)
	r.n++
	if r.n > r.maxPending {
		r.maxPending = r.n
	}

	if end := rec.Time + air; end > r.watermark {
		r.watermark = end
	}
	// Every future arrival starts at or after watermark-maxAirtime.
	for r.n > 0 && r.ring[r.head].Time <= r.watermark-maxAirtime {
		r.release()
	}
}

// Flush releases everything still buffered; call once the run ends.
func (r *Reorder) Flush() {
	for r.n > 0 {
		r.release()
	}
}

// MaxPending reports the deepest the buffer ever got.
func (r *Reorder) MaxPending() int { return r.maxPending }

// maxGroup bounds the records a release is compared with. A sniffer
// hears one channel, so it captures at most a few transmissions that
// start in the same microsecond, and the copies of one transmission
// sit at most a few records per sniffer apart. The bound keeps a
// source that stamps a flood of distinct records with one start time
// from costing a comparison per pair of them; a copy further back
// than the bound is released, counted twice rather than lost.
const maxGroup = 64

// release hands the head record to the sink unless it is a same-air
// duplicate of one in the group, and moves it into the group; when
// the start time changes, the old group's slots become free.
func (r *Reorder) release() {
	mask := len(r.ring) - 1
	rec := &r.ring[r.head]
	if r.group > 0 && r.ring[(r.head-1)&mask].Time != rec.Time {
		r.group = 0
	}
	dup := false
	for i := 1; i <= r.group && !dup; i++ {
		dup = capture.SameAir(&r.ring[(r.head-i)&mask], rec)
	}
	if dup {
		r.Dropped++
	} else {
		r.sink(*rec)
	}
	r.head = (r.head + 1) & mask
	r.n--
	r.group = min(r.group+1, maxGroup)
}

// grow doubles the ring, unwrapping the group and the pending records
// to the front of the new one.
func (r *Reorder) grow() {
	ring := make([]capture.Record, max(2*len(r.ring), 64))
	from := r.head - r.group
	for i := range r.group + r.n {
		ring[i] = r.ring[(from+i)&(len(r.ring)-1)]
	}
	r.ring, r.head = ring, r.group
}
