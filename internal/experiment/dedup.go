package experiment

import (
	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// The materialized path lets several sniffers share a channel:
// capture.Merge collapses duplicate observations of one transmission
// (equal start time, channel, rate, and frame bytes) and keeps the
// first copy in its stable sort order — the lowest-registered
// sniffer's. The streaming pipelines do the same inside Reorder, which
// compares each release with the records released at its start time.
// Dedup is an independent way to the same answer, kept as the
// reference: it runs ahead of Reorder, hashes and copies every frame
// in arrival order, and remembers what it has seen for one horizon.
// The tests hold Reorder to it and to Merge, and perfbench's traced
// pipeline times it as its own stage. No shipped pipeline builds one.
//
// Records arrive in observation (transmission-end) order, and all
// copies of one transmission share its start time, so an entry can be
// forgotten once the stream's end-time watermark has passed its start
// by more than the maximum airtime: every future arrival starts at or
// after watermark-maxAirtime. That is the dedup window — the same
// horizon Reorder uses — and it bounds the table at the number of
// frames that can end within one maxAirtime, independent of trace
// length.
//
// Boundary contract (pinned by TestDedupHorizonBoundary): an entry
// whose start time is exactly watermark-maxAirtime is evicted, which
// is safe because a well-formed (end-ordered, horizon-bounded) stream
// cannot deliver a duplicate that late unless the frame's airtime is
// exactly maxAirtime. A duplicate that nevertheless arrives after its
// entry was evicted — a source violating the ordering contract, or a
// pathological maximum-airtime frame — is forwarded, not dropped:
// late duplicates are counted (double-counted downstream) rather than
// risking the loss of a genuinely new observation. This mirrors the
// materialized path's behavior only within the horizon; beyond it
// Dedup degrades to over-counting, never to dropping. Reorder has no
// such edge: a maximum-airtime frame's twin still meets it among the
// records released at its start time, and is dropped as Merge drops
// it.

// dedupEntry is one remembered observation, keyed exactly as
// capture.SameAir compares records: start time, channel,
// rate, and (captured) frame bytes — OrigLen deliberately excluded so
// the streaming and materialized criteria cannot diverge. buf holds a
// private copy of the frame bytes (the incoming record's alias dies
// with the Add call) and returns to a pool on eviction.
type dedupEntry struct {
	time    phy.Micros
	channel phy.Channel
	rate    phy.Rate
	hash    uint64
	buf     []byte
}

// Dedup is the streaming same-air deduplication stage. Records pass
// through in arrival order; duplicates (as capture.SameAir
// defines them) are dropped, keeping the first arrival — taps fire in
// sniffer registration order, so that is the same copy Merge keeps.
// Not safe for concurrent use; each run gets its own Dedup.
type Dedup struct {
	sink      Sink
	window    []dedupEntry
	head      int // live entries are window[head:]
	free      [][]byte
	watermark phy.Micros
	// maxPending is the table's high-water mark, exposed for the
	// bounded-memory test.
	maxPending int
	// Dropped counts collapsed duplicates.
	Dropped int64
}

// NewDedup creates a dedup stage feeding sink. Records are forwarded
// synchronously during Add, still aliasing the caller's buffers.
func NewDedup(sink Sink) *Dedup { return &Dedup{sink: sink} }

// fnv1a hashes frame bytes for the cheap first-pass comparison.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Add accepts the next record of an observation-ordered stream,
// forwarding it unless it duplicates a remembered observation.
func (d *Dedup) Add(rec capture.Record) {
	hash := fnv1a(rec.Frame)
	for i := d.head; i < len(d.window); i++ {
		e := &d.window[i]
		if e.time != rec.Time || e.channel != rec.Channel || e.rate != rec.Rate ||
			e.hash != hash || len(e.buf) != len(rec.Frame) {
			continue
		}
		same := true
		for j := range e.buf {
			if e.buf[j] != rec.Frame[j] {
				same = false
				break
			}
		}
		if same {
			d.Dropped++
			return
		}
	}

	// Remember this observation: copy the frame into a pooled buffer.
	var buf []byte
	if n := len(d.free); n > 0 {
		buf = d.free[n-1][:0]
		d.free = d.free[:n-1]
	}
	buf = append(buf, rec.Frame...)
	d.window = append(d.window, dedupEntry{
		time: rec.Time, channel: rec.Channel, rate: rec.Rate,
		hash: hash, buf: buf,
	})
	if live := len(d.window) - d.head; live > d.maxPending {
		d.maxPending = live
	}

	if end := rec.Time + phy.Airtime(rec.OrigLen, rec.Rate); end > d.watermark {
		d.watermark = end
	}
	// Evict entries no future arrival can duplicate. Entries are in
	// arrival (end-time) order, so once the head survives, later
	// entries may too — but their ends are no earlier, so the prefix
	// scan still evicts everything evictable within one maxAirtime.
	for d.head < len(d.window) && d.window[d.head].time <= d.watermark-maxAirtime {
		d.free = append(d.free, d.window[d.head].buf)
		d.window[d.head] = dedupEntry{}
		d.head++
	}
	if d.head > 0 && d.head*2 >= len(d.window) && d.head >= 32 {
		k := copy(d.window, d.window[d.head:])
		clear(d.window[k:])
		d.window = d.window[:k]
		d.head = 0
	}

	d.sink(rec)
}

// MaxPending reports the deepest the dedup table ever got.
func (d *Dedup) MaxPending() int { return d.maxPending }
