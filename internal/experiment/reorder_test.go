package experiment

import (
	"bytes"
	"math/rand"
	"testing"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// heapReorder is Reorder as a binary min-heap on (start, sniffer ID,
// arrival): the reference the sorted ring must release identically.
type heapReorder struct {
	sink       Sink
	heap       []heapRec
	seq        uint64
	watermark  phy.Micros
	maxPending int
}

type heapRec struct {
	rec capture.Record
	seq uint64
}

func (r *heapReorder) Add(rec capture.Record) {
	air := phy.Airtime(rec.OrigLen, rec.Rate)
	if air > maxAirtime {
		panic("heapReorder: airtime exceeds the horizon")
	}
	rec.Frame = append([]byte(nil), rec.Frame...)
	r.push(heapRec{rec: rec, seq: r.seq})
	r.seq++
	r.maxPending = max(r.maxPending, len(r.heap))
	if end := rec.Time + air; end > r.watermark {
		r.watermark = end
	}
	for len(r.heap) > 0 && r.heap[0].rec.Time <= r.watermark-maxAirtime {
		r.sink(r.pop().rec)
	}
}

func (r *heapReorder) Flush() {
	for len(r.heap) > 0 {
		r.sink(r.pop().rec)
	}
}

func (r *heapReorder) less(a, b heapRec) bool {
	if a.rec.Time != b.rec.Time {
		return a.rec.Time < b.rec.Time
	}
	if a.rec.SnifferID != b.rec.SnifferID {
		return a.rec.SnifferID < b.rec.SnifferID
	}
	return a.seq < b.seq
}

func (r *heapReorder) push(p heapRec) {
	r.heap = append(r.heap, p)
	for i := len(r.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !r.less(r.heap[i], r.heap[parent]) {
			break
		}
		r.heap[i], r.heap[parent] = r.heap[parent], r.heap[i]
		i = parent
	}
}

func (r *heapReorder) pop() heapRec {
	top := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	for i := 0; ; {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < len(r.heap) && r.less(r.heap[l], r.heap[smallest]) {
			smallest = l
		}
		if rt < len(r.heap) && r.less(r.heap[rt], r.heap[smallest]) {
			smallest = rt
		}
		if smallest == i {
			return top
		}
		r.heap[i], r.heap[smallest] = r.heap[smallest], r.heap[i]
		i = smallest
	}
}

// mergeDedup is capture.Merge's duplicate rule applied to a
// start-ordered stream: a record SameAir with one kept since the
// start time last changed is dropped. Records must stay valid after
// the call (heapReorder's are private copies).
type mergeDedup struct {
	sink    Sink
	kept    []capture.Record
	dropped int64
}

func (d *mergeDedup) Add(rec capture.Record) {
	if len(d.kept) > 0 && d.kept[0].Time != rec.Time {
		d.kept = d.kept[:0]
	}
	for i := range d.kept {
		if capture.SameAir(&d.kept[i], &rec) {
			d.dropped++
			return
		}
	}
	d.kept = append(d.kept, rec)
	d.sink(rec)
}

// released is one record as a sink saw it, with the number of Adds
// made before it was released.
type released struct {
	rec   capture.Record
	after int
}

// TestReorderMatchesHeap: on random bounded-disorder streams — k
// sniffers' copies of overlapping transmissions in end order, copies
// of one transmission (equal start times) arriving in random sniffer
// order, and a few adjacent arrivals swapped — the sorted ring
// releases exactly what the heap followed by Merge's equal-start
// dedup releases, at the same Add, drops as many duplicates, and
// peaks at the same depth.
func TestReorderMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(4)
		var stream []capture.Record
		for _, tx := range genObservations(rng, 50+rng.Intn(400), k) {
			caps := append([]int(nil), tx.captured...)
			rng.Shuffle(len(caps), func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })
			for _, s := range caps {
				stream = append(stream, snifferCopy(tx, s))
			}
		}
		for i := 1; i < len(stream); i++ {
			if rng.Intn(20) == 0 {
				stream[i], stream[i-1] = stream[i-1], stream[i]
			}
		}

		adds := 0
		var got, want []released
		ring := NewReorder(func(rec capture.Record) {
			rec.Frame = append([]byte(nil), rec.Frame...)
			got = append(got, released{rec, adds})
		})
		dedup := &mergeDedup{sink: func(rec capture.Record) { want = append(want, released{rec, adds}) }}
		ref := &heapReorder{sink: dedup.Add}
		for _, rec := range stream {
			adds++
			ring.Add(rec)
			ref.Add(rec)
		}
		adds++
		ring.Flush()
		ref.Flush()

		if len(got) != len(want) {
			t.Fatalf("iter %d: ring released %d records, heap %d", iter, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.after != w.after || g.rec.Time != w.rec.Time || g.rec.SnifferID != w.rec.SnifferID ||
				g.rec.SignalDBm != w.rec.SignalDBm || !bytes.Equal(g.rec.Frame, w.rec.Frame) {
				t.Fatalf("iter %d: release %d is (t=%d sniffer=%d after %d adds), heap's (t=%d sniffer=%d after %d adds)",
					iter, i, g.rec.Time, g.rec.SnifferID, g.after, w.rec.Time, w.rec.SnifferID, w.after)
			}
		}
		if ring.Dropped != dedup.dropped {
			t.Fatalf("iter %d: ring dropped %d duplicates, reference %d", iter, ring.Dropped, dedup.dropped)
		}
		if ring.MaxPending() != ref.maxPending {
			t.Fatalf("iter %d: ring peaked at %d pending, heap at %d", iter, ring.MaxPending(), ref.maxPending)
		}
	}
}

// TestReorderGroupBound: a release is compared with at most maxGroup
// records of its start time. A copy within the bound is dropped; one
// further back is released, never mistaken for new air it is not.
func TestReorderGroupBound(t *testing.T) {
	released := 0
	ro := NewReorder(func(capture.Record) { released++ })
	recs := make([]capture.Record, maxGroup+1)
	for i := range recs {
		// Maximum airtime: each releases on its own Add.
		recs[i] = boundaryRec(1000, MaxReorderWire, phy.Rate1Mbps, byte(i))
		ro.Add(recs[i])
	}
	last, first := recs[maxGroup], recs[0]
	last.SnifferID, first.SnifferID = 2, 2
	ro.Add(last)
	if ro.Dropped != 1 {
		t.Fatalf("copy of the newest record: %d dropped, want 1", ro.Dropped)
	}
	ro.Add(first)
	ro.Flush()
	if ro.Dropped != 1 || released != maxGroup+2 {
		t.Fatalf("copy %d records back: %d released, %d dropped; want %d and 1", maxGroup+1, released, ro.Dropped, maxGroup+2)
	}
}

// TestReorderAddAllocatesNothing: once the ring has grown to the
// stream's depth and every slot holds a frame buffer, Add allocates
// nothing, duplicates included.
func TestReorderAddAllocatesNothing(t *testing.T) {
	frame := make([]byte, 200)
	var tm phy.Micros
	// Two overlapping transmissions per step, delivered in end order:
	// the short later-starting one first, so every other Add lands
	// one slot before the tail. A second sniffer's copy of the long
	// one follows it and is dropped at release.
	step := func(ro *Reorder) {
		ro.Add(capture.Record{Time: tm + 100, Rate: phy.Rate11Mbps, Channel: phy.Channel6, OrigLen: 60, Frame: frame[:60]})
		long := capture.Record{Time: tm, Rate: phy.Rate1Mbps, Channel: phy.Channel1, OrigLen: 200, Frame: frame}
		ro.Add(long)
		long.SnifferID = 1
		ro.Add(long)
		tm += 1000
	}
	released := 0
	ro := NewReorder(func(capture.Record) { released++ })
	for i := 0; i < 1000; i++ {
		step(ro)
	}
	if allocs := testing.AllocsPerRun(1000, func() { step(ro) }); allocs != 0 {
		t.Errorf("steady-state Add: %v allocs per three records, want 0", allocs)
	}
	if released == 0 {
		t.Fatal("nothing released; the stream never passed the horizon")
	}
	ro.Flush()
	if ro.Dropped == 0 || int64(released) != 2*ro.Dropped {
		t.Fatalf("%d released, %d dropped; want one duplicate dropped per two released", released, ro.Dropped)
	}
}

// TestReorderPendingCap: a flood of records with one start time never
// falls a horizon behind its newest end, so only the cap releases it.
// Ten times the cap stays within it, and every record is fed.
func TestReorderPendingCap(t *testing.T) {
	const total = 10 * MaxReorderPending
	released := 0
	ro := NewReorder(func(capture.Record) { released++ })
	for i := range total {
		// Distinct frames within any maxGroup: none is a duplicate.
		ro.Add(boundaryRec(1000, 60, phy.Rate11Mbps, byte(i)))
		if i == total-1 && released != total-MaxReorderPending {
			t.Fatalf("before Flush: %d of %d released, want all but the %d pending", released, total, MaxReorderPending)
		}
	}
	ro.Flush()
	if got := ro.MaxPending(); got > MaxReorderPending {
		t.Fatalf("MaxPending %d, cap %d", got, MaxReorderPending)
	}
	if released != total || ro.Dropped != 0 {
		t.Fatalf("%d of %d released, %d dropped; want all released", released, total, ro.Dropped)
	}
	if len(ro.ring) > 1<<13 {
		t.Fatalf("ring grew to %d slots, want at most %d", len(ro.ring), 1<<13)
	}
}
