package experiment

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// synthTx is one synthetic transmission for the dedup fuzzers.
type synthTx struct {
	rec      capture.Record // canonical record (SnifferID/Signal unset)
	end      phy.Micros
	captured []int // ascending sniffer indices that captured it
}

// genObservations builds a randomized transmission sequence on the
// 1/6/11 channels — overlapping airtimes, occasional identical start
// times — and assigns every transmission a random nonempty subset of k
// sniffers that captured it. Returned in delivery (end-time) order.
func genObservations(rng *rand.Rand, n, k int) []synthTx {
	rates := []phy.Rate{phy.Rate1Mbps, phy.Rate2Mbps, phy.Rate5_5Mbps, phy.Rate11Mbps, phy.Rate54Mbps}
	var t phy.Micros
	txs := make([]synthTx, n)
	for i := range txs {
		t += phy.Micros(rng.Intn(400)) // 0 gaps → equal start times
		wire := 60 + rng.Intn(1400)
		r := rates[rng.Intn(len(rates))]
		frame := make([]byte, 24+rng.Intn(64))
		rng.Read(frame)
		// Embed the index so distinct transmissions never alias.
		frame[0], frame[1] = byte(i), byte(i>>8)
		var caps []int
		for s := 0; s < k; s++ {
			if rng.Intn(3) > 0 { // each sniffer catches ~2/3 of frames
				caps = append(caps, s)
			}
		}
		if len(caps) == 0 {
			caps = []int{rng.Intn(k)}
		}
		txs[i] = synthTx{
			rec: capture.Record{
				Time:     t,
				Rate:     r,
				Channel:  phy.OrthogonalChannels[rng.Intn(3)],
				NoiseDBm: -96,
				OrigLen:  wire,
				Frame:    frame,
			},
			end:      t + phy.Airtime(wire, r),
			captured: caps,
		}
	}
	// Deliver in end order (stable for equal ends).
	for i := 1; i < len(txs); i++ {
		for j := i; j > 0 && txs[j].end < txs[j-1].end; j-- {
			txs[j], txs[j-1] = txs[j-1], txs[j]
		}
	}
	return txs
}

// snifferCopy is tx's record as sniffer s captured it: same air facts,
// jittered per-sniffer reception metadata.
func snifferCopy(tx synthTx, s int) capture.Record {
	rec := tx.rec
	rec.SnifferID = s + 1
	rec.SignalDBm = int8(-40 - s - int(tx.rec.Time%7)) // jitter: differs per sniffer
	return rec
}

// TestDedupFuzzMatchesReference streams k jittered sniffer copies of
// randomized transmission sequences through the dedup window and
// checks the output is exactly the single-copy reference: one record
// per transmission, the lowest-ID capturing sniffer's copy, in
// delivery order.
func TestDedupFuzzMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		txs := genObservations(rng, 400, k)

		var got []capture.Record
		dd := NewDedup(func(rec capture.Record) {
			cp := rec
			cp.Frame = append([]byte(nil), rec.Frame...)
			got = append(got, cp)
		})
		copies := 0
		for _, tx := range txs {
			for _, s := range tx.captured {
				copies++
				dd.Add(snifferCopy(tx, s))
			}
		}

		if len(got) != len(txs) {
			t.Fatalf("seed %d: %d records out, want %d (one per transmission)", seed, len(got), len(txs))
		}
		if want := int64(copies - len(txs)); dd.Dropped != want {
			t.Fatalf("seed %d: Dropped = %d, want %d", seed, dd.Dropped, want)
		}
		for i, tx := range txs {
			want := snifferCopy(tx, tx.captured[0])
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("seed %d: record %d = %+v, want first capturer's copy %+v", seed, i, got[i], want)
			}
		}
		if dd.MaxPending() > 256 {
			t.Fatalf("seed %d: dedup table high-water mark %d; want bounded", seed, dd.MaxPending())
		}
	}
}

// TestDedupReorderMatchesMerge is the streaming bridge's multi-sniffer
// acceptance property: for randomized jittered k-sniffer streams, a
// bare Reorder window, and the Dedup stage followed by one, must each
// reproduce capture.Merge of the materialized per-sniffer traces bit
// for bit — duplicates collapsed to the same copy, order identical
// including equal-time tie-breaks. The fixed cases pin the window's
// edges: copies arriving in descending sniffer order, a same-air pair
// whose airtime equals the horizon (released before its twin
// arrives), and a group of equal-start records that straddles a ring
// grow.
func TestDedupReorderMatchesMerge(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(3)
		txs := genObservations(rng, 500, k)

		// Per-sniffer traces in capture order, and the stream the
		// sniffers deliver.
		traces := make([][]capture.Record, k)
		var arrivals []capture.Record
		for _, tx := range txs {
			for _, s := range tx.captured {
				traces[s] = append(traces[s], snifferCopy(tx, s))
				arrivals = append(arrivals, snifferCopy(tx, s))
			}
		}
		want := capture.Merge(traces...)
		ro := checkWindow(t, fmt.Sprintf("seed %d", seed), arrivals, want)
		if wantDropped := int64(len(arrivals) - len(want)); ro.Dropped != wantDropped {
			t.Fatalf("seed %d: window dropped %d, want %d", seed, ro.Dropped, wantDropped)
		}

		var got []capture.Record
		dro := NewReorder(func(rec capture.Record) { got = append(got, copyRec(rec)) })
		dd := NewDedup(dro.Add)
		for _, rec := range arrivals {
			dd.Add(rec)
		}
		dro.Flush()
		sameRecords(t, fmt.Sprintf("seed %d: Dedup then Reorder", seed), got, want)
	}

	t.Run("descending-sniffer-order", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		txs := genObservations(rng, 300, 3)
		traces := make([][]capture.Record, 3)
		var arrivals []capture.Record
		for _, tx := range txs {
			for i := len(tx.captured) - 1; i >= 0; i-- {
				s := tx.captured[i]
				traces[s] = append(traces[s], snifferCopy(tx, s))
				arrivals = append(arrivals, snifferCopy(tx, s))
			}
		}
		checkWindow(t, "descending", arrivals, capture.Merge(traces...))
	})

	t.Run("airtime-equals-horizon", func(t *testing.T) {
		// A maximum-airtime frame releases on its own Add, before its
		// twin arrives; the twin still meets it in the group.
		long := boundaryRec(1000, MaxReorderWire, phy.Rate1Mbps, 'L')
		if phy.Airtime(long.OrigLen, long.Rate) != ReorderHorizon() {
			t.Fatal("test frame's airtime is not the horizon")
		}
		twin := long
		twin.SnifferID = 2
		after := boundaryRec(long.Time+ReorderHorizon(), 60, phy.Rate11Mbps, 'a')
		traces := [][]capture.Record{{long, after}, {twin}}
		ro := checkWindow(t, "horizon", []capture.Record{long, twin, after}, capture.Merge(traces...))
		if ro.Dropped != 1 {
			t.Fatalf("dropped %d, want the twin", ro.Dropped)
		}
	})

	t.Run("group-straddles-grow", func(t *testing.T) {
		// 40 maximum-airtime transmissions share one start time, so
		// each releases on arrival, and with the second sniffer's
		// copies the group outgrows the first ring; the copies after
		// the grow meet the first sniffer's across it.
		const n = 40
		traces := make([][]capture.Record, 2)
		var arrivals []capture.Record
		for s := range traces {
			for i := 0; i < n; i++ {
				rec := boundaryRec(5000, MaxReorderWire, phy.Rate1Mbps, byte(i))
				rec.SnifferID = s + 1
				traces[s] = append(traces[s], rec)
				arrivals = append(arrivals, rec)
			}
		}
		ro := checkWindow(t, "grow", arrivals, capture.Merge(traces...))
		if ro.Dropped != n {
			t.Fatalf("dropped %d, want %d", ro.Dropped, n)
		}
	})
}

// checkWindow streams arrivals through a bare Reorder and fails unless
// it releases exactly want; it returns the window for its counters.
func checkWindow(t *testing.T, name string, arrivals, want []capture.Record) *Reorder {
	t.Helper()
	var got []capture.Record
	ro := NewReorder(func(rec capture.Record) { got = append(got, copyRec(rec)) })
	for _, rec := range arrivals {
		ro.Add(rec)
	}
	ro.Flush()
	sameRecords(t, name+": Reorder", got, want)
	return ro
}

// sameRecords fails at the first record where got and want differ.
func sameRecords(t *testing.T, name string, got, want []capture.Record) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: streamed %d records, merged %d", name, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d differs:\n streamed %+v\n merged   %+v", name, i, got[i], want[i])
		}
	}
}

// TestDedupPassThroughSingleSniffer pins the transparency property the
// pre-dedup scenarios rely on: a single-sniffer stream passes through
// untouched.
func TestDedupPassThroughSingleSniffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	txs := genObservations(rng, 300, 1)
	var got []capture.Record
	dd := NewDedup(func(rec capture.Record) { got = append(got, rec) })
	for _, tx := range txs {
		dd.Add(snifferCopy(tx, 0))
	}
	if len(got) != len(txs) || dd.Dropped != 0 {
		t.Fatalf("single-sniffer stream altered: %d in, %d out, %d dropped", len(txs), len(got), dd.Dropped)
	}
}
