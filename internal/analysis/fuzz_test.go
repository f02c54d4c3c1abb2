package analysis_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
	"wlan80211/internal/report"
)

// fuzzAddrs is the address pool fuzzRecords draws from: unicast
// addresses, the broadcast and a multicast address, and addresses
// that differ from another only in one byte at either end, so a
// packing that drops or folds a byte collides them.
var fuzzAddrs = [16]dot11.Addr{
	dot11.AddrFromUint64(1), dot11.AddrFromUint64(2), dot11.AddrFromUint64(3), dot11.AddrFromUint64(4),
	dot11.Broadcast, {0x01, 0x00, 0x5e, 0x00, 0x00, 0x01},
	{0x02, 0, 0, 0, 0, 0x01}, {0x06, 0, 0, 0, 0, 0x01}, {0x02, 0, 0, 0, 0x01, 0x01}, {0x02, 0x01, 0, 0, 0, 0x01},
	{0x02, 0, 0, 0x01, 0, 0}, {0x02, 0, 0, 0, 0x01, 0}, {0x03, 0, 0, 0, 0, 0x01},
	dot11.AddrFromUint64(0xfffffffff), dot11.AddrFromUint64(0x1000000001), {0xfe, 0xff, 0xff, 0xff, 0xff, 0xff},
}

// fuzzChannels are four channel shards, one outside the 2.4 GHz band.
var fuzzChannels = [4]phy.Channel{1, 6, 11, 40}

var fuzzSizes = [4]int{0, 120, 480, 1400}

// fuzzRecords decodes b into a record stream, five bytes a record:
//
//	b0  kind = b0%8: 0,7 DATA, 1 ACK, 2 RTS, 3 CTS, 4 beacon,
//	    5 other management, 6 unparseable; bit 3 Retry, bit 4 ToDS,
//	    bit 5 FromDS; bit 6 replaces the frame's transmitter (the
//	    receiver of an ACK or CTS) with the previous frame's
//	    transmitter, so exchanges, retries and ACKs line up
//	b1  transmitter fuzzAddrs[b1&15], receiver fuzzAddrs[b1>>4]
//	b2  sequence number b2&7, or 4088+(b2&7) with bit 7 set (so
//	    transmitters reuse numbers); payload size fuzzSizes[b2>>3&3]
//	b3  start time, by b3&3 with v = b3>>2: 0 the previous frame's
//	    end + 2v µs (an ACK or CTS in or out of its match window),
//	    1 the previous end + v ms, 2 a jump of 1.9 s + 6.25v ms (v<32,
//	    either side of the 2 s reuse window) or 3(v-31) s (new seconds
//	    and user windows), 3 v/2 ms behind the newest start: out of
//	    order, but within the slack the acceptance-delay pruning keeps
//	b4  channel fuzzChannels[b4&3], rate phy.Rates[b4>>2&3]
//
// The stream ends at 2,000 records or 10 trace-minutes, so every input
// runs in milliseconds.
func fuzzRecords(b []byte) []capture.Record {
	var recs []capture.Record
	var t, newest, end phy.Micros = 5 * phy.MicrosPerSecond, 0, 0
	var last dot11.Addr
	for ; len(b) >= 5 && len(recs) < 2000; b = b[5:] {
		ta, ra := fuzzAddrs[b[1]&15], fuzzAddrs[b[1]>>4]
		if b[0]&0x40 != 0 {
			if k := b[0] % 8; k == 1 || k == 3 {
				ra = last
			} else {
				ta = last
			}
		}
		last = ta
		seq := uint16(b[2] & 7)
		if b[2]&0x80 != 0 {
			seq += 4088
		}
		size := fuzzSizes[b[2]>>3&3]
		v := phy.Micros(b[3] >> 2)
		switch b[3] & 3 {
		case 0:
			t = end + 2*v
		case 1:
			t = end + v*1000
		case 2:
			if v < 32 {
				t = newest + 1_900_000 + v*6250
			} else {
				t = newest + (v-31)*3*phy.MicrosPerSecond
			}
		case 3:
			t = newest - v*500
		}
		if t > 600*phy.MicrosPerSecond {
			break
		}
		newest = max(newest, t)
		rate := phy.Rates[b[4]>>2&3]

		var f dot11.Frame
		switch b[0] % 8 {
		case 0, 7:
			d := dot11.NewData(ra, ta, fuzzAddrs[0], seq, make([]byte, size))
			d.FC.Retry = b[0]&0x08 != 0
			d.FC.ToDS = b[0]&0x10 != 0
			d.FC.FromDS = b[0]&0x20 != 0
			f = d
		case 1:
			f = dot11.NewACK(ra)
		case 2:
			f = dot11.NewRTS(ra, ta, 2000)
		case 3:
			f = dot11.NewCTS(ra, 1500)
		case 4:
			f = dot11.NewBeacon(ta, "net", 1, uint64(t), seq)
		case 5:
			f = dot11.NewAssocReq(ta, ra, "net", seq)
		}
		r := capture.Record{Time: t, Rate: rate, Channel: fuzzChannels[b[4]&3], SignalDBm: -50, NoiseDBm: -95}
		if f != nil {
			r.Frame, r.OrigLen = f.AppendTo(nil), f.WireLen()
		} else {
			r.Frame, r.OrigLen = []byte{0xff, 0xff, 0xff}, 3
		}
		end = t + phy.Airtime(r.OrigLen, rate)
		recs = append(recs, r)
	}
	return recs
}

// idCheck is an Extra stage that checks the decoder's interning from
// outside: within a shard, each ID names one address and each address
// one ID, and every event's IDs match its frame's addresses.
type idCheck struct {
	t     *testing.T
	byID  map[analysis.AddrID]dot11.Addr
	byAdr map[dot11.Addr]analysis.AddrID
}

func (c *idCheck) bind(id analysis.AddrID, a dot11.Addr, what string) {
	if id == 0 {
		c.t.Fatalf("%s %v has ID 0", what, a)
	}
	if b, ok := c.byID[id]; ok && b != a {
		c.t.Fatalf("%s ID %d names %v and %v", what, id, a, b)
	}
	if j, ok := c.byAdr[a]; ok && j != id {
		c.t.Fatalf("%s %v has IDs %d and %d", what, a, id, j)
	}
	c.byID[id], c.byAdr[a] = a, id
}

func (c *idCheck) OnFrame(ev *analysis.FrameEvent) {
	if ev.Kind == analysis.KindInvalid {
		if ev.TAID != 0 || ev.RAID != 0 || ev.MissingID != 0 {
			c.t.Fatalf("unparseable record has IDs %d/%d/%d", ev.TAID, ev.RAID, ev.MissingID)
		}
		return
	}
	if ta, ok := dot11.TransmitterOf(ev.Parsed.Frame); ok {
		c.bind(ev.TAID, ta, "TA")
	} else if ev.TAID != 0 {
		c.t.Fatalf("%v frame without a transmitter has TAID %d", ev.Kind, ev.TAID)
	}
	c.bind(ev.RAID, dot11.ReceiverOf(ev.Parsed.Frame), "RA")
	if ev.Missing != analysis.MissingNone {
		c.bind(ev.MissingID, ev.MissingAddr, "missing")
	} else if ev.MissingID != 0 {
		c.t.Fatalf("MissingID %d without a Missing label", ev.MissingID)
	}
}

func (c *idCheck) OnSecond(int64)              {}
func (c *idCheck) Finalize(r *analysis.Result) {}

// FuzzAnalyzerMatchesReference checks the ID-keyed decoder and aps
// stage against the address-keyed reference (reference_test.go) on
// any record stream: the same Result, AP report, user counts and
// rendered figures. The corpus in testdata/fuzz replays as seed tests
// on every go test run; fuzz further with
// go test -run '^$' -fuzz FuzzAnalyzerMatchesReference ./internal/analysis/
func FuzzAnalyzerMatchesReference(f *testing.F) {
	// Seeds, one fuzzRecords record a row.
	seed := func(recs ...[5]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r[:]...)
		}
		return b
	}
	f.Add(seed( // DATA–ACK, a retried DATA–ACK, RTS–CTS–DATA–ACK
		[5]byte{0x00, 0x01, 0x01, 0x00, 0x00}, [5]byte{0x41, 0x00, 0x00, 0x08, 0x00},
		[5]byte{0x00, 0x01, 0x02, 0x05, 0x00}, [5]byte{0x08, 0x01, 0x02, 0x05, 0x00},
		[5]byte{0x41, 0x00, 0x00, 0x08, 0x00}, [5]byte{0x02, 0x02, 0x00, 0x05, 0x00},
		[5]byte{0x43, 0x00, 0x00, 0x08, 0x00}, [5]byte{0x00, 0x02, 0x03, 0x08, 0x00},
		[5]byte{0x41, 0x00, 0x00, 0x08, 0x00}))
	f.Add(seed( // seq 5 superseded by seq 6 before its ACK, then retried and acknowledged
		[5]byte{0x00, 0x01, 0x05, 0x00, 0x00}, [5]byte{0x00, 0x01, 0x06, 0x05, 0x00},
		[5]byte{0x08, 0x01, 0x05, 0x05, 0x00}, [5]byte{0x41, 0x00, 0x00, 0x08, 0x00}))
	f.Add(seed( // seq 3 acknowledged, then reused 63 ms on and acknowledged again
		[5]byte{0x00, 0x01, 0x03, 0x00, 0x00}, [5]byte{0x41, 0x00, 0x00, 0x08, 0x00},
		[5]byte{0x00, 0x01, 0x03, 0xfd, 0x00}, [5]byte{0x41, 0x00, 0x00, 0x08, 0x00}))
	f.Add(seed( // seq 5 and 6 unacknowledged; 3 s on, seq 7 prunes 5; then 5 again and its ACK
		[5]byte{0x00, 0x01, 0x05, 0x00, 0x00}, [5]byte{0x00, 0x01, 0x06, 0x00, 0x00},
		[5]byte{0x00, 0x01, 0x07, 0x82, 0x00}, [5]byte{0x00, 0x01, 0x05, 0x00, 0x00},
		[5]byte{0x41, 0x00, 0x00, 0x08, 0x00}))
	f.Add(seed( // beacon, FromDS and broadcast data, management, unparseable, a late
		// record, orphan ACK and CTS, RTS–DATA without CTS, a 15 s jump,
		// data from a group address; over all four channels
		[5]byte{0x04, 0x40, 0x00, 0x05, 0x01}, [5]byte{0x20, 0x20, 0x01, 0x05, 0x02},
		[5]byte{0x00, 0x41, 0x00, 0x05, 0x03}, [5]byte{0x05, 0x23, 0x00, 0x05, 0x00},
		[5]byte{0x06, 0x00, 0x00, 0x05, 0x01}, [5]byte{0x00, 0x31, 0x02, 0x53, 0x00},
		[5]byte{0x01, 0x90, 0x00, 0x05, 0x00}, [5]byte{0x03, 0xa0, 0x00, 0x05, 0x00},
		[5]byte{0x02, 0x03, 0x00, 0x05, 0x00}, [5]byte{0x40, 0x00, 0x01, 0x08, 0x00},
		[5]byte{0x00, 0x01, 0x02, 0x92, 0x00}, [5]byte{0x10, 0x65, 0x01, 0x05, 0x00}))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs := fuzzRecords(b)
		want := analysis.RefAnalyze(recs)
		a, err := analysis.New(analysis.Options{
			Metrics: analysis.BuiltinStages,
			Extra: []analysis.Factory{func() analysis.Metric {
				return &idCheck{t: t, byID: map[analysis.AddrID]dot11.Addr{}, byAdr: map[dot11.Addr]analysis.AddrID{}}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			a.Feed(r)
		}
		got := a.Result()

		n := want.APs.Count()
		if g := got.APs.Count(); g != n {
			t.Fatalf("AP count %d, reference %d", g, n)
		}
		gt, wt := got.APs.TopN(n), want.APs.TopN(n)
		for i := range wt {
			if *gt[i] != *wt[i] {
				t.Fatalf("TopN[%d] = %+v, reference %+v", i, *gt[i], *wt[i])
			}
		}
		for _, ad := range fuzzAddrs {
			if g, w := got.APs.IsAP(ad), want.APs.IsAP(ad); g != w {
				t.Fatalf("IsAP(%v) = %v, reference %v", ad, g, w)
			}
			if g, w := got.APs.Stat(ad), want.APs.Stat(ad); (g == nil) != (w == nil) || g != nil && *g != *w {
				t.Fatalf("Stat(%v) = %+v, reference %+v", ad, g, w)
			}
		}
		if !reflect.DeepEqual(got.Users, want.Users) {
			t.Fatalf("Users = %v, reference %v", got.Users, want.Users)
		}
		if g, w := renderAll(t, got), renderAll(t, want); g != w {
			t.Fatalf("figures differ from the reference:\n%s\nreference:\n%s", g, w)
		}
		if !reflect.DeepEqual(got, want) {
			g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
			for i := 0; i < g.NumField(); i++ {
				if g.Type().Field(i).IsExported() && !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
					t.Errorf("Result.%s differs from the reference", g.Type().Field(i).Name)
				}
			}
			t.FailNow()
		}
	})
}

func renderAll(t *testing.T, r *analysis.Result) string {
	var buf bytes.Buffer
	for _, tab := range report.AllFigures(r) {
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&buf, "frames %d errors %d unrecorded %+v\n", r.TotalFrames, r.ParseErrors, r.Unrecorded)
	return buf.String()
}
