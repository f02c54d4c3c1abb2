package capture

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"wlan80211/internal/dot11"
	"wlan80211/internal/pcapio"
	"wlan80211/internal/phy"
)

func testRecord(t phy.Micros, ch phy.Channel, payload byte) Record {
	f := dot11.NewData(dot11.AddrFromUint64(1), dot11.AddrFromUint64(2), dot11.AddrFromUint64(3), 1, []byte{payload})
	wire := f.AppendTo(nil)
	return Record{
		Time: t, Rate: phy.Rate11Mbps, Channel: ch,
		SignalDBm: -50, NoiseDBm: -95,
		OrigLen: f.WireLen(), Frame: wire,
	}
}

func TestSNRAndSecond(t *testing.T) {
	r := testRecord(2_500_000, phy.Channel1, 0)
	if r.SNR() != 45 {
		t.Errorf("SNR = %v", r.SNR())
	}
	if r.Second() != 2 {
		t.Errorf("Second = %d", r.Second())
	}
}

func TestPcapRoundTrip(t *testing.T) {
	r := testRecord(123456, phy.Channel6, 0xaa)
	p := ToPcap(r)
	got, err := FromPcap(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != r.Time || got.Rate != r.Rate || got.Channel != r.Channel ||
		got.SignalDBm != r.SignalDBm || got.NoiseDBm != r.NoiseDBm {
		t.Errorf("metadata mismatch: %+v vs %+v", got, r)
	}
	if !bytes.Equal(got.Frame, r.Frame) {
		t.Error("frame bytes mismatch")
	}
	if got.OrigLen != r.OrigLen {
		t.Errorf("OrigLen = %d, want %d", got.OrigLen, r.OrigLen)
	}
}

func TestWriterReadAll(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		testRecord(1000, phy.Channel1, 1),
		testRecord(2000, phy.Channel6, 2),
		testRecord(3000, phy.Channel11, 3),
	}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	got, skipped, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i].Time != want[i].Time || got[i].Channel != want[i].Channel {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestWriterSnapLen(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 250)
	if err != nil {
		t.Fatal(err)
	}
	big := testRecord(1, phy.Channel1, 0)
	big.Frame = bytes.Repeat([]byte{0x08, 0x00}, 700) // 1400-byte frame
	big.OrigLen = 1404
	if err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, _, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("lost record")
	}
	// Frame snapped to ~250 bytes but OrigLen preserved.
	if len(got[0].Frame) > 260 {
		t.Errorf("frame not snapped: %d bytes", len(got[0].Frame))
	}
	if got[0].OrigLen != 1404 {
		t.Errorf("OrigLen = %d, want 1404", got[0].OrigLen)
	}
}

func TestReadAllWrongLinkType(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := pcapio.NewWriter(&buf, pcapio.LinkTypeIEEE80211, 0)
	pw.WriteRecord(pcapio.Record{Data: []byte{1}})
	pw.Flush()
	if _, _, err := ReadAll(&buf); err != ErrLinkType {
		t.Errorf("err = %v, want ErrLinkType", err)
	}
}

// TestCursorRejectsWrongLinkType: a non-radiotap pcap is refused.
func TestCursorRejectsWrongLinkType(t *testing.T) {
	// An ethernet pcap header (link type 1).
	hdr := []byte{0xd4, 0xc3, 0xb2, 0xa1, 2, 0, 4, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 1, 0, 0, 0}
	if _, err := NewCursor(bytes.NewReader(hdr)); err != ErrLinkType {
		t.Errorf("err = %v, want ErrLinkType", err)
	}
}

func TestReadAllSkipsBadRadiotap(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := pcapio.NewWriter(&buf, pcapio.LinkTypeRadiotap, 0)
	pw.WriteRecord(ToPcap(testRecord(1, phy.Channel1, 0)))
	pw.WriteRecord(pcapio.Record{TimestampMicros: 2, Data: []byte{9, 9}}) // garbage
	pw.WriteRecord(ToPcap(testRecord(3, phy.Channel1, 0)))
	pw.Flush()
	got, skipped, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(got) != 2 {
		t.Errorf("skipped=%d len=%d", skipped, len(got))
	}
}

func TestMergeSortsAndDedups(t *testing.T) {
	a := testRecord(100, phy.Channel1, 1)
	b := testRecord(50, phy.Channel1, 2)
	dupOfA := a // same transmission seen by another sniffer
	dupOfA.SnifferID = 2
	dupOfA.SignalDBm = -60 // different RSSI at a different sniffer
	c := testRecord(100, phy.Channel6, 3)

	merged := Merge([]Record{a, c}, []Record{b, dupOfA})
	if len(merged) != 3 {
		t.Fatalf("merged %d records, want 3", len(merged))
	}
	if merged[0].Time != 50 {
		t.Error("not sorted")
	}
	// Same time but different channel must survive.
	chans := map[phy.Channel]bool{}
	for _, r := range merged {
		chans[r.Channel] = true
	}
	if !chans[phy.Channel6] {
		t.Error("channel-6 record lost in dedup")
	}
}

// TestMergeEqualTimeTieBreaking pins Merge's documented stability:
// distinct records with equal timestamps keep their input order —
// within one trace, and across traces in argument order. The analysis
// depends on this for reproducible exchange matching when a DATA and
// its ACK carry the same (coarse) timestamp.
func TestMergeEqualTimeTieBreaking(t *testing.T) {
	a := testRecord(100, phy.Channel1, 0xa)
	b := testRecord(100, phy.Channel1, 0xb)
	c := testRecord(100, phy.Channel1, 0xc)

	merged := Merge([]Record{a, b}, []Record{c})
	if len(merged) != 3 {
		t.Fatalf("merged %d records, want 3", len(merged))
	}
	want := []byte{0xa, 0xb, 0xc}
	for i, r := range merged {
		if got := r.Frame[len(r.Frame)-1]; got != want[i] {
			t.Fatalf("merged[%d] payload = %#x, want %#x (tie-break order broken)", i, got, want[i])
		}
	}
	// Argument order decides between traces too: swapping the traces
	// swaps the run of equal-time records.
	merged = Merge([]Record{c}, []Record{a, b})
	want = []byte{0xc, 0xa, 0xb}
	for i, r := range merged {
		if got := r.Frame[len(r.Frame)-1]; got != want[i] {
			t.Fatalf("swapped merged[%d] payload = %#x, want %#x", i, got, want[i])
		}
	}
}

// TestMergeDedupRequiresIdenticalAir checks that near-duplicates —
// same instant but different rate, channel, or frame bytes — are all
// preserved; only true cross-sniffer copies collapse.
func TestMergeDedupRequiresIdenticalAir(t *testing.T) {
	base := testRecord(500, phy.Channel1, 1)

	diffRate := base
	diffRate.Rate = phy.Rate1Mbps
	diffChan := base
	diffChan.Channel = phy.Channel11
	diffBytes := testRecord(500, phy.Channel1, 2)
	trueDup := base
	trueDup.SnifferID = 9
	trueDup.NoiseDBm = -90

	merged := Merge([]Record{base}, []Record{diffRate, diffChan, diffBytes, trueDup})
	if len(merged) != 4 {
		t.Errorf("merged %d records, want 4 (only the true duplicate collapses)", len(merged))
	}
}

// refMerge is the straightforward specification Merge must match:
// concatenate, stable-sort by time, then drop same-air duplicates.
func refMerge(traces ...[]Record) []Record {
	var all []Record
	for _, tr := range traces {
		all = append(all, tr...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	var out []Record
	for i, r := range all {
		dup := false
		for j := i - 1; j >= 0 && all[j].Time == r.Time; j-- {
			if SameAir(&all[j], &r) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

func sameMerged(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].SnifferID != b[i].SnifferID ||
			a[i].Channel != b[i].Channel || !bytes.Equal(a[i].Frame, b[i].Frame) {
			return false
		}
	}
	return true
}

// TestMergeMatchesReference drives both Merge paths — the ~O(n)
// run-detecting k-way merge on nearly-sorted input and the index-sort
// fallback on shuffled input — against the specification.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name string
		gen  func() [][]Record
	}{
		{"sorted", func() [][]Record {
			// Fully sorted per-sniffer traces: one run each.
			var traces [][]Record
			for s := 0; s < 3; s++ {
				var tr []Record
				tm := phy.Micros(rng.Intn(50))
				for i := 0; i < 200; i++ {
					tm += phy.Micros(rng.Intn(300))
					r := testRecord(tm, phy.Channel1, byte(i))
					r.SnifferID = s
					tr = append(tr, r)
				}
				traces = append(traces, tr)
			}
			return traces
		}},
		{"nearly-sorted", func() [][]Record {
			// Occasional out-of-order records, as overlapping
			// transmissions produce: long runs, few breaks.
			var traces [][]Record
			for s := 0; s < 2; s++ {
				var tr []Record
				tm := phy.Micros(1000)
				for i := 0; i < 400; i++ {
					tm += phy.Micros(rng.Intn(200))
					at := tm
					if rng.Intn(100) == 0 {
						at -= phy.Micros(5000) // a late long frame
					}
					r := testRecord(at, phy.Channel6, byte(i))
					r.SnifferID = s
					tr = append(tr, r)
				}
				traces = append(traces, tr)
			}
			return traces
		}},
		{"shuffled", func() [][]Record {
			// Fully random: short runs force the index-sort fallback.
			var tr []Record
			for i := 0; i < 500; i++ {
				tr = append(tr, testRecord(phy.Micros(rng.Intn(2000)), phy.Channel11, byte(i)))
			}
			return [][]Record{tr}
		}},
		{"equal-times", func() [][]Record {
			// Heavy timestamp collisions exercise tie-breaking and
			// dedup together.
			var a, b []Record
			for i := 0; i < 200; i++ {
				tm := phy.Micros(rng.Intn(20))
				a = append(a, testRecord(tm, phy.Channel1, byte(i%7)))
				b = append(b, testRecord(tm, phy.Channel1, byte(i%5)))
			}
			return [][]Record{a, b}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traces := tc.gen()
			// Inputs must survive the merge unmodified.
			backup := make([][]Record, len(traces))
			for i, tr := range traces {
				backup[i] = append([]Record(nil), tr...)
			}
			got := Merge(traces...)
			want := refMerge(traces...)
			if !sameMerged(got, want) {
				t.Fatalf("Merge diverges from reference: %d vs %d records", len(got), len(want))
			}
			for i := range traces {
				if !sameMerged(traces[i], backup[i]) {
					t.Fatalf("Merge mutated input trace %d", i)
				}
			}
		})
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(); len(got) != 0 {
		t.Error("empty merge must be empty")
	}
	if got := Merge(nil, nil); len(got) != 0 {
		t.Error("merge of nils must be empty")
	}
}

func TestSplitByChannel(t *testing.T) {
	recs := []Record{
		testRecord(1, phy.Channel1, 0),
		testRecord(2, phy.Channel6, 0),
		testRecord(3, phy.Channel1, 0),
	}
	m := SplitByChannel(recs)
	if len(m[phy.Channel1]) != 2 || len(m[phy.Channel6]) != 1 {
		t.Errorf("split: %d/%d", len(m[phy.Channel1]), len(m[phy.Channel6]))
	}
}

// TestSplitByChannelPreservesOrder: each channel's slice keeps the
// records in input order — the streaming analyzer's per-channel feed
// relies on it.
func TestSplitByChannelPreservesOrder(t *testing.T) {
	var recs []Record
	for i := 0; i < 20; i++ {
		ch := phy.Channel1
		if i%3 == 0 {
			ch = phy.Channel6
		}
		recs = append(recs, testRecord(phy.Micros(1000-i), ch, byte(i)))
	}
	m := SplitByChannel(recs)
	for ch, part := range m {
		last := -1
		for _, r := range part {
			i := int(r.Frame[len(r.Frame)-1])
			if i <= last {
				t.Fatalf("channel %v order broken: %d after %d", ch, i, last)
			}
			last = i
		}
	}
	if len(m[phy.Channel6])+len(m[phy.Channel1]) != len(recs) {
		t.Error("records lost in split")
	}
}
