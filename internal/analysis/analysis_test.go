package analysis

import (
	"bytes"
	"io"
	"reflect"
	"sort"
	"testing"

	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// syntheticTrace builds a deterministic three-channel trace that
// exercises every decoder path: complete DATA–ACK and RTS–CTS–DATA–ACK
// exchanges, retries, orphan ACKs and CTSs, an RTS–DATA pair with its
// CTS missing, broadcast data, management frames, a parse error, and
// multi-second gaps (so empty seconds and user windows appear).
func syntheticTrace() []capture.Record {
	var recs []capture.Record
	onCh := func(ch phy.Channel, rs ...capture.Record) {
		for i := range rs {
			rs[i].Channel = ch
			recs = append(recs, rs[i])
		}
	}
	for ci, ch := range []phy.Channel{phy.Channel1, phy.Channel6, phy.Channel11} {
		base := phy.Micros(ci) * 137 // desynchronize channels
		onCh(ch, beaconRec(base+100))

		// Complete exchanges at varied sizes and rates.
		t := base + 200_000
		for i := 0; i < 8; i++ {
			sta := dot11.AddrFromUint64(uint64(0x10 + i%3))
			size := 100 + i*190 // spans all four size classes
			rate := phy.Rates[i%4]
			m, end := dataAck(t, sta, size, rate, uint16(i), i%3 == 0)
			onCh(ch, m...)
			t = end + 5_000
		}

		// RTS–CTS–DATA–ACK, fully captured.
		rts := dot11.NewRTS(apAddr, staAddr, 2000)
		rtsEnd := t + phy.Airtime(20, phy.Rate1Mbps)
		ctsStart := rtsEnd + phy.SIFS
		ctsEnd := ctsStart + phy.Airtime(14, phy.Rate1Mbps)
		d := dot11.NewData(apAddr, staAddr, apAddr, 100, make([]byte, 900))
		d.FC.ToDS = true
		dStart := ctsEnd + phy.SIFS
		dEnd := dStart + phy.Airtime(d.WireLen(), phy.Rate11Mbps)
		onCh(ch,
			rec(t, rts, phy.Rate1Mbps),
			rec(ctsStart, dot11.NewCTS(staAddr, 1500), phy.Rate1Mbps),
			rec(dStart, d, phy.Rate11Mbps),
			rec(dEnd+phy.SIFS, dot11.NewACK(staAddr), phy.Rate1Mbps))

		// RTS then DATA with the CTS unrecorded.
		t = dEnd + 50_000
		d2 := dot11.NewData(apAddr, sta2, apAddr, 101, make([]byte, 700))
		d2.FC.ToDS = true
		onCh(ch,
			rec(t, dot11.NewRTS(apAddr, sta2, 2000), phy.Rate1Mbps),
			rec(t+1_000, d2, phy.Rate5_5Mbps))

		// Orphan ACK, lone CTS, broadcast data, management, retry span.
		onCh(ch, rec(t+100_000, dot11.NewACK(apAddr), phy.Rate1Mbps))
		onCh(ch, rec(t+150_000, dot11.NewCTS(apAddr, 900), phy.Rate2Mbps))
		bc := dot11.NewData(dot11.Broadcast, apAddr, apAddr, 102, make([]byte, 400))
		bc.FC.FromDS = true
		onCh(ch, rec(t+200_000, bc, phy.Rate2Mbps))
		onCh(ch, rec(t+250_000, dot11.NewAssocReq(staAddr, apAddr, "net", 103), phy.Rate1Mbps))

		// A parse error record.
		onCh(ch, capture.Record{Time: t + 300_000, Rate: phy.Rate1Mbps,
			OrigLen: 3, Frame: []byte{0xff, 0xff, 0xff}})

		// Jump several seconds (gap seconds + a second user window),
		// then one more exchange.
		m, _ := dataAck(base+35*phy.MicrosPerSecond, staAddr, 300, phy.Rate11Mbps, 104, false)
		onCh(ch, m...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return recs
}

// TestStreamingMatchesBatch is the redesign's core contract: feeding
// records incrementally, in arrival order interleaved across channels,
// produces a Result identical to the batch Analyze entry point.
func TestStreamingMatchesBatch(t *testing.T) {
	trace := syntheticTrace()
	batch := Analyze(trace)

	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace {
		a.Feed(r)
	}
	streamed := a.Result()

	if !reflect.DeepEqual(batch, streamed) {
		t.Errorf("streaming result differs from batch:\nbatch:    %+v\nstreamed: %+v", batch, streamed)
	}
	if batch.TotalFrames == 0 || batch.ParseErrors != 3 || batch.Unrecorded.Total() == 0 {
		t.Errorf("synthetic trace not exercising the decoder: %+v", batch.Unrecorded)
	}
	if len(batch.PerChannel) != 3 {
		t.Errorf("channels = %d, want 3", len(batch.PerChannel))
	}
	if len(batch.Users) != 2 {
		t.Errorf("user windows = %d, want 2", len(batch.Users))
	}
}

// TestCursorStreamsFromPcap: feeding the analyzer from a capture
// cursor, record by record, equals analyzing the trace read into
// memory first.
func TestCursorStreamsFromPcap(t *testing.T) {
	trace := syntheticTrace()
	var buf bytes.Buffer
	w, err := capture.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	pcapBytes := buf.Bytes()

	loaded, _, err := capture.ReadAll(bytes.NewReader(pcapBytes))
	if err != nil {
		t.Fatal(err)
	}
	want := Analyze(loaded)

	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := capture.NewCursor(bytes.NewReader(pcapBytes))
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		a.Feed(rec)
	}
	if cur.Skipped() != 0 {
		t.Fatalf("skipped %d records", cur.Skipped())
	}
	got := a.Result()
	if !reflect.DeepEqual(want, got) {
		t.Error("cursor-fed result differs from in-memory analysis")
	}
}

// TestMetricSelection runs a subset of stages and checks unselected
// Result fields stay zero-valued.
func TestMetricSelection(t *testing.T) {
	trace := syntheticTrace()
	r, err := AnalyzeWith(Options{Metrics: []string{"util", "unrecorded"}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerChannel) != 3 || r.UtilHist.N() == 0 {
		t.Error("util stage did not run")
	}
	if r.Unrecorded.Total() == 0 {
		t.Error("unrecorded stage did not run")
	}
	if r.Throughput.NOver(0, 100) != 0 || r.APs.Count() != 0 || len(r.Users) != 0 {
		t.Error("unselected stages produced output")
	}
	full := Analyze(trace)
	if full.Unrecorded != r.Unrecorded {
		t.Error("stage selection changed the unrecorded estimate")
	}

	if _, err := AnalyzeWith(Options{Metrics: []string{"nope"}}, trace); err == nil {
		t.Error("unknown metric name must error")
	}
}

// TestFeedAfterResultPanics pins the lifecycle contract.
func TestFeedAfterResultPanics(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.Feed(beaconRec(100))
	a.Result()
	defer func() {
		if recover() == nil {
			t.Error("Feed after Result must panic")
		}
	}()
	a.Feed(beaconRec(200))
}

// TestRegistry checks the built-in stages are registered in figure
// order with descriptions.
func TestRegistry(t *testing.T) {
	names := Names()
	wantPrefix := []string{"util", "throughput", "rtscts", "rates",
		"categories", "firstack", "delay", "aps", "unrecorded"}
	if len(names) < len(wantPrefix) {
		t.Fatalf("registered = %v", names)
	}
	for i, w := range wantPrefix {
		if names[i] != w {
			t.Errorf("names[%d] = %q, want %q", i, names[i], w)
		}
		if Describe(w) == "" {
			t.Errorf("metric %q has no description", w)
		}
	}
	if Describe("nope") != "" {
		t.Error("unknown metric must describe empty")
	}
}

// countingMetric is the extensibility check: a custom stage observing
// the shared event stream.
type countingMetric struct {
	frames, seconds int
	total           *int
}

func (m *countingMetric) OnFrame(ev *FrameEvent) { m.frames++ }
func (m *countingMetric) OnSecond(sec int64)     { m.seconds++ }
func (m *countingMetric) Finalize(r *Result)     { *m.total += m.frames }

// TestCustomMetricRegistration plugs a user-defined stage into the
// pipeline via the registry.
func TestCustomMetricRegistration(t *testing.T) {
	total := 0
	Register("test-counter", "test-only frame counter",
		func() Metric { return &countingMetric{total: &total} })
	trace := syntheticTrace()
	r, err := AnalyzeWith(Options{Metrics: []string{"test-counter"}}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if int64(total) != r.TotalFrames || total != len(trace) {
		t.Errorf("custom metric saw %d frames, want %d", total, len(trace))
	}
}

// TestEmptyAnalyzer: a Result with no input is well-formed.
func TestEmptyAnalyzer(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := a.Result()
	if r.TotalFrames != 0 || len(r.PerChannel) != 0 || r.UtilHist == nil {
		t.Errorf("empty result malformed: %+v", r)
	}
}

// TestLateRecordFoldedIntoOpenSecond documents the streaming-order
// contract: a record older than its channel's open second is counted,
// not dropped, and charged to the open second.
func TestLateRecordFoldedIntoOpenSecond(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.Feed(beaconRec(5 * phy.MicrosPerSecond))
	a.Feed(beaconRec(2 * phy.MicrosPerSecond)) // late
	r := a.Result()
	if r.TotalFrames != 2 {
		t.Fatalf("TotalFrames = %d", r.TotalFrames)
	}
	secs := r.PerChannel[phy.Channel1]
	if len(secs) != 1 {
		t.Fatalf("seconds = %d, want 1", len(secs))
	}
	if secs[0].Beacon != 2 || secs[0].Second != 5 {
		t.Errorf("late record not folded: %+v", secs[0])
	}
}
