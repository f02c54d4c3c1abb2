package dot11

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"

	"wlan80211/internal/phy"
)

func addr(b byte) Addr { return Addr{0x02, 0, 0, 0, 0, b} }

func TestAddrString(t *testing.T) {
	a := Addr{0xaa, 0xbb, 0xcc, 0x01, 0x02, 0x03}
	if got := a.String(); got != "aa:bb:cc:01:02:03" {
		t.Errorf("String() = %q", got)
	}
}

func TestAddrGroupBits(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsGroup() {
		t.Error("broadcast must be group+broadcast")
	}
	if addr(1).IsGroup() {
		t.Error("unicast address must not be group")
	}
	m := Addr{0x01, 0x00, 0x5e, 0, 0, 1}
	if !m.IsGroup() || m.IsBroadcast() {
		t.Error("multicast must be group but not broadcast")
	}
}

func TestAddrFromUint64(t *testing.T) {
	a := AddrFromUint64(0x123456789a)
	if a.IsGroup() {
		t.Error("minted addresses must be unicast")
	}
	if a[0]&0x02 == 0 {
		t.Error("minted addresses must be locally administered")
	}
	b := AddrFromUint64(0x123456789b)
	if a == b {
		t.Error("distinct seeds must give distinct addresses")
	}
}

func TestFrameControlRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		fc := FrameControlFromUint16(v)
		return fc.Uint16() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameControlFields(t *testing.T) {
	fc := FrameControl{Type: TypeData, Subtype: SubtypeData, ToDS: true, Retry: true}
	got := FrameControlFromUint16(fc.Uint16())
	if got != fc {
		t.Errorf("round trip: %+v != %+v", got, fc)
	}
	if fc.String() != "data/0 retry" {
		t.Errorf("String() = %q", fc.String())
	}
}

func TestSeqControlRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		return SeqControlFromUint16(v).Uint16() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFCSRoundTrip(t *testing.T) {
	frame := AppendFCS([]byte{1, 2, 3, 4, 5})
	body, err := CheckFCS(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, []byte{1, 2, 3, 4, 5}) {
		t.Error("body mismatch")
	}
	frame[2] ^= 0xff
	if _, err := CheckFCS(frame); err != ErrBadFCS {
		t.Errorf("corrupted frame: got %v, want ErrBadFCS", err)
	}
	if _, err := CheckFCS([]byte{1, 2}); err != ErrTruncated {
		t.Errorf("short frame: got %v, want ErrTruncated", err)
	}
}

func roundTrip(t *testing.T, f Frame, fresh Frame) Frame {
	t.Helper()
	wire := Encode(f)
	if len(wire) != f.WireLen() {
		t.Fatalf("WireLen = %d but encoded %d bytes", f.WireLen(), len(wire))
	}
	body, err := CheckFCS(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.DecodeFromBytes(body); err != nil {
		t.Fatal(err)
	}
	return fresh
}

func TestRTSRoundTrip(t *testing.T) {
	f := NewRTS(addr(1), addr(2), 1234)
	got := roundTrip(t, f, new(RTS)).(*RTS)
	if *got != *f {
		t.Errorf("round trip: %+v != %+v", got, f)
	}
	if f.WireLen() != 20 {
		t.Errorf("RTS wire length = %d, want 20", f.WireLen())
	}
}

func TestCTSRoundTrip(t *testing.T) {
	f := NewCTS(addr(3), 999)
	got := roundTrip(t, f, new(CTS)).(*CTS)
	if *got != *f {
		t.Errorf("round trip: %+v != %+v", got, f)
	}
	if f.WireLen() != 14 {
		t.Errorf("CTS wire length = %d, want 14", f.WireLen())
	}
}

func TestACKRoundTrip(t *testing.T) {
	f := NewACK(addr(4))
	got := roundTrip(t, f, new(ACK)).(*ACK)
	if *got != *f {
		t.Errorf("round trip: %+v != %+v", got, f)
	}
	if f.WireLen() != 14 {
		t.Errorf("ACK wire length = %d, want 14", f.WireLen())
	}
}

func TestDataRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte{0xab}, 700)
	f := NewData(addr(1), addr(2), addr(3), 77, body)
	f.FC.ToDS = true
	f.FC.Retry = true
	got := roundTrip(t, f, new(Data)).(*Data)
	if got.FC != f.FC || got.Addr1 != f.Addr1 || got.Addr2 != f.Addr2 ||
		got.Addr3 != f.Addr3 || got.Seq != f.Seq || !bytes.Equal(got.Body, body) {
		t.Error("data round trip mismatch")
	}
	if f.WireLen() != 24+700+4 {
		t.Errorf("WireLen = %d", f.WireLen())
	}
	if f.TA() != addr(2) || f.RA() != addr(1) {
		t.Error("TA/RA accessors wrong")
	}
}

func TestDataDecodeErrors(t *testing.T) {
	var d Data
	if err := d.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	// A 24-byte buffer whose frame control says "control frame".
	wrong := make([]byte, 24)
	copy(wrong, NewRTS(addr(1), addr(2), 0).AppendTo(nil))
	if err := d.DecodeFromBytes(wrong); err != ErrWrongType {
		t.Errorf("wrong type: %v", err)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	f := NewBeacon(addr(9), "ietf62", 6, 123456789, 42)
	wire := Encode(f)
	body, err := CheckFCS(wire)
	if err != nil {
		t.Fatal(err)
	}
	var got Beacon
	if err := got.DecodeFromBytes(body); err != nil {
		t.Fatal(err)
	}
	if got.SSID != "ietf62" || got.Channel != 6 || got.Timestamp != 123456789 ||
		got.BeaconInterval != BeaconIntervalTU || got.BSSID != addr(9) {
		t.Errorf("beacon mismatch: %+v", got)
	}
}

// TestBeaconSetReuses checks that Set on a used Beacon yields the frame
// NewBeacon builds, byte for byte, with the body laid out as fixed
// fields then SSID, rates and DS elements, and reuses the body storage.
func TestBeaconSetReuses(t *testing.T) {
	b := NewBeacon(addr(3), "a-longer-ssid", 11, 7, 4095)
	b.Set(addr(9), "ietf62", 6, 123456789, 42)
	want := NewBeacon(addr(9), "ietf62", 6, 123456789, 42)
	if got, w := b.AppendTo(nil), want.AppendTo(nil); !bytes.Equal(got, w) {
		t.Fatalf("reused beacon\n%x\nwant\n%x", got, w)
	}
	body := binary.LittleEndian.AppendUint64(nil, 123456789)
	body = binary.LittleEndian.AppendUint16(body, BeaconIntervalTU)
	body = binary.LittleEndian.AppendUint16(body, 0x0001)
	body = AppendElement(body, ElemSSID, []byte("ietf62"))
	body = AppendElement(body, ElemSupportedRates, []byte{0x82, 0x84, 0x8b, 0x96})
	body = AppendElement(body, ElemDSParameter, []byte{6})
	if !bytes.Equal(want.Body, body) {
		t.Fatalf("beacon body\n%x\nwant\n%x", want.Body, body)
	}
	if n := testing.AllocsPerRun(100, func() { b.Set(addr(9), "ietf62", 6, 1, 2) }); n != 0 {
		t.Errorf("Set on a used beacon allocates %v times", n)
	}
}

func TestBeaconTruncated(t *testing.T) {
	var b Beacon
	m := Management{FC: FrameControl{Type: TypeMgmt, Subtype: SubtypeBeacon}, Body: []byte{1, 2}}
	if err := b.DecodeFromBytes(m.AppendTo(nil)); err != ErrTruncated {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestMgmtFrames(t *testing.T) {
	req := NewAssocReq(addr(1), addr(2), "ssid", 5)
	var got Management
	if err := got.DecodeFromBytes(req.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if got.FC.Subtype != SubtypeAssocReq || got.SA != addr(1) || got.BSSID != addr(2) {
		t.Error("assoc req mismatch")
	}
	resp := NewAssocResp(addr(1), addr(2), 7, 6)
	if resp.FC.Subtype != SubtypeAssocResp {
		t.Error("assoc resp subtype")
	}
	dis := NewDisassoc(addr(1), addr(2), addr(2), 8, 7)
	if dis.FC.Subtype != SubtypeDisassoc {
		t.Error("disassoc subtype")
	}
}

func TestParseElements(t *testing.T) {
	body := AppendElement(nil, ElemSSID, []byte("x"))
	body = AppendElement(body, ElemDSParameter, []byte{11})
	var ids []uint8
	err := ParseElements(body, func(e Element) bool {
		ids = append(ids, e.ID)
		return true
	})
	if err != nil || len(ids) != 2 {
		t.Fatalf("err=%v ids=%v", err, ids)
	}
	// Early stop.
	count := 0
	ParseElements(body, func(Element) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	// Malformed.
	if err := ParseElements([]byte{0, 200, 1}, func(Element) bool { return true }); err != ErrTruncated {
		t.Errorf("malformed: %v", err)
	}
	if err := ParseElements([]byte{5}, func(Element) bool { return true }); err != ErrTruncated {
		t.Errorf("dangling byte: %v", err)
	}
}

func TestParseDispatch(t *testing.T) {
	frames := []Frame{
		NewRTS(addr(1), addr(2), 100),
		NewCTS(addr(1), 50),
		NewACK(addr(1)),
		NewData(addr(1), addr(2), addr(3), 1, []byte("hi")),
		NewBeacon(addr(4), "s", 1, 1, 1),
		NewAssocReq(addr(1), addr(2), "s", 2),
	}
	wantTypes := []string{"*dot11.RTS", "*dot11.CTS", "*dot11.ACK", "*dot11.Data", "*dot11.Beacon", "*dot11.Management"}
	for i, f := range frames {
		p, err := Parse(f.AppendTo(nil))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := typeName(p.Frame); got != wantTypes[i] {
			t.Errorf("frame %d parsed as %s, want %s", i, got, wantTypes[i])
		}
		if p.FC != f.Control() {
			t.Errorf("frame %d FC mismatch", i)
		}
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case *RTS:
		return "*dot11.RTS"
	case *CTS:
		return "*dot11.CTS"
	case *ACK:
		return "*dot11.ACK"
	case *Beacon:
		return "*dot11.Beacon"
	case *Data:
		return "*dot11.Data"
	case *Management:
		return "*dot11.Management"
	}
	return "?"
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte{1}); err != ErrTruncated {
		t.Errorf("1 byte: %v", err)
	}
	// Version 1 frame.
	if _, err := Parse([]byte{0x01, 0x00, 0, 0}); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
	// Reserved control subtype 0.
	if _, err := Parse([]byte{0x04, 0x00, 0, 0}); err != ErrWrongType {
		t.Errorf("reserved ctrl subtype: %v", err)
	}
}

func TestTransmitterReceiverOf(t *testing.T) {
	d := NewData(addr(1), addr(2), addr(3), 0, nil)
	if ta, ok := TransmitterOf(d); !ok || ta != addr(2) {
		t.Error("data TA")
	}
	if ReceiverOf(d) != addr(1) {
		t.Error("data RA")
	}
	r := NewRTS(addr(1), addr(2), 0)
	if ta, ok := TransmitterOf(r); !ok || ta != addr(2) {
		t.Error("rts TA")
	}
	a := NewACK(addr(1))
	if _, ok := TransmitterOf(a); ok {
		t.Error("ACK has no transmitter address")
	}
	c := NewCTS(addr(1), 0)
	if _, ok := TransmitterOf(c); ok {
		t.Error("CTS has no transmitter address")
	}
	if ReceiverOf(a) != addr(1) || ReceiverOf(c) != addr(1) {
		t.Error("ctrl RA")
	}
	b := NewBeacon(addr(5), "s", 1, 0, 0)
	if ta, ok := TransmitterOf(b); !ok || ta != addr(5) {
		t.Error("beacon TA")
	}
	if ReceiverOf(b) != Broadcast {
		t.Error("beacon RA must be broadcast")
	}
}

func TestNAV(t *testing.T) {
	// Data NAV: SIFS + ACK@1Mbps = 10+304 = 314.
	if got := NAVForData(addr(1), phy.ControlRate); got != 314 {
		t.Errorf("NAVForData = %d, want 314", got)
	}
	if got := NAVForData(Broadcast, phy.ControlRate); got != 0 {
		t.Errorf("broadcast NAV = %d, want 0", got)
	}
	// RTS NAV for 1000B at 11 Mbps: 3*10 + 304 + (192+ceil(8000/11)) + 304.
	want := uint16(30 + 304 + 192 + 728 + 304)
	if got := NAVForRTS(1000, phy.Rate11Mbps); got != want {
		t.Errorf("NAVForRTS = %d, want %d", got, want)
	}
	// CTS NAV is RTS NAV minus SIFS+CTS.
	if got := NAVForCTS(want); got != want-10-304 {
		t.Errorf("NAVForCTS = %d", got)
	}
	if got := NAVForCTS(5); got != 0 {
		t.Errorf("NAVForCTS underflow = %d, want 0", got)
	}
	// Huge frame at 1 Mbps saturates the 16-bit field.
	if got := NAVForRTS(20000, phy.Rate1Mbps); got != 0xffff {
		t.Errorf("NAV must saturate, got %d", got)
	}
}

func TestParseSnapTruncatedData(t *testing.T) {
	// The paper captured 250-byte snapshots; a 1400-byte data frame
	// truncated to 250 bytes must still parse its header.
	f := NewData(addr(1), addr(2), addr(3), 9, bytes.Repeat([]byte{1}, 1400))
	wire := f.AppendTo(nil)[:250]
	p, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Frame.(*Data)
	if d.Seq.Num != 9 || len(d.Body) != 250-24 {
		t.Errorf("truncated parse: seq=%d len=%d", d.Seq.Num, len(d.Body))
	}
}

// TestParseNeverPanics throws random bytes at the parser: it must
// return an error or a frame, never panic — a sniffer feeds it
// whatever the air delivered.
func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %x: %v", data, r)
			}
		}()
		p, err := Parse(data)
		if err == nil && p.Frame == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodersNeverPanic drives each frame decoder over random bytes.
func TestDecodersNeverPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked: %v", r)
			}
		}()
		_ = new(RTS).DecodeFromBytes(data)
		_ = new(CTS).DecodeFromBytes(data)
		_ = new(ACK).DecodeFromBytes(data)
		_ = new(Data).DecodeFromBytes(data)
		_ = new(Management).DecodeFromBytes(data)
		_ = new(Beacon).DecodeFromBytes(data)
		_ = ParseElements(data, func(Element) bool { return true })
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestEncodedFramesRoundTripThroughParse is the closure property: any
// frame this package encodes, Parse decodes to the same frame type and
// addresses.
func TestEncodedFramesRoundTripThroughParse(t *testing.T) {
	f := func(a, b uint64, dur uint16, n uint16) bool {
		aa, bb := AddrFromUint64(a), AddrFromUint64(b)
		frames := []Frame{
			NewRTS(aa, bb, dur),
			NewCTS(aa, dur),
			NewACK(aa),
			NewData(aa, bb, aa, n, make([]byte, int(n%1500))),
			NewBeacon(aa, "x", 6, uint64(dur), n),
		}
		for _, fr := range frames {
			p, err := Parse(fr.AppendTo(nil))
			if err != nil {
				return false
			}
			if p.FC != fr.Control() {
				return false
			}
			if ReceiverOf(p.Frame) != ReceiverOf(fr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// parserFrames is one encoded frame of every type Parse dispatches to.
func parserFrames() [][]byte {
	var out [][]byte
	for _, f := range []Frame{
		NewRTS(addr(1), addr(2), 100),
		NewCTS(addr(1), 50),
		NewACK(addr(1)),
		NewData(addr(1), addr(2), addr(3), 1, []byte("hi")),
		NewBeacon(addr(4), "ssid", 6, 1, 1),
		NewAssocReq(addr(1), addr(2), "s", 2),
	} {
		out = append(out, f.AppendTo(nil))
	}
	return out
}

// TestParserAllocs parses the same frames again and again, so the
// beacon's SSID repeats and its string is reused; a beacon whose SSID
// differs from the previous one costs one allocation.
func TestParserAllocs(t *testing.T) {
	var p Parser
	frames := parserFrames()
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range frames {
			if _, err := p.Parse(b); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Parser.Parse: %v allocs per %d frames, want 0", n, len(frames))
	}
}

// TestParserMatchesParse: one Parser reused over a mixed sequence of
// valid, truncated and random frames returns what a fresh Parse does
// for each, so no field of an earlier frame leaks into a later one.
func TestParserMatchesParse(t *testing.T) {
	var p Parser
	valid := parserFrames()
	f := func(picks []uint8, noise [][]byte) bool {
		for i, k := range picks {
			var b []byte
			switch {
			case int(k)%8 < len(valid):
				b = valid[int(k)%8]
				if k >= 128 {
					b = b[:int(k)%len(b)]
				}
			case i < len(noise):
				b = noise[i]
			}
			got, gerr := p.Parse(b)
			want, werr := Parse(b)
			if gerr != werr || got.FC != want.FC || !reflect.DeepEqual(got.Frame, want.Frame) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
