package radiotap

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"wlan80211/internal/phy"
)

func fullHeader() *Header {
	return &Header{
		TSFT: 123456789, HaveTSFT: true,
		Flags: FlagFCSAtEnd, HaveFlags: true,
		Rate: phy.Rate11Mbps, HaveRate: true,
		Channel: phy.Channel6, HaveChannel: true,
		SignalDBm: -55, HaveSignal: true,
		NoiseDBm: -96, HaveNoise: true,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := fullHeader()
	b := h.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.TSFT != h.TSFT || !got.HaveTSFT {
		t.Errorf("TSFT: %+v", got)
	}
	if got.Flags != h.Flags || !got.HaveFlags {
		t.Errorf("Flags: %+v", got)
	}
	if got.Rate != phy.Rate11Mbps || !got.HaveRate {
		t.Errorf("Rate: %+v", got)
	}
	if got.Channel != phy.Channel6 || !got.HaveChannel {
		t.Errorf("Channel: %+v", got)
	}
	if got.SignalDBm != -55 || got.NoiseDBm != -96 {
		t.Errorf("signal/noise: %+v", got)
	}
	if got.Length != len(b) {
		t.Errorf("Length = %d, want %d", got.Length, len(b))
	}
}

func TestSNR(t *testing.T) {
	h := fullHeader()
	snr, ok := h.SNR()
	if !ok || snr != 41 {
		t.Errorf("SNR = %v, %v; want 41, true", snr, ok)
	}
	h.HaveNoise = false
	if _, ok := h.SNR(); ok {
		t.Error("SNR without noise must report false")
	}
}

func TestBadFCSFlag(t *testing.T) {
	h := &Header{Flags: FlagBadFCS, HaveFlags: true}
	if !h.BadFCS() {
		t.Error("BadFCS must be true")
	}
	h.Flags = FlagFCSAtEnd
	if h.BadFCS() {
		t.Error("BadFCS must be false")
	}
	h.HaveFlags = false
	if h.BadFCS() {
		t.Error("BadFCS without flags must be false")
	}
}

func TestPartialHeaders(t *testing.T) {
	// Rate-only header (no 8-byte alignment padding needed).
	h := &Header{Rate: phy.Rate5_5Mbps, HaveRate: true}
	got, err := Decode(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.HaveRate || got.Rate != phy.Rate5_5Mbps {
		t.Errorf("rate: %+v", got)
	}
	if got.HaveTSFT || got.HaveChannel || got.HaveSignal {
		t.Error("absent fields must stay absent")
	}
	// Channel-only header exercises the 2-byte alignment path.
	h = &Header{Channel: phy.Channel11, HaveChannel: true}
	got, err = Decode(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Channel != phy.Channel11 {
		t.Errorf("channel: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0, 0, 8}); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	if _, err := Decode([]byte{1, 0, 8, 0, 0, 0, 0, 0}); err != ErrVersion {
		t.Errorf("version: %v", err)
	}
	// Declared length longer than data.
	b := fullHeader().Encode()
	binary.LittleEndian.PutUint16(b[2:], uint16(len(b)+10))
	if _, err := Decode(b); err != ErrTruncated {
		t.Errorf("overlong: %v", err)
	}
	// Declared length shorter than the present words claim.
	h := fullHeader()
	b = h.Encode()
	binary.LittleEndian.PutUint16(b[2:], 9)
	if _, err := Decode(b[:9]); err != ErrTruncated {
		t.Errorf("fields past length: %v", err)
	}
}

func TestDecodeExtendedPresent(t *testing.T) {
	// Build a header with an extended present word (bit 31 chained) and
	// one unknown field in the second word; the decoder must skip it.
	b := make([]byte, 14)
	binary.LittleEndian.PutUint16(b[2:], uint16(len(b)))
	binary.LittleEndian.PutUint32(b[4:], 1<<bitExt|1<<bitRate)
	binary.LittleEndian.PutUint32(b[8:], 1<<bitFlags) // second word: ignored
	b[12] = phy.Rate2Mbps.RadiotapRate()              // first-word rate field
	b[13] = 0xff                                      // second-word (ignored) field
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HaveRate || got.Rate != phy.Rate2Mbps {
		t.Errorf("rate after ext word: %+v", got)
	}
	if got.HaveFlags {
		t.Error("second-word fields must not be interpreted")
	}
}

func TestDecodeSkipsUnknownFields(t *testing.T) {
	// Present: antenna (bit 12, size 1) then signal (bit 5).
	// Signal comes first in bit order.
	b := make([]byte, 10)
	binary.LittleEndian.PutUint16(b[2:], uint16(len(b)))
	binary.LittleEndian.PutUint32(b[4:], 1<<bitAntennaSignal|1<<12)
	sig := int8(-40)
	b[8] = byte(sig) // signal
	b[9] = 1         // antenna number (skipped)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HaveSignal || got.SignalDBm != -40 {
		t.Errorf("signal: %+v", got)
	}
}

func TestEncodeAlignment(t *testing.T) {
	// TSFT must land on an 8-byte boundary; with version+len+present
	// occupying 8 bytes it starts at 8 naturally. Channel after
	// flags+rate (2 bytes) must be 2-aligned.
	h := fullHeader()
	b := h.Encode()
	if got := binary.LittleEndian.Uint64(b[8:]); got != h.TSFT {
		t.Errorf("TSFT at offset 8 = %d", got)
	}
	// flags at 16, rate at 17, channel at 18 (already even).
	if b[16] != h.Flags {
		t.Error("flags offset")
	}
	if b[17] != h.Rate.RadiotapRate() {
		t.Error("rate offset")
	}
	if got := binary.LittleEndian.Uint16(b[18:]); got != uint16(phy.Channel6.FreqMHz()) {
		t.Errorf("channel freq = %d", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(tsft uint64, flags uint8, ri uint8, ci uint8, sig, noise int8) bool {
		h := &Header{
			TSFT: tsft, HaveTSFT: true,
			Flags: flags, HaveFlags: true,
			Rate: phy.Rates[int(ri)%4], HaveRate: true,
			Channel: phy.OrthogonalChannels[int(ci)%3], HaveChannel: true,
			SignalDBm: sig, HaveSignal: true,
			NoiseDBm: noise, HaveNoise: true,
		}
		got, err := Decode(h.Encode())
		if err != nil {
			return false
		}
		return got.TSFT == tsft && got.Flags == flags &&
			got.Rate == h.Rate && got.Channel == h.Channel &&
			got.SignalDBm == sig && got.NoiseDBm == noise
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanics: arbitrary bytes must error, not panic.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked: %v", r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeAllocs(t *testing.T) {
	b := fullHeader().Encode()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decode: %v allocs/op, want 0", n)
	}
}

// decodeRef is the decoder that collected the present words into a
// slice before walking them, kept as the reference Decode must match.
func decodeRef(data []byte) (Header, error) {
	if len(data) < 8 {
		return Header{}, ErrTruncated
	}
	if data[0] != 0 {
		return Header{}, ErrVersion
	}
	length := int(binary.LittleEndian.Uint16(data[2:]))
	if length < 8 || length > len(data) {
		return Header{}, ErrTruncated
	}
	var words []uint32
	off := 4
	for {
		if off+4 > length {
			return Header{}, ErrTruncated
		}
		w := binary.LittleEndian.Uint32(data[off:])
		words = append(words, w)
		off += 4
		if w&(1<<bitExt) == 0 {
			break
		}
	}
	h := Header{Length: length}
	for wi, w := range words {
		for bit := 0; bit < 31; bit++ {
			if w&(1<<bit) == 0 {
				continue
			}
			size, al := fieldSizeAlign(bit)
			off = align(off, al)
			if off+size > length {
				return Header{}, ErrTruncated
			}
			if wi == 0 {
				switch bit {
				case bitTSFT:
					h.TSFT, h.HaveTSFT = binary.LittleEndian.Uint64(data[off:]), true
				case bitFlags:
					h.Flags, h.HaveFlags = data[off], true
				case bitRate:
					if r, ok := phy.RateFromRadiotap(data[off]); ok {
						h.Rate, h.HaveRate = r, true
					}
				case bitChannel:
					if c, ok := phy.ChannelFromFreq(int(binary.LittleEndian.Uint16(data[off:]))); ok {
						h.Channel, h.HaveChannel = c, true
					}
				case bitAntennaSignal:
					h.SignalDBm, h.HaveSignal = int8(data[off]), true
				case bitAntennaNoise:
					h.NoiseDBm, h.HaveNoise = int8(data[off]), true
				}
			}
			off += size
		}
	}
	return h, nil
}

// TestDecodeMatchesReference: for version-0 headers with arbitrary
// present words, lengths and field bytes, Decode returns the
// reference decoder's header and error.
func TestDecodeMatchesReference(t *testing.T) {
	f := func(words [3]uint32, nwords uint8, length uint8, body [48]byte) bool {
		b := make([]byte, 0, 8+len(body))
		b = append(b, 0, 0, 0, 0)
		for i := 0; i <= int(nwords%3); i++ {
			w := words[i] &^ (1 << bitExt)
			if i < int(nwords%3) {
				w |= 1 << bitExt
			}
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		b = append(b, body[:]...)
		binary.LittleEndian.PutUint16(b[2:], uint16(int(length)%len(b)))
		got, gerr := Decode(b)
		want, werr := decodeRef(b)
		return got == want && gerr == werr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	full := fullHeader().Encode()
	got, gerr := Decode(full)
	want, werr := decodeRef(full)
	if got != want || gerr != werr {
		t.Errorf("full header: %+v, %v; reference %+v, %v", got, gerr, want, werr)
	}
}
