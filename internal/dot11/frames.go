package dot11

import (
	"encoding/binary"

	"wlan80211/internal/phy"
)

// Frame is the interface implemented by every decodable 802.11 frame
// type in this package.
type Frame interface {
	// Control returns the frame-control word.
	Control() FrameControl
	// AppendTo appends the encoded frame (without FCS) to b and
	// returns the extended slice.
	AppendTo(b []byte) []byte
	// DecodeFromBytes parses the frame (without FCS) from data.
	DecodeFromBytes(data []byte) error
	// WireLen returns the encoded length in bytes including the
	// 4-byte FCS — the "frame size" the paper's size classes and
	// airtime computations use.
	WireLen() int
}

// --- Control frames -------------------------------------------------

// RTS is a Request-To-Send control frame (20 bytes on the wire).
type RTS struct {
	FC       FrameControl
	Duration uint16 // NAV: µs remaining after this frame
	RA       Addr   // receiver
	TA       Addr   // transmitter
}

// NewRTS builds an RTS addressed from ta to ra with the given NAV.
func NewRTS(ra, ta Addr, duration uint16) *RTS {
	return &RTS{FC: FrameControl{Type: TypeCtrl, Subtype: SubtypeRTS}, Duration: duration, RA: ra, TA: ta}
}

// Control implements Frame.
func (f *RTS) Control() FrameControl { return f.FC }

// WireLen implements Frame: 2+2+6+6 + FCS = 20.
func (f *RTS) WireLen() int { return 20 }

// AppendTo implements Frame.
func (f *RTS) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, f.FC.Uint16())
	b = binary.LittleEndian.AppendUint16(b, f.Duration)
	b = append(b, f.RA[:]...)
	return append(b, f.TA[:]...)
}

// DecodeFromBytes implements Frame.
func (f *RTS) DecodeFromBytes(data []byte) error { return f.decode(frameControlOf(data), data) }

// decode is DecodeFromBytes given data's frame-control word.
func (f *RTS) decode(fc FrameControl, data []byte) error {
	if len(data) < 16 {
		return ErrTruncated
	}
	f.FC = fc
	if f.FC.Type != TypeCtrl || f.FC.Subtype != SubtypeRTS {
		return ErrWrongType
	}
	f.Duration = binary.LittleEndian.Uint16(data[2:])
	copy(f.RA[:], data[4:10])
	copy(f.TA[:], data[10:16])
	return nil
}

// CTS is a Clear-To-Send control frame (14 bytes on the wire).
type CTS struct {
	FC       FrameControl
	Duration uint16
	RA       Addr
}

// NewCTS builds a CTS addressed to ra with the given NAV.
func NewCTS(ra Addr, duration uint16) *CTS {
	return &CTS{FC: FrameControl{Type: TypeCtrl, Subtype: SubtypeCTS}, Duration: duration, RA: ra}
}

// Control implements Frame.
func (f *CTS) Control() FrameControl { return f.FC }

// WireLen implements Frame: 2+2+6 + FCS = 14.
func (f *CTS) WireLen() int { return 14 }

// AppendTo implements Frame.
func (f *CTS) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, f.FC.Uint16())
	b = binary.LittleEndian.AppendUint16(b, f.Duration)
	return append(b, f.RA[:]...)
}

// DecodeFromBytes implements Frame.
func (f *CTS) DecodeFromBytes(data []byte) error { return f.decode(frameControlOf(data), data) }

// decode is DecodeFromBytes given data's frame-control word.
func (f *CTS) decode(fc FrameControl, data []byte) error {
	if len(data) < 10 {
		return ErrTruncated
	}
	f.FC = fc
	if f.FC.Type != TypeCtrl || f.FC.Subtype != SubtypeCTS {
		return ErrWrongType
	}
	f.Duration = binary.LittleEndian.Uint16(data[2:])
	copy(f.RA[:], data[4:10])
	return nil
}

// ACK is an acknowledgment control frame (14 bytes on the wire).
type ACK struct {
	FC       FrameControl
	Duration uint16
	RA       Addr
}

// NewACK builds an ACK addressed to ra.
func NewACK(ra Addr) *ACK {
	return &ACK{FC: FrameControl{Type: TypeCtrl, Subtype: SubtypeACK}, RA: ra}
}

// Control implements Frame.
func (f *ACK) Control() FrameControl { return f.FC }

// WireLen implements Frame: 14.
func (f *ACK) WireLen() int { return 14 }

// AppendTo implements Frame.
func (f *ACK) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, f.FC.Uint16())
	b = binary.LittleEndian.AppendUint16(b, f.Duration)
	return append(b, f.RA[:]...)
}

// DecodeFromBytes implements Frame.
func (f *ACK) DecodeFromBytes(data []byte) error { return f.decode(frameControlOf(data), data) }

// decode is DecodeFromBytes given data's frame-control word.
func (f *ACK) decode(fc FrameControl, data []byte) error {
	if len(data) < 10 {
		return ErrTruncated
	}
	f.FC = fc
	if f.FC.Type != TypeCtrl || f.FC.Subtype != SubtypeACK {
		return ErrWrongType
	}
	f.Duration = binary.LittleEndian.Uint16(data[2:])
	copy(f.RA[:], data[4:10])
	return nil
}

// --- Data frames ----------------------------------------------------

// Data is an 802.11 data frame. Address semantics depend on the DS
// bits; for the infrastructure traffic this reproduction generates:
//
//	ToDS=1:  Addr1=BSSID, Addr2=SA (client), Addr3=DA
//	FromDS=1: Addr1=DA (client), Addr2=BSSID, Addr3=SA
type Data struct {
	FC       FrameControl
	Duration uint16
	Addr1    Addr
	Addr2    Addr
	Addr3    Addr
	Seq      SeqControl
	Body     []byte
}

// SeqControl is the 16-bit sequence control field: a 12-bit sequence
// number and 4-bit fragment number.
type SeqControl struct {
	Frag uint8  // 0..15
	Num  uint16 // 0..4095
}

// Uint16 packs the sequence-control field.
func (s SeqControl) Uint16() uint16 { return uint16(s.Frag&0xf) | s.Num<<4 }

// SeqControlFromUint16 unpacks a wire sequence-control field.
func SeqControlFromUint16(v uint16) SeqControl {
	return SeqControl{Frag: uint8(v & 0xf), Num: v >> 4}
}

// DataHeaderLen is the length of a (non-QoS, 3-address) data frame MAC
// header in bytes.
const DataHeaderLen = 24

// NewData builds a unicast data frame carrying body.
func NewData(a1, a2, a3 Addr, seq uint16, body []byte) *Data {
	return &Data{
		FC:    FrameControl{Type: TypeData, Subtype: SubtypeData},
		Addr1: a1, Addr2: a2, Addr3: a3,
		Seq:  SeqControl{Num: seq & 0xfff},
		Body: body,
	}
}

// Control implements Frame.
func (f *Data) Control() FrameControl { return f.FC }

// WireLen implements Frame: 24-byte header + body + 4-byte FCS.
func (f *Data) WireLen() int { return DataHeaderLen + len(f.Body) + 4 }

// TA returns the transmitter address (Addr2).
func (f *Data) TA() Addr { return f.Addr2 }

// RA returns the receiver address (Addr1).
func (f *Data) RA() Addr { return f.Addr1 }

// AppendTo implements Frame.
func (f *Data) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, f.FC.Uint16())
	b = binary.LittleEndian.AppendUint16(b, f.Duration)
	b = append(b, f.Addr1[:]...)
	b = append(b, f.Addr2[:]...)
	b = append(b, f.Addr3[:]...)
	b = binary.LittleEndian.AppendUint16(b, f.Seq.Uint16())
	return append(b, f.Body...)
}

// DecodeFromBytes implements Frame. The body slice aliases data.
func (f *Data) DecodeFromBytes(data []byte) error { return f.decode(frameControlOf(data), data) }

// decode is DecodeFromBytes given data's frame-control word.
func (f *Data) decode(fc FrameControl, data []byte) error {
	if len(data) < DataHeaderLen {
		return ErrTruncated
	}
	f.FC = fc
	if f.FC.Type != TypeData {
		return ErrWrongType
	}
	f.Duration = binary.LittleEndian.Uint16(data[2:])
	copy(f.Addr1[:], data[4:10])
	copy(f.Addr2[:], data[10:16])
	copy(f.Addr3[:], data[16:22])
	f.Seq = SeqControlFromUint16(binary.LittleEndian.Uint16(data[22:24]))
	f.Body = data[DataHeaderLen:]
	return nil
}

// --- NAV helpers ----------------------------------------------------

// NAVForData returns the Duration value for a data frame: the time for
// the following SIFS + ACK exchange. Group-addressed frames carry 0.
func NAVForData(ra Addr, ackRate phy.Rate) uint16 {
	if ra.IsGroup() {
		return 0
	}
	return uint16(phy.SIFS + phy.AckDuration(ackRate))
}

// NAVForRTS returns the Duration value for an RTS protecting a data
// frame of dataBytes at dataRate: 3*SIFS + CTS + DATA + ACK.
func NAVForRTS(dataBytes int, dataRate phy.Rate) uint16 {
	nav := 3*phy.SIFS +
		phy.CtsDuration(phy.ControlRate) +
		phy.Airtime(dataBytes, dataRate) +
		phy.AckDuration(phy.ControlRate)
	if nav > 0xffff {
		nav = 0xffff
	}
	return uint16(nav)
}

// NAVForCTS derives a CTS Duration from the soliciting RTS Duration:
// the RTS NAV minus SIFS and the CTS airtime.
func NAVForCTS(rtsDuration uint16) uint16 {
	d := int64(rtsDuration) - int64(phy.SIFS) - int64(phy.CtsDuration(phy.ControlRate))
	if d < 0 {
		d = 0
	}
	return uint16(d)
}
