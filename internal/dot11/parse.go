package dot11

import "encoding/binary"

// Parsed is the result of Parse: the frame-control word plus the
// decoded frame, one of *RTS, *CTS, *ACK, *Data, *Beacon, or
// *Management.
type Parsed struct {
	FC    FrameControl
	Frame Frame
}

// Parser decodes frames into values it owns, so a long-lived Parser
// parses without allocating. The frame in a returned Parsed is
// overwritten by the Parser's next Parse; a caller that keeps it
// past that must copy it.
type Parser struct {
	rts    RTS
	cts    CTS
	ack    ACK
	data   Data
	beacon Beacon
	mgmt   Management
}

// Parse decodes an 802.11 MAC frame (without FCS) by dispatching on
// the frame-control word. Snap-length truncated frames parse as long
// as the fixed header survives (the paper captured only 250 bytes per
// frame; Sec 4.2).
func (p *Parser) Parse(data []byte) (Parsed, error) {
	if len(data) < 2 {
		return Parsed{}, ErrTruncated
	}
	fc := FrameControlFromUint16(binary.LittleEndian.Uint16(data))
	if fc.Version != 0 {
		return Parsed{}, ErrBadVersion
	}
	var f Frame
	switch fc.Type {
	case TypeCtrl:
		switch fc.Subtype {
		case SubtypeRTS:
			f = &p.rts
		case SubtypeCTS:
			f = &p.cts
		case SubtypeACK:
			f = &p.ack
		default:
			return Parsed{}, ErrWrongType
		}
	case TypeData:
		f = &p.data
	case TypeMgmt:
		if fc.Subtype == SubtypeBeacon {
			f = &p.beacon
		} else {
			f = &p.mgmt
		}
	default:
		return Parsed{}, ErrWrongType
	}
	if err := f.DecodeFromBytes(data); err != nil {
		return Parsed{}, err
	}
	return Parsed{FC: fc, Frame: f}, nil
}

// Parse decodes one frame with a fresh Parser, so the returned frame
// is the caller's to keep.
func Parse(data []byte) (Parsed, error) { return new(Parser).Parse(data) }

// Encode serializes a frame and appends its FCS, producing the
// complete over-the-air MAC frame.
func Encode(f Frame) []byte {
	return AppendFCS(f.AppendTo(make([]byte, 0, f.WireLen())))
}

// TransmitterOf returns the transmitter address of a parsed frame and
// whether it has one (CTS and ACK frames carry no transmitter
// address — a fact the paper's atomicity-based estimators exploit in
// reverse, inferring the transmitter from the preceding frame).
func TransmitterOf(f Frame) (Addr, bool) {
	switch t := f.(type) {
	case *RTS:
		return t.TA, true
	case *Data:
		return t.Addr2, true
	case *Management:
		return t.SA, true
	case *Beacon:
		return t.SA, true
	}
	return Addr{}, false
}

// ReceiverOf returns the receiver address of a parsed frame.
func ReceiverOf(f Frame) Addr {
	switch t := f.(type) {
	case *RTS:
		return t.RA
	case *CTS:
		return t.RA
	case *ACK:
		return t.RA
	case *Data:
		return t.Addr1
	case *Management:
		return t.DA
	case *Beacon:
		return t.DA
	}
	return Addr{}
}
