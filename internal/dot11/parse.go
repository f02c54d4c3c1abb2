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
// the frame-control word, decoded once here and passed to the frame's
// decode. Snap-length truncated frames parse as long
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
	var err error
	switch fc.Type {
	case TypeCtrl:
		switch fc.Subtype {
		case SubtypeRTS:
			f, err = &p.rts, p.rts.decode(fc, data)
		case SubtypeCTS:
			f, err = &p.cts, p.cts.decode(fc, data)
		case SubtypeACK:
			f, err = &p.ack, p.ack.decode(fc, data)
		default:
			return Parsed{}, ErrWrongType
		}
	case TypeData:
		f, err = &p.data, p.data.decode(fc, data)
	case TypeMgmt:
		if fc.Subtype == SubtypeBeacon {
			f, err = &p.beacon, p.beacon.decode(fc, data)
		} else {
			f, err = &p.mgmt, p.mgmt.decode(fc, data)
		}
	default:
		return Parsed{}, ErrWrongType
	}
	if err != nil {
		return Parsed{}, err
	}
	return Parsed{FC: fc, Frame: f}, nil
}

// frameControlOf decodes data's frame-control word for a frame's
// DecodeFromBytes, which passes it to the frame's decode; data shorter
// than the word yields the zero word, which every decode then rejects
// as truncated (every frame is longer than two bytes).
func frameControlOf(data []byte) FrameControl {
	if len(data) < 2 {
		return FrameControl{}
	}
	return FrameControlFromUint16(binary.LittleEndian.Uint16(data))
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
