package dot11

import (
	"encoding/binary"
)

// MgmtHeaderLen is the management frame MAC header length (same layout
// as a data frame header).
const MgmtHeaderLen = 24

// Management is the generic 802.11 management frame: the 24-byte
// header shared by all management subtypes plus a subtype-specific
// fixed part and a list of information elements.
type Management struct {
	FC       FrameControl
	Duration uint16
	DA       Addr // Addr1
	SA       Addr // Addr2
	BSSID    Addr // Addr3
	Seq      SeqControl
	Body     []byte // fixed fields + information elements
}

// Control implements Frame.
func (f *Management) Control() FrameControl { return f.FC }

// WireLen implements Frame.
func (f *Management) WireLen() int { return MgmtHeaderLen + len(f.Body) + 4 }

// AppendTo implements Frame.
func (f *Management) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, f.FC.Uint16())
	b = binary.LittleEndian.AppendUint16(b, f.Duration)
	b = append(b, f.DA[:]...)
	b = append(b, f.SA[:]...)
	b = append(b, f.BSSID[:]...)
	b = binary.LittleEndian.AppendUint16(b, f.Seq.Uint16())
	return append(b, f.Body...)
}

// DecodeFromBytes implements Frame. Body aliases data.
func (f *Management) DecodeFromBytes(data []byte) error {
	return f.decode(frameControlOf(data), data)
}

// decode is DecodeFromBytes given data's frame-control word.
func (f *Management) decode(fc FrameControl, data []byte) error {
	if len(data) < MgmtHeaderLen {
		return ErrTruncated
	}
	f.FC = fc
	if f.FC.Type != TypeMgmt {
		return ErrWrongType
	}
	f.Duration = binary.LittleEndian.Uint16(data[2:])
	copy(f.DA[:], data[4:10])
	copy(f.SA[:], data[10:16])
	copy(f.BSSID[:], data[16:22])
	f.Seq = SeqControlFromUint16(binary.LittleEndian.Uint16(data[22:24]))
	f.Body = data[MgmtHeaderLen:]
	return nil
}

// Information element IDs used by this reproduction.
const (
	ElemSSID           uint8 = 0
	ElemSupportedRates uint8 = 1
	ElemDSParameter    uint8 = 3
)

// Element is a type-length-value information element.
type Element struct {
	ID   uint8
	Data []byte
}

// AppendElement appends a TLV information element to b.
func AppendElement(b []byte, id uint8, data []byte) []byte {
	b = append(b, id, uint8(len(data)))
	return append(b, data...)
}

// ParseElements walks the information elements in body, calling fn for
// each. It stops early if fn returns false, and returns ErrTruncated
// on a malformed TLV.
func ParseElements(body []byte, fn func(Element) bool) error {
	for len(body) > 0 {
		if len(body) < 2 {
			return ErrTruncated
		}
		id, n := body[0], int(body[1])
		if len(body) < 2+n {
			return ErrTruncated
		}
		if !fn(Element{ID: id, Data: body[2 : 2+n]}) {
			return nil
		}
		body = body[2+n:]
	}
	return nil
}

// Beacon is a parsed beacon management frame. APs transmit beacons at
// ~100 ms intervals (Sec 5.1 of the paper; Equation 6 charges each one
// DIFS + DBEACON of channel busy-time).
type Beacon struct {
	Management
	Timestamp      uint64 // TSF timestamp, µs
	BeaconInterval uint16 // in 1024 µs time units
	Capability     uint16
	SSID           string
	Channel        uint8 // from the DS Parameter Set element
}

// BeaconIntervalTU is the standard 100-TU (102.4 ms) beacon interval.
const BeaconIntervalTU = 100

// NewBeacon builds a beacon for the given BSS.
func NewBeacon(bssid Addr, ssid string, channel uint8, timestamp uint64, seq uint16) *Beacon {
	b := new(Beacon)
	b.Set(bssid, ssid, channel, timestamp, seq)
	return b
}

// Set makes f the beacon NewBeacon builds from the same arguments. It
// encodes the body into f.Body's storage when that is large enough, so
// a transmitter that reuses one Beacon per emission does not allocate;
// f.Body must not alias bytes the caller still reads, as it does after
// DecodeFromBytes.
func (f *Beacon) Set(bssid Addr, ssid string, channel uint8, timestamp uint64, seq uint16) {
	body := f.Body[:0]
	if n := 12 + 2 + len(ssid) + 2 + 4 + 3; cap(body) < n {
		body = make([]byte, 0, n)
	}
	*f = Beacon{
		Management: Management{
			FC:    FrameControl{Type: TypeMgmt, Subtype: SubtypeBeacon},
			DA:    Broadcast,
			SA:    bssid,
			BSSID: bssid,
			Seq:   SeqControl{Num: seq & 0xfff},
		},
		Timestamp:      timestamp,
		BeaconInterval: BeaconIntervalTU,
		Capability:     0x0001, // ESS
		SSID:           ssid,
		Channel:        channel,
	}
	body = binary.LittleEndian.AppendUint64(body, f.Timestamp)
	body = binary.LittleEndian.AppendUint16(body, f.BeaconInterval)
	body = binary.LittleEndian.AppendUint16(body, f.Capability)
	body = append(body, ElemSSID, uint8(len(ssid)))
	body = append(body, ssid...)
	body = append(body, ElemSupportedRates, 4, 0x82, 0x84, 0x8b, 0x96) // 1,2,5.5,11 basic
	f.Body = append(body, ElemDSParameter, 1, channel)
}

// DecodeFromBytes parses a beacon from a full management frame.
func (f *Beacon) DecodeFromBytes(data []byte) error { return f.decode(frameControlOf(data), data) }

// decode is DecodeFromBytes given data's frame-control word.
func (f *Beacon) decode(fc FrameControl, data []byte) error {
	if err := f.Management.decode(fc, data); err != nil {
		return err
	}
	if f.FC.Subtype != SubtypeBeacon {
		return ErrWrongType
	}
	if len(f.Body) < 12 {
		return ErrTruncated
	}
	f.Timestamp = binary.LittleEndian.Uint64(f.Body)
	f.BeaconInterval = binary.LittleEndian.Uint16(f.Body[8:])
	f.Capability = binary.LittleEndian.Uint16(f.Body[10:])
	last := f.SSID
	f.SSID, f.Channel = "", 0
	return ParseElements(f.Body[12:], func(e Element) bool {
		switch e.ID {
		case ElemSSID:
			// A Beacon decoded into again keeps the previous
			// decode's string when the SSID repeats, as it does
			// for consecutive beacons of one network; a different
			// SSID allocates a new string.
			if f.SSID = last; string(e.Data) != last {
				f.SSID = string(e.Data)
			}
		case ElemDSParameter:
			if len(e.Data) == 1 {
				f.Channel = e.Data[0]
			}
		}
		return true
	})
}

// NewAssocReq builds a minimal association request from sa to bssid.
func NewAssocReq(sa, bssid Addr, ssid string, seq uint16) *Management {
	body := make([]byte, 0, 4+2+len(ssid))
	body = binary.LittleEndian.AppendUint16(body, 0x0001) // capability
	body = binary.LittleEndian.AppendUint16(body, 10)     // listen interval
	body = AppendElement(body, ElemSSID, []byte(ssid))
	return &Management{
		FC: FrameControl{Type: TypeMgmt, Subtype: SubtypeAssocReq},
		DA: bssid, SA: sa, BSSID: bssid,
		Seq:  SeqControl{Num: seq & 0xfff},
		Body: body,
	}
}

// NewAssocResp builds a minimal association response.
func NewAssocResp(da, bssid Addr, aid uint16, seq uint16) *Management {
	body := make([]byte, 0, 6)
	body = binary.LittleEndian.AppendUint16(body, 0x0001) // capability
	body = binary.LittleEndian.AppendUint16(body, 0)      // status: success
	body = binary.LittleEndian.AppendUint16(body, aid|0xc000)
	return &Management{
		FC: FrameControl{Type: TypeMgmt, Subtype: SubtypeAssocResp},
		DA: da, SA: bssid, BSSID: bssid,
		Seq:  SeqControl{Num: seq & 0xfff},
		Body: body,
	}
}

// NewDisassoc builds a disassociation notification.
func NewDisassoc(da, sa, bssid Addr, reason uint16, seq uint16) *Management {
	body := binary.LittleEndian.AppendUint16(nil, reason)
	return &Management{
		FC: FrameControl{Type: TypeMgmt, Subtype: SubtypeDisassoc},
		DA: da, SA: sa, BSSID: bssid,
		Seq:  SeqControl{Num: seq & 0xfff},
		Body: body,
	}
}
