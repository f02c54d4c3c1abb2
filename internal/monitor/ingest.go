package monitor

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// An ingest body is one JSON object whose "records" member is an array
// of pushed frames:
//
//	{"records":[{"time_us":1000,"rate":110,"channel":6,"signal_dbm":-50,
//	             "noise_dbm":-95,"orig_len":60,"frame_hex":"8000..."}]}
//
// time_us is the capture timestamp in microseconds of trace time; rate
// is in units of 100 kb/s (radiotap convention: 10 = 1 Mb/s, 110 =
// 11 Mb/s); channel is the 2.4 GHz channel number; signal_dbm and
// noise_dbm are optional radio metadata; orig_len is the on-air frame
// length, defaulting to the decoded frame's length when omitted or 0;
// frame_hex is the MAC frame, hex encoded.
type wireRecord struct {
	TimeUS    int64  `json:"time_us"`
	Rate      uint16 `json:"rate"`
	Channel   int    `json:"channel"`
	SignalDBm int8   `json:"signal_dbm"`
	NoiseDBm  int8   `json:"noise_dbm"`
	OrigLen   int    `json:"orig_len"`
	FrameHex  string `json:"frame_hex"`
}

// decodeIngest decodes a push body as encoding/json's Decoder.Decode
// does into a struct with a Records []wireRecord member, then
// hex-decodes each record's frame_hex; the first that is not hex is
// reported as a *fieldError. The bodies encoders write for that struct
// take decodePlain's one pass; every other body goes through
// encoding/json itself, so both paths accept the same bodies with the
// same records and errors.
func decodeIngest(body []byte) ([]capture.Record, error) {
	if recs, ok := decodePlain(body); ok {
		return recs, nil
	}
	var wire struct {
		Records []wireRecord `json:"records"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil {
		return nil, err
	}
	recs := make([]capture.Record, len(wire.Records))
	for i, w := range wire.Records {
		frame, err := hex.DecodeString(w.FrameHex)
		if err != nil {
			return nil, &fieldError{Record: i, Field: "frame_hex", Value: truncate(w.FrameHex, 64), Err: err}
		}
		recs[i] = capture.Record{
			Time:      phy.Micros(w.TimeUS),
			Rate:      phy.Rate(w.Rate),
			Channel:   phy.Channel(w.Channel),
			SignalDBm: w.SignalDBm,
			NoiseDBm:  w.NoiseDBm,
			OrigLen:   w.OrigLen,
			Frame:     frame,
		}
		if w.OrigLen == 0 {
			recs[i].OrigLen = len(frame)
		}
	}
	return recs, nil
}

// minRecordBytes is under the length of any record a session
// accepts: its rate, channel and frame_hex (or orig_len) members
// alone take more.
const minRecordBytes = 32

// Record fields, as indexes into recordFields.
const (
	fTime = iota
	fRate
	fChannel
	fSignal
	fNoise
	fOrigLen
	fFrameHex
)

// recordFields names each record member with its Go type's range; a
// lo of 0 marks the unsigned field, which takes no sign.
var recordFields = [...]struct {
	name   string
	lo, hi int64
}{
	fTime:     {"time_us", math.MinInt64, math.MaxInt64},
	fRate:     {"rate", 0, math.MaxUint16},
	fChannel:  {"channel", math.MinInt, math.MaxInt},
	fSignal:   {"signal_dbm", math.MinInt8, math.MaxInt8},
	fNoise:    {"noise_dbm", math.MinInt8, math.MaxInt8},
	fOrigLen:  {"orig_len", math.MinInt, math.MaxInt},
	fFrameHex: {"frame_hex", 0, 0},
}

// plainDecoder is decodePlain's state over one body.
type plainDecoder struct {
	b []byte
	i int // read offset
	// arena holds the decoded frames, which the records' Frames slice
	// with capped capacity. Hex halves a frame, so len(b)/2 holds them
	// all.
	arena []byte
}

// decodePlain decodes, in one pass, a body made only of what encoders
// write for the wire struct: the "records" key and the seven record
// keys, exact and each at most once per object; integers in their
// field's range, with no fraction, exponent or leading zero, and no
// sign on rate; frame_hex as bare hex digits; JSON whitespace between
// tokens. Bytes after the object are ignored, as Decoder.Decode
// ignores them. It costs two allocations, the records and the frame
// arena, and reports ok=false on any other body.
func decodePlain(b []byte) ([]capture.Record, bool) {
	d := plainDecoder{b: b}
	if !d.tok('{') {
		return nil, false
	}
	// Every record object opens a brace and spans at least
	// minRecordBytes, so this sizes the slice once for any body but
	// one of near-empty records, which grows it as it goes.
	recs := make([]capture.Record, 0, min(bytes.Count(b, []byte{'{'}), len(b)/minRecordBytes))
	if key, ok := d.str(); !ok || string(key) != "records" || !d.tok(':') || !d.tok('[') {
		return nil, false
	}
	d.arena = make([]byte, len(b)/2)
	if !d.tok(']') {
		for more := true; more; more = d.tok(',') {
			recs = append(recs, capture.Record{})
			if !d.record(&recs[len(recs)-1]) {
				return nil, false
			}
		}
		if !d.tok(']') {
			return nil, false
		}
	}
	return recs, d.tok('}')
}

// record decodes one record object into r.
func (d *plainDecoder) record(r *capture.Record) bool {
	if !d.tok('{') {
		return false
	}
	var seen [len(recordFields)]bool
	for more := true; more; more = d.tok(',') {
		key, ok := d.str()
		f := 0
		for f < len(recordFields) && string(key) != recordFields[f].name {
			f++
		}
		if !ok || f == len(recordFields) || seen[f] || !d.tok(':') {
			return false
		}
		seen[f] = true
		if f == fFrameHex {
			s, ok := d.str()
			n, err := hex.Decode(d.arena, s)
			if !ok || err != nil {
				return false
			}
			r.Frame, d.arena = d.arena[:n:n], d.arena[n:]
			continue
		}
		v, ok := d.integer(recordFields[f].lo, recordFields[f].hi)
		if !ok {
			return false
		}
		switch f {
		case fTime:
			r.Time = phy.Micros(v)
		case fRate:
			r.Rate = phy.Rate(v)
		case fChannel:
			r.Channel = phy.Channel(v)
		case fSignal:
			r.SignalDBm = int8(v)
		case fNoise:
			r.NoiseDBm = int8(v)
		case fOrigLen:
			r.OrigLen = int(v)
		}
	}
	if r.OrigLen == 0 {
		r.OrigLen = len(r.Frame)
	}
	return d.tok('}')
}

// ws moves past JSON whitespace.
func (d *plainDecoder) ws() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// tok moves past whitespace and then c, reporting whether c was there.
func (d *plainDecoder) tok(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str moves past a string and returns its content up to the first
// quote: raw bytes that the caller accepts only as a key name or as
// hex digits, neither of which holds an escape.
func (d *plainDecoder) str() ([]byte, bool) {
	if !d.tok('"') {
		return nil, false
	}
	j := bytes.IndexByte(d.b[d.i:], '"')
	if j < 0 {
		return nil, false
	}
	s := d.b[d.i : d.i+j]
	d.i += j + 1
	return s, true
}

// integer moves past an integer in [lo, hi] with no leading zero,
// fraction or exponent; lo == 0 also refuses a sign, -0 included. A
// fraction or exponent is left for the caller's next tok to refuse.
func (d *plainDecoder) integer(lo, hi int64) (int64, bool) {
	d.ws()
	neg := lo < 0 && d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start := d.i
	var mag uint64
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		mag = mag*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	// 19 digits cannot overflow mag.
	if n := d.i - start; n == 0 || n > 19 || n > 1 && d.b[start] == '0' {
		return 0, false
	}
	if neg {
		return -int64(mag), mag <= uint64(-(lo+1))+1
	}
	return int64(mag), mag <= uint64(hi)
}
