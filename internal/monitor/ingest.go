package monitor

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

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
//
// decodeIngest accepts exactly the bodies encoding/json's
// Decoder.Decode accepts into a struct with a Records slice of those
// fields typed int64, uint16, int, int8, int8, int and string:
//   - keys match case-insensitively under Unicode simple folding;
//     unknown keys are skipped, whatever valid JSON they hold;
//   - null leaves a field, a record or the body unchanged, and empties
//     "records";
//   - a repeated key decodes over what the earlier one left: a later
//     "records" array decodes into the records the earlier one
//     filled, and a record slot keeps its fields until "records" is
//     null or empty;
//   - a number must be an integer in its field's range; strings,
//     bools, objects and arrays in numeric fields are type errors;
//   - bytes after the first JSON value are ignored.
//
// A syntax error anywhere rejects the body; so does a type error,
// which is reported only once the whole value is known to be valid
// JSON. Only then is a frame_hex that is not hex reported, for the
// first record holding one, as a *fieldError.
func decodeIngest(body []byte) ([]capture.Record, error) {
	// Every record object opens a brace and spans at least
	// minRecordBytes, so this sizes the slice once for any body but one
	// of null or empty records, which grows it as it goes.
	d := ingestDecoder{b: body}
	d.recs = make([]capture.Record, 0, min(bytes.Count(body, []byte{'{'}), len(body)/minRecordBytes))
	if err := d.top(); err != nil {
		return nil, err
	}
	if d.typeErr != nil {
		return nil, d.typeErr
	}
	recs := d.recs[:d.n]
	var fault *fieldError
	for k, fe := range d.bad {
		if k < len(recs) && (fault == nil || k < fault.Record) {
			fault = fe
		}
	}
	if fault != nil {
		return nil, fault
	}
	for k := range recs {
		if recs[k].OrigLen == 0 {
			recs[k].OrigLen = len(recs[k].Frame)
		}
	}
	return recs, nil
}

// minRecordBytes is under the length of any record a session
// accepts: its rate, channel and frame_hex (or orig_len) members
// alone take more.
const minRecordBytes = 32

// maxDepth is encoding/json's nesting limit: a body nested deeper is
// a syntax error.
const maxDepth = 10000

// Record fields, as indexes into recordFields.
const (
	fTime = iota
	fRate
	fChannel
	fSignal
	fNoise
	fOrigLen
	fFrameHex
	fUnknown
)

// recordFields names each record field with its Go type's range. A lo
// of 0 marks the unsigned field: any sign is a type error, -0 too.
var recordFields = [...]struct {
	name, typ string
	lo, hi    int64
}{
	fTime:     {"time_us", "int64", math.MinInt64, math.MaxInt64},
	fRate:     {"rate", "uint16", 0, math.MaxUint16},
	fChannel:  {"channel", "int", math.MinInt, math.MaxInt},
	fSignal:   {"signal_dbm", "int8", math.MinInt8, math.MaxInt8},
	fNoise:    {"noise_dbm", "int8", math.MinInt8, math.MaxInt8},
	fOrigLen:  {"orig_len", "int", math.MinInt, math.MaxInt},
	fFrameHex: {"frame_hex", "string", 0, 0},
}

// Object kinds, for ingestDecoder.object.
const (
	objBody = iota
	objRecord
	objOther
)

// ingestDecoder is decodeIngest's state over one body.
type ingestDecoder struct {
	b []byte
	i int // read offset
	// recs holds every record slot written since "records" was last
	// null or empty; n is the length of the latest "records" array and
	// rec the slot being decoded.
	recs   []capture.Record
	n, rec int
	// arena holds the decoded frames, which recs' Frames slice with
	// capped capacity. Hex halves a frame, so len(b)/2 holds them all.
	arena []byte
	used  int
	// bad maps a record slot to its undecodable frame_hex.
	bad     map[int]*fieldError
	typeErr error
	scratch []byte // unescaped strings
}

// top decodes the body's first JSON value.
func (d *ingestDecoder) top() error {
	d.ws()
	switch d.peek() {
	case 0:
		if d.i == len(d.b) {
			return io.EOF
		}
	case '{':
		return d.object(1, objBody)
	case 'n':
		return d.literal("null")
	}
	return d.mistyped(1, "the body (object)")
}

func (d *ingestDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *ingestDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// fail is the syntax error at d.i: the body ends early, or holds a
// byte no JSON value can continue with.
func (d *ingestDecoder) fail() error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", d.b[d.i], d.i)
}

// open enters a container at nesting level depth.
func (d *ingestDecoder) open(depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("exceeded max depth %d at offset %d", maxDepth, d.i)
	}
	d.i++
	d.ws()
	return nil
}

// next consumes the separator after a member or element and reports
// whether another follows before the closing byte.
func (d *ingestDecoder) next(closing byte) (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.i++
		d.ws()
		return true, nil
	case closing:
		d.i++
		return false, nil
	}
	return false, d.fail()
}

// object decodes the object at d.i, at nesting level depth.
func (d *ingestDecoder) object(depth, kind int) error {
	if err := d.open(depth); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for more := true; more; {
		if d.peek() != '"' {
			return d.fail()
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.fail()
		}
		d.i++
		d.ws()
		switch {
		case kind == objBody && foldEq(key, "records"):
			err = d.records(depth + 1)
		case kind == objRecord:
			err = d.field(recordField(key), depth+1)
		default:
			err = d.skip(depth + 1)
		}
		if err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// records decodes the "records" member's value into d.recs.
func (d *ingestDecoder) records(depth int) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		d.reset()
		return nil
	case '[':
	default:
		return d.mistyped(depth, "records ([]record)")
	}
	if err := d.open(depth); err != nil {
		return err
	}
	k := 0
	if d.peek() == ']' {
		d.i++
	} else {
		for more := true; more; k++ {
			if k == len(d.recs) {
				d.recs = append(d.recs, capture.Record{})
			}
			var err error
			switch d.peek() {
			case '{':
				d.rec = k
				err = d.object(depth+1, objRecord)
			case 'n':
				err = d.literal("null")
			default:
				err = d.mistyped(depth+1, fmt.Sprintf("records[%d] (record)", k))
			}
			if err != nil {
				return err
			}
			if more, err = d.next(']'); err != nil {
				return err
			}
		}
	}
	if k == 0 {
		d.reset()
	}
	d.n = k
	return nil
}

// reset forgets every record slot: "records" was null or empty.
func (d *ingestDecoder) reset() {
	clear(d.recs)
	d.recs = d.recs[:0]
	d.n = 0
	d.bad = nil
}

// field decodes one record member into slot d.rec.
func (d *ingestDecoder) field(f, depth int) error {
	switch c := d.peek(); {
	case f == fUnknown:
		return d.skip(depth)
	case c == 'n':
		return d.literal("null")
	case f == fFrameHex && c == '"':
		return d.frameHex()
	case f != fFrameHex && (c == '-' || '0' <= c && c <= '9'):
		return d.integer(f)
	}
	ft := &recordFields[f]
	return d.mistyped(depth, fmt.Sprintf("records[%d].%s (%s)", d.rec, ft.name, ft.typ))
}

// integer decodes the number at d.i into numeric field f of slot
// d.rec, or notes a type error if it is not an integer in f's range.
func (d *ingestDecoder) integer(f int) error {
	start := d.i
	isInt, err := d.number()
	if err != nil {
		return err
	}
	ft := &recordFields[f]
	if v, ok := parseInt(d.b[start:d.i], ft.lo, ft.hi); isInt && ok {
		r := &d.recs[d.rec]
		switch f {
		case fTime:
			r.Time = v
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
		return nil
	}
	d.typeError(start, fmt.Sprintf("records[%d].%s (%s)", d.rec, ft.name, ft.typ))
	return nil
}

// parseInt parses a JSON integer literal in [lo, hi]; lo == 0 also
// rejects a sign, as strconv.ParseUint does.
func parseInt(s []byte, lo, hi int64) (int64, bool) {
	neg := s[0] == '-'
	if neg {
		if lo == 0 {
			return 0, false
		}
		s = s[1:]
	}
	var mag uint64
	for _, c := range s {
		if mag > (math.MaxUint64-9)/10 {
			return 0, false
		}
		mag = mag*10 + uint64(c-'0')
	}
	if neg {
		if mag > uint64(-(lo+1))+1 {
			return 0, false
		}
		return -int64(mag), true
	}
	if mag > uint64(hi) {
		return 0, false
	}
	return int64(mag), true
}

// frameHex decodes the frame_hex string at d.i into slot d.rec. The
// common string, bare hex digits, decodes straight from the body into
// the arena; any other is validated and unescaped first, and one that
// is not hex is noted in d.bad.
func (d *ingestDecoder) frameHex() error {
	if d.arena == nil {
		d.arena = make([]byte, len(d.b)/2)
	}
	dst := d.arena[d.used:]
	start := d.i + 1
	if j := bytes.IndexByte(d.b[start:], '"'); j >= 0 {
		if n, err := hex.Decode(dst, d.b[start:start+j]); err == nil {
			d.i = start + j + 1
			d.setFrame(n)
			return nil
		}
	}
	end, err := d.str()
	if err != nil {
		return err
	}
	s := d.unquote(d.b[start : end-1])
	n, err := hex.Decode(dst, s)
	if err != nil {
		if d.bad == nil {
			d.bad = make(map[int]*fieldError)
		}
		d.bad[d.rec] = &fieldError{Record: d.rec, Field: "frame_hex", Value: truncate(string(s), 64), Err: err}
		return nil
	}
	d.setFrame(n)
	return nil
}

func (d *ingestDecoder) setFrame(n int) {
	d.recs[d.rec].Frame = d.arena[d.used : d.used+n : d.used+n]
	d.used += n
	delete(d.bad, d.rec)
}

// key reads the object key at d.i and returns its unescaped bytes,
// which alias the body or d.scratch until the next string is read.
func (d *ingestDecoder) key() ([]byte, error) {
	start := d.i + 1
	end, err := d.str()
	if err != nil {
		return nil, err
	}
	key := d.b[start : end-1]
	if bytes.IndexByte(key, '\\') >= 0 {
		key = d.unquote(key)
	}
	return key, nil
}

// recordField maps a record key to its field, as encoding/json does:
// an exact name, else one equal under simple case folding.
func recordField(key []byte) int {
	switch string(key) {
	case "time_us":
		return fTime
	case "rate":
		return fRate
	case "channel":
		return fChannel
	case "signal_dbm":
		return fSignal
	case "noise_dbm":
		return fNoise
	case "orig_len":
		return fOrigLen
	case "frame_hex":
		return fFrameHex
	}
	for f := range recordFields {
		if foldEq(key, recordFields[f].name) {
			return f
		}
	}
	return fUnknown
}

// foldEq reports whether key equals name under Unicode simple case
// folding, the equality encoding/json's foldName gives ("ſ" matches
// "s", the Kelvin sign "k"). An invalid UTF-8 byte matches nothing.
func foldEq(key []byte, name string) bool {
	for _, want := range name {
		if len(key) == 0 {
			return false
		}
		r, n := rune(key[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key)
		}
		key = key[n:]
		if r == want {
			continue
		}
		// Walk r's fold orbit looking for want.
		f := unicode.SimpleFold(r)
		for f != r && f != want {
			f = unicode.SimpleFold(f)
		}
		if f != want {
			return false
		}
	}
	return len(key) == 0
}

// str validates the string at d.i, moves past it and returns the
// offset just past its closing quote.
func (d *ingestDecoder) str() (int, error) {
	b, i := d.b, d.i+1
	if j := bytes.IndexByte(b[i:], '"'); j >= 0 && plain(b[i:i+j]) {
		d.i = i + j + 1
		return d.i, nil
	}
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return d.i, nil
		case c == '\\':
			switch d.i = i + 1; d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for d.i = i + 2; d.i < i+6; d.i++ {
					if !isHex(d.peek()) {
						return 0, d.fail()
					}
				}
				i += 6
			default:
				return 0, d.fail()
			}
		case c < ' ':
			d.i = i
			return 0, d.fail()
		default:
			i++
		}
	}
	d.i = i
	return 0, d.fail()
}

// plain reports whether string content s needs no unescaping and
// holds no control byte.
func plain(s []byte) bool {
	for _, c := range s {
		if c < ' ' || c == '\\' {
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote unescapes validated string content s into d.scratch as
// encoding/json does: each invalid UTF-8 byte and each unpaired
// surrogate escape becomes U+FFFD.
func (d *ingestDecoder) unquote(s []byte) []byte {
	out := d.scratch[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			e := s[r+1]
			r += 2
			switch e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := getu4(s[r-2:])
				r += 4
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						rr = dec
						r += 6
					} else {
						rr = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, rr)
			default: // '"', '\\', '/'
				out = append(out, e)
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, n := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += n
		}
	}
	d.scratch = out
	return out
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	var v [2]byte
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	if _, err := hex.Decode(v[:], s[2:6]); err != nil {
		return -1
	}
	return rune(v[0])<<8 | rune(v[1])
}

// number moves past the JSON number at d.i and reports whether it is
// an integer literal (no fraction, no exponent).
func (d *ingestDecoder) number() (bool, error) {
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return false, d.fail()
	}
	isInt := true
	if d.peek() == '.' {
		isInt = false
		if d.i++; !isDigit(d.peek()) {
			return false, d.fail()
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		isInt = false
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !isDigit(d.peek()) {
			return false, d.fail()
		}
		d.digits()
	}
	return isInt, nil
}

func (d *ingestDecoder) digits() {
	for isDigit(d.peek()) {
		d.i++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal moves past the literal word at d.i.
func (d *ingestDecoder) literal(word string) error {
	for k := 0; k < len(word); k, d.i = k+1, d.i+1 {
		if d.peek() != word[k] {
			return d.fail()
		}
	}
	return nil
}

// skip validates and moves past the JSON value at d.i, at nesting
// level depth if it is a container.
func (d *ingestDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth, objOther)
	case c == '[':
		if err := d.open(depth); err != nil {
			return err
		}
		if d.peek() == ']' {
			d.i++
			return nil
		}
		for more := true; more; {
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			var err error
			if more, err = d.next(']'); err != nil {
				return err
			}
		}
		return nil
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.fail()
}

// mistyped moves past a valid value of the wrong JSON type for its
// destination, and notes the type error.
func (d *ingestDecoder) mistyped(depth int, dest string) error {
	start := d.i
	if err := d.skip(depth); err != nil {
		return err
	}
	d.typeError(start, dest)
	return nil
}

// typeError notes the first type error: the value at start cannot be
// stored in dest.
func (d *ingestDecoder) typeError(start int, dest string) {
	if d.typeErr != nil {
		return
	}
	var what string
	switch d.b[start] {
	case '{':
		what = "object"
	case '[':
		what = "array"
	case '"':
		what = "string"
	case 't', 'f':
		what = "bool"
	default:
		what = "number " + string(d.b[start:d.i])
	}
	d.typeErr = fmt.Errorf("cannot unmarshal %s at offset %d into %s", what, start, dest)
}
