package monitor

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// ingestRecord and toRecord are the ingest handler's decode before
// decodeIngest: encoding/json into this struct, then hex.DecodeString
// per record. referenceDecode runs them as the handler did; every
// test of decodeIngest checks it against them.
type ingestRecord struct {
	TimeUS    int64  `json:"time_us"`
	Rate      uint16 `json:"rate"`
	Channel   int    `json:"channel"`
	SignalDBm int8   `json:"signal_dbm,omitempty"`
	NoiseDBm  int8   `json:"noise_dbm,omitempty"`
	OrigLen   int    `json:"orig_len,omitempty"`
	FrameHex  string `json:"frame_hex"`
}

func (ir ingestRecord) toRecord() (capture.Record, error) {
	frame, err := hex.DecodeString(ir.FrameHex)
	if err != nil {
		return capture.Record{}, &fieldError{Field: "frame_hex", Value: truncate(ir.FrameHex, 64), Err: err}
	}
	orig := ir.OrigLen
	if orig == 0 {
		orig = len(frame)
	}
	return capture.Record{
		Time:      phy.Micros(ir.TimeUS),
		Rate:      phy.Rate(ir.Rate),
		Channel:   phy.Channel(ir.Channel),
		SignalDBm: ir.SignalDBm,
		NoiseDBm:  ir.NoiseDBm,
		OrigLen:   orig,
		Frame:     frame,
	}, nil
}

func referenceDecode(b []byte) ([]capture.Record, error) {
	var body struct {
		Records []ingestRecord `json:"records"`
	}
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&body); err != nil {
		return nil, err
	}
	recs := make([]capture.Record, 0, len(body.Records))
	for i, ir := range body.Records {
		rec, err := ir.toRecord()
		if err != nil {
			fe := err.(*fieldError)
			fe.Record = i
			return nil, fe
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// checkDecode fails t unless decodeIngest and referenceDecode agree on
// b: both accept with equal records, or both reject, with equal
// locators and messages for a frame_hex error.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	got, gerr := decodeIngest(b)
	want, werr := referenceDecode(b)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("body %q:\ndecodeIngest error %v\nreference error    %v", b, gerr, werr)
	}
	var gfe, wfe *fieldError
	errors.As(gerr, &gfe)
	errors.As(werr, &wfe)
	if (gfe == nil) != (wfe == nil) {
		t.Fatalf("body %q:\ndecodeIngest error %v\nreference error    %v", b, gerr, werr)
	}
	if gfe != nil && (gfe.Record != wfe.Record || gfe.Field != wfe.Field || gfe.Value != wfe.Value || gfe.Error() != wfe.Error()) {
		t.Fatalf("body %q: frame_hex error\ndecodeIngest %+v: %v\nreference    %+v: %v", b, *gfe, gfe, *wfe, wfe)
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d records, reference %d", b, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !bytes.Equal(g.Frame, w.Frame) {
			t.Fatalf("body %q: record %d frame %x, reference %x", b, i, g.Frame, w.Frame)
		}
		if g.Time != w.Time || g.Rate != w.Rate || g.Channel != w.Channel || g.SignalDBm != w.SignalDBm ||
			g.NoiseDBm != w.NoiseDBm || g.SnifferID != w.SnifferID || g.OrigLen != w.OrigLen {
			t.Fatalf("body %q: record %d\n%+v\nreference\n%+v", b, i, g, w)
		}
	}
}

// wireBody encodes recs as the reference wire form.
func wireBody(recs []capture.Record) []byte {
	wire := make([]ingestRecord, len(recs))
	for i, r := range recs {
		wire[i] = ingestRecord{
			TimeUS: r.Time, Rate: uint16(r.Rate), Channel: int(r.Channel),
			SignalDBm: r.SignalDBm, NoiseDBm: r.NoiseDBm, OrigLen: r.OrigLen,
			FrameHex: hex.EncodeToString(r.Frame),
		}
	}
	b, err := json.Marshal(map[string][]ingestRecord{"records": wire})
	if err != nil {
		panic(err)
	}
	return b
}

// twoRecordBody is a real body: a DATA frame and its ACK.
func twoRecordBody() []byte {
	recs, _ := dataAck(nil, 1000, 40, phy.Rate11Mbps, 7, true)
	return wireBody(recs)
}

// ingestCases are bodies at the edges of the accepted language, seeds
// of FuzzIngestDecode.
var ingestCases = map[string]string{
	"empty":              ``,
	"whitespace":         " \t\r\n",
	"null-body":          `null`,
	"null-trailing":      `null x`,
	"bom":                "\xef\xbb\xbf{\"records\":[]}",
	"array-body":         `[{"records":[]}]`,
	"string-body":        `"records"`,
	"number-body":        `12`,
	"records-null":       `{"records":null}`,
	"records-empty":      `{"records":[]}`,
	"records-object":     `{"records":{}}`,
	"records-string":     `{"records":"x"}`,
	"record-null":        `{"records":[null,{"rate":10,"frame_hex":"00"}]}`,
	"record-number":      `{"records":[1]}`,
	"field-nulls":        `{"records":[{"time_us":null,"rate":null,"channel":null,"signal_dbm":null,"noise_dbm":null,"orig_len":null,"frame_hex":null}]}`,
	"trailing-bytes":     `{"records":[{"rate":10,"frame_hex":"0a"}]}}]garbage`,
	"trailing-comma":     `{"records":[{"rate":10},]}`,
	"missing-colon":      `{"records" []}`,
	"upper-case-keys":    `{"RECORDS":[{"TIME_US":5,"Rate":110,"cHaNnEl":6,"Frame_Hex":"d400"}]}`,
	"long-s-key":         `{"recordſ":[{"ſignal_dbm":-40,"noiſe_dbm":-90,"frame_hex":"00"}]}`,
	"kelvin-key":         "{\"records\":[{\"\u212aey\":1,\"frame_hex\":\"00\"}]}",
	"escaped-key":        `{"rec\u006frds":[{"r\u0061te":20,"frame\u005fhex":"0102"}]}`,
	"escaped-hex":        `{"records":[{"rate":10,"frame_hex":"\u0030\u0031\u0041f"}]}`,
	"escaped-hex-slash":  `{"records":[{"rate":10,"frame_hex":"0\/"}]}`,
	"hex-surrogate":      `{"records":[{"frame_hex":"\ud800"}]}`,
	"hex-surrogate-pair": `{"records":[{"frame_hex":"\ud83d\ude00"}]}`,
	"hex-bad-escape":     `{"records":[{"frame_hex":"\x41"}]}`,
	"hex-control":        "{\"records\":[{\"frame_hex\":\"00\x01\"}]}",
	"hex-odd":            `{"records":[{"rate":10,"frame_hex":"abc"}]}`,
	"hex-not-hex":        `{"records":[{"rate":10,"frame_hex":"00"},{"frame_hex":"zz-not-hex"}]}`,
	"hex-long-bad":       `{"records":[{"frame_hex":"` + strings.Repeat("ab", 40) + `g"}]}`,
	"hex-invalid-utf8":   "{\"records\":[{\"frame_hex\":\"\xff\xfe\"}]}",
	"hex-utf8":           `{"records":[{"frame_hex":"é0"}]}`,
	"key-invalid-utf8":   "{\"records\":[{\"rate\xff\":10,\"frame_hex\":\"00\"}]}",
	"unknown-nested":     `{"meta":{"a":[1,2.5e-3,{"b":[true,false,null,"s\"\\"]}]},"records":[{"x":{"y":[[]]},"rate":10,"frame_hex":"00"}]}`,
	"duplicate-field":    `{"records":[{"rate":10,"rate":20,"frame_hex":"zz","frame_hex":"00"}]}`,
	"duplicate-records":  `{"records":[{"rate":10,"frame_hex":"00"},{"rate":20,"frame_hex":"0102"}],"records":[{"channel":3}]}`,
	"duplicate-regrow":   `{"records":[{"rate":1},{"rate":2},{"rate":3}],"records":[{"rate":4}],"records":[{"channel":5},{"channel":6},{"channel":7},{}]}`,
	"duplicate-reset":    `{"records":[{"rate":1},{"rate":2}],"records":[],"records":[{},{}]}`,
	"duplicate-null":     `{"records":[{"rate":1},{"rate":2}],"records":null,"records":[{},{}]}`,
	"stale-bad-hex":      `{"records":[{"frame_hex":"00"},{"frame_hex":"zz"}],"records":[{}],"records":[{},{}]}`,
	"fixed-bad-hex":      `{"records":[{"frame_hex":"zz"}],"records":[{"frame_hex":"00"}]}`,
	"type-beats-hex":     `{"records":[{"frame_hex":"zz"},{"rate":"10"}]}`,
	"syntax-beats-type":  `{"records":[{"rate":"10"},{"rate":1`,
	"string-in-int":      `{"records":[{"rate":"10"}]}`,
	"bool-in-int":        `{"records":[{"channel":true}]}`,
	"object-in-int":      `{"records":[{"channel":{}}]}`,
	"number-in-hex":      `{"records":[{"frame_hex":12}]}`,
	"float-one":          `{"records":[{"rate":1.0}]}`,
	"exponent":           `{"records":[{"time_us":1e3}]}`,
	"minus-zero":         `{"records":[{"time_us":-0,"channel":-0}]}`,
	"minus-zero-uint":    `{"records":[{"rate":-0}]}`,
	"leading-zero":       `{"records":[{"rate":01}]}`,
	"bare-minus":         `{"records":[{"rate":-}]}`,
	"time-max":           `{"records":[{"time_us":9223372036854775807}]}`,
	"time-max+1":         `{"records":[{"time_us":9223372036854775808}]}`,
	"time-min":           `{"records":[{"time_us":-9223372036854775808}]}`,
	"time-min-1":         `{"records":[{"time_us":-9223372036854775809}]}`,
	"time-huge":          `{"records":[{"time_us":184467440737095516160}]}`,
	"rate-max":           `{"records":[{"rate":65535}]}`,
	"rate-max+1":         `{"records":[{"rate":65536}]}`,
	"rate-min-1":         `{"records":[{"rate":-1}]}`,
	"channel-max":        `{"records":[{"channel":9223372036854775807}]}`,
	"channel-max+1":      `{"records":[{"channel":9223372036854775808}]}`,
	"channel-min":        `{"records":[{"channel":-9223372036854775808}]}`,
	"channel-min-1":      `{"records":[{"channel":-9223372036854775809}]}`,
	"signal-max":         `{"records":[{"signal_dbm":127,"noise_dbm":-128}]}`,
	"signal-max+1":       `{"records":[{"signal_dbm":128}]}`,
	"noise-min-1":        `{"records":[{"noise_dbm":-129}]}`,
	"orig-len-max":       `{"records":[{"orig_len":9223372036854775807}]}`,
	"orig-len-min-1":     `{"records":[{"orig_len":-9223372036854775809}]}`,
	"orig-len-default":   `{"records":[{"orig_len":0,"frame_hex":"000102"}]}`,
	"deep-10000":         `{"records":[{"x":` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `}]}`,
	"deep-10001":         `{"records":[{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]}`,
	"deep-body-10000":    `{"x":` + strings.Repeat(`{"y":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	"deep-body-10001":    `{"x":` + strings.Repeat(`{"y":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
	"control-in-key":     "{\"rec\nords\":[]}",
	"bad-literal":        `{"records":[nul]}`,
	"bad-escape-key":     `{"re\qcords":[]}`,
	"short-u-escape":     `{"records":[{"frame_hex":"\u00"}]}`,
}

// TestDecodeIngestEdges pins the outcomes the wire format's rules
// name, beyond agreeing with the reference (FuzzIngestDecode's seeds
// check that for every case).
func TestDecodeIngestEdges(t *testing.T) {
	recs, err := decodeIngest([]byte(ingestCases["upper-case-keys"]))
	if err != nil || len(recs) != 1 || recs[0].Rate != 110 || recs[0].Channel != 6 || recs[0].OrigLen != 2 {
		t.Fatalf("upper-case keys: %+v, %v", recs, err)
	}
	recs, err = decodeIngest([]byte(ingestCases["duplicate-records"]))
	if err != nil || len(recs) != 1 || recs[0].Rate != 10 || recs[0].Channel != 3 || !bytes.Equal(recs[0].Frame, []byte{0}) {
		t.Fatalf("a repeated records key decodes over the first: %+v, %v", recs, err)
	}
	_, err = decodeIngest([]byte(ingestCases["type-beats-hex"]))
	var fe *fieldError
	if err == nil || errors.As(err, &fe) {
		t.Fatalf("a type error must win over a bad frame_hex: %v", err)
	}
	_, err = decodeIngest([]byte(ingestCases["hex-not-hex"]))
	if !errors.As(err, &fe) || fe.Record != 1 || fe.Field != "frame_hex" || fe.Value != "zz-not-hex" {
		t.Fatalf("bad frame_hex: %v", err)
	}
}

// TestDecodeIngestFrames: frames do not alias the body, and each is
// capped so an append to one cannot overwrite the next.
func TestDecodeIngestFrames(t *testing.T) {
	body := twoRecordBody()
	recs, err := decodeIngest(body)
	if err != nil || len(recs) != 2 {
		t.Fatalf("decode: %d records, %v", len(recs), err)
	}
	want0 := bytes.Clone(recs[0].Frame)
	want1 := bytes.Clone(recs[1].Frame)
	clear(body)
	_ = append(recs[0].Frame, 0xff)
	if !bytes.Equal(recs[0].Frame, want0) || !bytes.Equal(recs[1].Frame, want1) {
		t.Fatal("frames changed after the body was cleared and one was appended to")
	}
}

// TestDecodeIngestAllocs: a body's decode costs a fixed number of
// allocations, whatever its record count: the records slice and the
// frame arena.
func TestDecodeIngestAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		var recs []capture.Record
		for len(recs) < n {
			recs, _ = dataAck(recs, phy.Micros(len(recs))*1000, 200, phy.Rate11Mbps, uint16(len(recs)), false)
		}
		body := wireBody(recs[:n])
		return testing.AllocsPerRun(20, func() {
			if got, err := decodeIngest(body); err != nil || len(got) != n {
				t.Fatalf("decode: %d records, %v", len(got), err)
			}
		})
	}
	a128, a1024 := allocs(128), allocs(1024)
	if a128 != 2 || a1024 != 2 {
		t.Fatalf("decoding 128 records: %v allocations, 1024 records: %v; want 2 each", a128, a1024)
	}
}

// FuzzIngestDecode: on any body, decodeIngest and the encoding/json
// reference agree (checkDecode). Seeds: ingestCases and every
// truncation of a real two-record body; testdata/fuzz holds what
// fuzzing added.
func FuzzIngestDecode(f *testing.F) {
	for _, body := range ingestCases {
		f.Add([]byte(body))
	}
	body := twoRecordBody()
	for n := range len(body) + 1 {
		f.Add(body[:n])
	}
	f.Fuzz(checkDecode)
}
