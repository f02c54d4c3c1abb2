// Package sniffer models the paper's vicinity-sniffing framework
// (Sec 4.2): a passive RFMon-mode radio at a fixed location tuned to
// one channel, capturing frames with their rate, channel, and SNR, and
// — critically — failing to capture some of them. The paper names
// three causes of unrecorded frames (Sec 4.4): bit errors in received
// frames, hardware drops under high load, and hidden terminals. All
// three emerge from this model, which lets the analysis package's
// atomicity-based estimators be validated against ground truth.
package sniffer

import (
	"math"
	"math/rand"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/sim"
)

// Config parameterizes a sniffer.
type Config struct {
	// Name labels the sniffer ("A", "B", "C" in Figure 2).
	Name string
	// ID distinguishes sniffers in merged traces.
	ID int
	// Pos is the sniffer's location.
	Pos sim.Position
	// Channel the radio is tuned to; frames on other channels are
	// invisible (each IETF sniffer was fixed to one of 1/6/11).
	Channel phy.Channel
	// SnapLen truncates captured frames (250 bytes at the IETF).
	SnapLen int
	// Env is the radio environment (defaults to phy defaults).
	Env phy.Environment
	// SensitivityDBm is the weakest signal the radio can decode;
	// transmitters below it are the sniffer's hidden terminals.
	SensitivityDBm float64
	// MaxFramesPerSec models the capture-pipeline ceiling; beyond it
	// frames drop with probability growing in the excess (the
	// "hardware limitations" loss of Sec 4.4 / Yeo et al.).
	MaxFramesPerSec int
	// Seed for the sniffer's private RNG (bit-error and overload
	// draws), independent of the simulator's randomness.
	Seed int64
}

// DefaultConfig returns a sniffer configured like the IETF laptops.
func DefaultConfig(name string, id int, pos sim.Position, ch phy.Channel) Config {
	return Config{
		Name:           name,
		ID:             id,
		Pos:            pos,
		Channel:        ch,
		SnapLen:        250,
		Env:            phy.DefaultEnvironment(),
		SensitivityDBm: -90,
		// A 2005-era PCMCIA radio + laptop capture pipeline saturated
		// well below the channel's peak frame rate; Yeo et al. (cited
		// in Sec 4.4) measured exactly this hardware drop behaviour.
		MaxFramesPerSec: 1200,
		Seed:            int64(id) + 1000,
	}
}

// Sniffer implements sim.Tap, accumulating capture records.
type Sniffer struct {
	cfg Config
	rng *rand.Rand

	// emit, when set, switches the sniffer into streaming mode: every
	// captured record is handed to the callback at capture time and
	// nothing is retained, so memory stays flat over arbitrarily long
	// runs. See SetEmit.
	emit func(capture.Record)

	records []capture.Record
	// arena holds all captured frame bytes back to back; each record's
	// Frame aliases a span of it. One growing buffer replaces one
	// allocation per captured frame.
	arena []byte
	// memos caches the deterministic received power per transmitter
	// (indexed by the dense node ID), replacing a path-loss
	// computation per observed frame. Power and position changes
	// (TPC, mobility) invalidate entries lazily.
	memos   []txMemo
	noiseMW float64
	// fer is the shared quantized FER table (default quantum); its
	// decisions are bit-identical to the analytic phy.FER draw.
	fer *phy.FERTable

	// Loss accounting (ground truth for validating the paper's
	// unrecorded-frame estimators).
	Seen          int64 // frames on our channel, in principle audible
	Captured      int64
	LostHidden    int64 // below sensitivity (hidden terminal)
	LostCollision int64 // overlap at the sniffer's location
	LostBitError  int64 // FER draw failed
	LostOverload  int64 // capture pipeline saturated

	curSecond int64
	curCount  int
}

// txMemo is the cached deterministic link from one transmitter to the
// sniffer. Transmit power and position changes (TPC, mobility)
// invalidate it lazily.
type txMemo struct {
	known bool
	power float64      // transmit power the memo was computed at
	pos   sim.Position // transmitter position the memo was computed at
	det   float64      // deterministic rx power, dBm
	mw    float64      // same in milliwatts
}

// New creates a sniffer.
func New(cfg Config) *Sniffer {
	if cfg.SnapLen <= 0 {
		cfg.SnapLen = 250
	}
	if cfg.MaxFramesPerSec <= 0 {
		cfg.MaxFramesPerSec = 1200
	}
	return &Sniffer{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		noiseMW: dbmToMW(cfg.Env.NoiseFloorDBm),
		fer:     phy.SharedFERTable(0),
	}
}

// memoFor returns the cached deterministic link from transmitter id at
// pos with the given power, computing it on first sight (or when the
// transmitter's power or position changed).
func (s *Sniffer) memoFor(id int, power float64, pos sim.Position) *txMemo {
	for id >= len(s.memos) {
		s.memos = append(s.memos, txMemo{})
	}
	m := &s.memos[id]
	if !m.known || m.power != power || m.pos != pos {
		det := s.cfg.Env.RxPowerDBm(power, pos.Distance(s.cfg.Pos), nil)
		*m = txMemo{known: true, power: power, pos: pos, det: det, mw: dbmToMW(det)}
	}
	return m
}

// Records returns the captured trace in arrival order. In streaming
// mode (SetEmit) nothing is retained and Records stays empty.
func (s *Sniffer) Records() []capture.Record { return s.records }

// SetEmit switches the sniffer into streaming mode: every captured
// record is passed to fn as it is captured instead of being appended
// to Records, so the sniffer's memory use is independent of run
// length. The record's Frame aliases a buffer the simulator reuses —
// it is valid only during the fn call; a consumer that retains the
// record must copy the bytes. The capture decision path, loss
// accounting, and RNG stream are identical to the materializing mode,
// so a streamed run is record-for-record the same as a recorded one.
// Set before the simulation starts; records are delivered in
// observation order (non-decreasing transmission-end time), which can
// lag start-time order by up to one frame airtime.
func (s *Sniffer) SetEmit(fn func(capture.Record)) { s.emit = fn }

// Config returns the sniffer's configuration.
func (s *Sniffer) Config() Config { return s.cfg }

// ObserveTransmission implements sim.Tap.
func (s *Sniffer) ObserveTransmission(o sim.TxObservation) {
	if o.Channel != s.cfg.Channel {
		return
	}
	s.Seen++

	env := &s.cfg.Env
	rx := s.memoFor(o.FromID, o.TxPowerDBm, o.FromPos).det
	if env.ShadowingSigmaDB > 0 {
		rx += s.rng.NormFloat64() * env.ShadowingSigmaDB
	}
	if rx < s.cfg.SensitivityDBm {
		s.LostHidden++
		return
	}
	snr := env.SNRdB(rx)

	// Collision at the sniffer: interference from overlapping
	// transmissions as received here.
	if len(o.Overlapped) > 0 {
		interfMW := 0.0
		for _, it := range o.Overlapped {
			interfMW += s.memoFor(it.FromID, it.TxPowerDBm, it.FromPos).mw
		}
		sinr := rx - mwToDBm(interfMW+s.noiseMW)
		if sinr < sim.CaptureThresholdFor(o.Rate, o.CaptureThresholdDB) { // as at receivers
			s.LostCollision++
			return
		}
	}

	// Bit errors. The table decision is bit-identical to drawing
	// against the analytic phy.FER (and the draw comes first either
	// way), so routing through the shared quantized table changes only
	// the per-frame cost, not the capture stream.
	if u := s.rng.Float64(); s.fer.Lookup(o.WireLen, o.Rate).Lost(u, snr) {
		s.LostBitError++
		return
	}

	// Overload: past the per-second budget, drop probability rises
	// linearly with the excess.
	sec := int64(o.Time / phy.MicrosPerSecond)
	if sec != s.curSecond {
		s.curSecond, s.curCount = sec, 0
	}
	s.curCount++
	if over := s.curCount - s.cfg.MaxFramesPerSec; over > 0 {
		pDrop := float64(over) / float64(s.cfg.MaxFramesPerSec)
		if pDrop > 0.9 {
			pDrop = 0.9
		}
		if s.rng.Float64() < pDrop {
			s.LostOverload++
			return
		}
	}

	frame := o.Frame
	if len(frame) > s.cfg.SnapLen {
		frame = frame[:s.cfg.SnapLen]
	}
	if s.emit != nil {
		// Streaming mode: hand the record over without retaining
		// anything. Frame still aliases the simulator's buffer.
		s.emit(capture.Record{
			Time:      o.Time,
			Rate:      o.Rate,
			Channel:   o.Channel,
			SignalDBm: clampDBm(rx),
			NoiseDBm:  clampDBm(env.NoiseFloorDBm),
			SnifferID: s.cfg.ID,
			OrigLen:   o.WireLen,
			Frame:     frame,
		})
		s.Captured++
		return
	}
	// Copy the frame bytes into the arena (o.Frame aliases a reused
	// simulator buffer) and grow the record slice in chunks sized by
	// the capture pipeline's per-second ceiling.
	start := len(s.arena)
	s.arena = append(s.arena, frame...)
	cp := s.arena[start:len(s.arena):len(s.arena)]
	if len(s.records) == cap(s.records) {
		grow := s.cfg.MaxFramesPerSec
		if grow < len(s.records) {
			grow = len(s.records) // amortize: double at scale
		}
		next := make([]capture.Record, len(s.records), len(s.records)+grow)
		copy(next, s.records)
		s.records = next
	}
	s.records = append(s.records, capture.Record{
		Time:      o.Time,
		Rate:      o.Rate,
		Channel:   o.Channel,
		SignalDBm: clampDBm(rx),
		NoiseDBm:  clampDBm(env.NoiseFloorDBm),
		SnifferID: s.cfg.ID,
		OrigLen:   o.WireLen,
		Frame:     cp,
	})
	s.Captured++
}

// UnrecordedTruth returns the ground-truth unrecorded fraction among
// frames on the sniffer's channel.
func (s *Sniffer) UnrecordedTruth() float64 {
	if s.Seen == 0 {
		return 0
	}
	return float64(s.Seen-s.Captured) / float64(s.Seen)
}

func clampDBm(v float64) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

func dbmToMW(dbm float64) float64 {
	return math.Pow(10, dbm/10)
}

func mwToDBm(mw float64) float64 {
	return 10 * math.Log10(mw)
}
