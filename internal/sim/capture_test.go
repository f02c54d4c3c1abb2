package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
)

// TestFarTableBracketContainsCulledMW checks lo ≤ culledMW ≤ hi for
// pairs at random distances, at and one ulp either side of bucket
// edges, inside the 1 m clamp and past the table's end, across powers
// and path-loss exponents. In-table brackets must also be tight, so a
// table that brackets everything by [0, +Inf) cannot pass.
func TestFarTableBracketContainsCulledMW(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, exp := range []float64{2.0, 3.3, 3.7, 4.0} {
		for _, power := range []float64{0, 12.5, phy.DefaultTxPowerDBm, 20} {
			env := phy.DefaultEnvironment()
			env.ShadowingSigmaDB = 0
			env.PathLossExponent = exp
			tbl := &farTable{env: &env, power: power, mw: make([]float64, farEdges)}
			check := func(d, angle float64) {
				dx, dy := d*math.Cos(angle), d*math.Sin(angle)
				d2 := dx*dx + dy*dy
				lo, hi := tbl.bracket(d2)
				v := culledMW(&env, power, math.Hypot(dx, dy))
				if !(lo <= v && v <= hi) {
					t.Fatalf("exp %v power %v d %v (d² %v): %v outside [%v, %v]", exp, power, d, d2, v, lo, hi)
				}
				// A bucket spans 2⁻⁸ of d², so (exp/2)·2⁻⁸ of power.
				if d2 >= 1 && d2 < 0x1p40 && hi > lo*(1+exp*0x1p-8) {
					t.Fatalf("exp %v power %v d %v: bracket [%v, %v] too loose", exp, power, d, lo, hi)
				}
			}
			for i := 0; i < 20000; i++ {
				check(math.Pow(10, rng.Float64()*8.5-2), rng.Float64()*2*math.Pi)
			}
			for i := 0; i < farEdges; i += 37 {
				d := math.Sqrt(math.Float64frombits(uint64(i+farBase) << farShift))
				for _, dd := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
					check(dd, 0)
					check(dd, math.Pi/2)
					check(dd, rng.Float64()*2*math.Pi)
				}
			}
			for _, d := range []float64{0, 1e-9, 0.3, 0.999999, math.Nextafter(1, 0), 1, math.Nextafter(1, 2)} {
				check(d, 0)
				check(d, 0.7)
			}
			for _, d := range []float64{0x1p20, 0x1p20 * 1.5, 1e7, 1e9, 1e300} {
				check(d, 0)
				check(d, 2.1)
			}
		}
	}
}

// TestSettleCaptureMatchesExact places a receiver's signal so that
// its exact SINR falls between one ulp and 1e-6 dB of each rate's
// capture threshold, on both sides, under near (stored) and culled
// interferers, and requires the bracket-settled decision to equal the
// decision on the exact seqno-ordered sum. The transmitter stands half
// a cull radius from the receiver, so the coarse tier bounds the far
// interferers more loosely than their per-pair brackets do. Clear-cut
// signals must be settled by a bracket in both directions, some only
// by the fine tier, and the near-threshold ones must reach the exact
// fallback, so no path goes untested. Two sub-cases repeat the checks
// after moves that leave the near interferer's row not current: one
// with a pending patch toward the receiver, one stale.
func TestSettleCaptureMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pass, collide, fine, fallback int
	for _, exp := range []float64{2.0, 3.3, 3.7, 4.0} {
		cfg := DefaultConfig()
		cfg.Env.ShadowingSigmaDB = 0
		cfg.Env.PathLossExponent = exp
		net := New(cfg)
		r := net.cullRadius(cfg.DefaultTxPowerDBm)
		rx := net.AddAP("rx", Position{}, phy.Channel1)
		sender := net.AddAP("tx", Position{X: r / 2}, phy.Channel1)
		// One near interferer (stored in its row) and several beyond
		// the 3×3-cell neighborhood its row stores (recomputed from
		// the row's position). Rows are taken once every node is
		// placed, so they start current.
		var interferers []*Node
		for i, k := range []float64{0.2, 3.1, 3.9, 5.5, 9.5} {
			a := rng.Float64() * 2 * math.Pi
			interferers = append(interferers, net.AddAP(fmt.Sprintf("i%d", i), Position{X: k * r * math.Cos(a), Y: k * r * math.Sin(a)}, phy.Channel1))
		}
		var overlapped []*transmission
		for i, o := range interferers {
			row := net.rowFor(o)
			if _, ok := row.linkTo(rx); ok != (i == 0) {
				t.Fatalf("exp %v: interferer %d stored in its row: %v, want only the first", exp, i, ok)
			}
			if !net.rowCurrent(row) {
				t.Fatalf("exp %v: interferer %d's row not current", exp, i)
			}
			overlapped = append(overlapped, &transmission{row: row})
		}
		nearNode := interferers[0]
		m := net.mediumFor(phy.Channel1)
		noise := net.noiseMW
		txRow := net.rowFor(sender)
		check := func(what string, overlapped []*transmission) {
			tx := &transmission{row: txRow, overlapped: overlapped}
			exact := 0.0
			for _, it := range tx.overlapped {
				exact += net.mwTo(it.row, rx)
			}
			iDBm := mwToDBm(exact + noise)
			for _, rt := range append(phy.Rates[:], phy.GRates[:]...) {
				tx.rate = rt
				thr := CaptureThresholdFor(rt, cfg.CaptureThresholdDB)
				var signals []float64
				base := thr + iDBm
				for _, off := range []float64{0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6} {
					signals = append(signals, base+off, base-off)
				}
				for s, k := base, 0; k < 4; k++ {
					s = math.Nextafter(s, math.Inf(1))
					signals = append(signals, s)
				}
				for s, k := base, 0; k < 4; k++ {
					s = math.Nextafter(s, math.Inf(-1))
					signals = append(signals, s)
				}
				for _, s := range signals {
					if d := math.Abs(s - iDBm - thr); d > 1.01e-6 {
						t.Fatalf("signal %v lies %v dB from the threshold", s, d)
					}
				}
				signals = append(signals, base+10, base-10, base+0.5, base-0.5)
				for _, s := range signals {
					want := exact > 0 && s-iDBm < thr
					interf := m.interfFor(len(net.nodes))
					before := net.capture
					m.settleCapture(tx, []spCand{{o: rx, l: link{dBm: s, mw: dbmToMW(s)}}}, interf)
					v := interf[rx.ID]
					got := v > 0 && s-mwToDBm(v+noise) < thr
					if got != want {
						t.Fatalf("exp %v %s rate %v %d interferers signal %v: settled collide=%v, exact sum says %v (exact SINR %v, thr %v, settled %v)",
							exp, what, rt, len(overlapped), s, got, want, s-iDBm, thr, v)
					}
					switch {
					case net.capture.exact > before.exact:
						fallback++
					case net.capture.fine > before.fine:
						fine++
					case v == 0:
						pass++
					default:
						collide++
					}
				}
			}
		}
		for sub := 1; sub <= len(overlapped); sub++ {
			check("near+culled", overlapped[:sub])
			if sub > 1 {
				check("culled", overlapped[1:sub])
			}
		}
		near := overlapped[0].row
		// A step of the receiver within its cell queues a patch on the
		// near interferer's row: the exact sum keeps the stored link.
		net.MoveNode(rx, Position{X: 0.05 * r, Y: 0.05 * r})
		if len(near.patches) == 0 || near.stale {
			t.Fatalf("exp %v: near row not patched after the receiver's move", exp)
		}
		check("patched", overlapped)
		// A step of the interferer itself leaves its own row stale: the
		// exact sum keeps the pinned position and the stored links.
		p := nearNode.Pos
		net.MoveNode(nearNode, Position{X: p.X + 0.05*r, Y: p.Y - 0.05*r})
		if !near.stale {
			t.Fatalf("exp %v: near row not stale after its owner's move", exp)
		}
		check("stale", overlapped)
	}
	if pass == 0 || collide == 0 || fine == 0 || fallback == 0 {
		t.Fatalf("paths not all exercised: coarse pass %d, coarse collide %d, fine %d, exact fallback %d", pass, collide, fine, fallback)
	}
}

// FuzzSettleCaptureMatchesExact decodes a small culled network from
// the input — up to 16 nodes at arbitrary positions and transmit
// powers, one transmitter, 1–8 overlapped interferers and the rest as
// receivers — then applies up to four moves or power changes after
// the rows are taken, as happens to the rows in-flight transmissions
// pin: a short step leaves the rows around the mover patched, a long
// one or a step of the interferer itself leaves rows stale, and a
// power change leaves a row behind its owner's power. For signals at,
// a few ulps around, and clear of each receiver's exact threshold, the
// settled decision must equal the one on the exact seqno-ordered sum.
// The corpus in testdata/fuzz replays on every go test run; fuzz
// further with
// go test -run '^$' -fuzz FuzzSettleCaptureMatchesExact ./internal/sim/
func FuzzSettleCaptureMatchesExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfg := DefaultConfig()
		cfg.Env.ShadowingSigmaDB = 0
		cfg.Env.PathLossExponent = []float64{2.0, 3.3, 3.7, 4.0}[next()%4]
		net := New(cfg)
		r := net.cullRadius(cfg.DefaultTxPowerDBm)
		// Positions are bytes over a span of 1–16 cull radii.
		step := r * float64(1+next()%16) / 255
		pos := func() Position { return Position{X: float64(next()) * step, Y: float64(next()) * step} }
		nodes := make([]*Node, 3+next()%14)
		for i := range nodes {
			nodes[i] = net.AddAP(fmt.Sprintf("n%d", i), pos(), phy.Channel1)
			nodes[i].TxPower += float64(int(next()%13) - 6)
		}
		k := 1 + int(next())%min(8, len(nodes)-2)
		sender, rxs := nodes[0], nodes[1+k:]
		tx := &transmission{row: net.rowFor(sender)}
		for _, o := range nodes[1 : 1+k] {
			tx.overlapped = append(tx.overlapped, &transmission{row: net.rowFor(o)})
		}
		for op := 0; op < 4; op++ {
			o := nodes[int(next())%len(nodes)]
			switch next() % 4 {
			case 1: // a short step: patches, or stale rows at a cell edge
				d := func() float64 { return (float64(next()) - 127.5) * step / 64 }
				net.MoveNode(o, Position{X: o.Pos.X + d(), Y: o.Pos.Y + d()})
			case 2: // anywhere in the span
				net.MoveNode(o, pos())
			case 3: // a transmit power change the rows have not followed
				o.TxPower += float64(int(next()%7) - 3)
			}
		}
		rates := append(phy.Rates[:], phy.GRates[:]...)
		tx.rate = rates[int(next())%len(rates)]
		thr := CaptureThresholdFor(tx.rate, cfg.CaptureThresholdDB)
		noise := net.noiseMW
		exact := make([]float64, len(rxs))
		for j, o := range rxs {
			for _, it := range tx.overlapped {
				exact[j] += net.mwTo(it.row, o)
			}
		}
		// Signals at, a few ulps around, and clear of each receiver's
		// exact threshold.
		signals := make([][]float64, len(rxs))
		for j := range rxs {
			base := thr + mwToDBm(exact[j]+noise)
			signals[j] = []float64{base}
			for _, off := range []float64{1e-12, 1e-10, 1e-9, 3e-9, 1e-7, 1e-3, 0.5, 10} {
				signals[j] = append(signals[j], base+off, base-off)
			}
			up, down := base, base
			for k := 0; k < 3; k++ {
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
				signals[j] = append(signals[j], up, down)
			}
		}
		m := net.mediumFor(phy.Channel1)
		elig := make([]spCand, len(rxs))
		for v := range signals[0] {
			for j, o := range rxs {
				s := signals[j][v]
				elig[j] = spCand{o: o, l: link{dBm: s, mw: dbmToMW(s)}}
			}
			interf := m.interfFor(len(net.nodes))
			m.settleCapture(tx, elig, interf)
			for j, c := range elig {
				want := exact[j] > 0 && c.l.dBm-mwToDBm(exact[j]+noise) < thr
				v := interf[c.o.ID]
				if got := v > 0 && c.l.dBm-mwToDBm(v+noise) < thr; got != want {
					t.Fatalf("receiver %d signal %v rate %v: settled collide=%v (%v), exact sum %v says %v; capture %+v",
						c.o.ID, c.l.dBm, tx.rate, got, v, exact[j], want, net.capture)
				}
			}
		}
	})
}

// TestSpatialCampusMatchesDense is the campus-density twin of
// TestSpatialTraceMatchesDense: a 6×6 grid at 40 m spacing under the
// exponent-4 campus radio, where most overlapping transmitters lie
// beyond the ~60 m cull radius, so capture tests run on interference
// brackets. The culled run must match the forced-dense run bit for
// bit, and must have settled capture tests both from the bracket and
// by the exact fallback.
func TestSpatialCampusMatchesDense(t *testing.T) {
	var pairs, culled int
	run := func(force bool) (uint64, NetStats, *Network) {
		cfg := DefaultConfig()
		cfg.Seed = 23
		cfg.Env.ShadowingSigmaDB = 0
		cfg.Env.PathLossExponent = 4.0
		cfg.ForceDenseLinks = force
		net := New(cfg)
		chans := []phy.Channel{phy.Channel1, phy.Channel6, phy.Channel11}
		rng := rand.New(rand.NewSource(71))
		mix := DefaultMix()
		const side, spacing = 6, 40.0
		for i := 0; i < side*side; i++ {
			c := Position{X: (float64(i%side) + 0.5) * spacing, Y: (float64(i/side) + 0.5) * spacing}
			ap := net.AddAP(fmt.Sprintf("ap%d", i), c, chans[i%len(chans)])
			for k := 0; k < 4; k++ {
				p := Position{X: c.X + (rng.Float64()-0.5)*spacing*0.8, Y: c.Y + (rng.Float64()-0.5)*spacing*0.8}
				st := net.AddStation(fmt.Sprintf("st%d.%d", i, k), p, ap, rate.NewARFFactory())
				st.GCapable = k%2 == 0
				net.StartTraffic(st, net.PickProfile(mix), 2)
			}
		}
		var h obsHash
		net.AddTap(&h)
		if !force {
			net.AddTap(&overlapReach{cull: net.cullRadius(cfg.DefaultTxPowerDBm), pairs: &pairs, culled: &culled})
		}
		net.RunFor(3 * phy.MicrosPerSecond)
		return h.h, net.Stats, net
	}
	spH, spStats, sp := run(false)
	dnH, dnStats, _ := run(true)
	if spH == 0 || spStats.Collisions == 0 {
		t.Fatalf("vacuous campus run: hash %#x, stats %+v", spH, spStats)
	}
	if 2*culled <= pairs {
		t.Fatalf("only %d of %d overlapping pairs lie beyond the cull radius: not campus density", culled, pairs)
	}
	if spH != dnH {
		t.Fatalf("culled campus trace diverges from dense: %#x vs %#x", spH, dnH)
	}
	if spStats != dnStats {
		t.Fatalf("stats diverge:\nsparse: %+v\ndense:  %+v", spStats, dnStats)
	}
	if c := sp.capture; c.coarse == 0 || c.fine == 0 || c.exact == 0 {
		t.Fatalf("capture tests settled by coarse bracket %d, fine bracket %d, exact sum %d: want all > 0",
			c.coarse, c.fine, c.exact)
	}
	t.Logf("%d of %d overlapping pairs culled; capture tests: %d settled by coarse bracket, %d by fine, %d by exact sum",
		culled, pairs, sp.capture.coarse, sp.capture.fine, sp.capture.exact)
}

// overlapReach counts (transmitter, overlapping transmitter) pairs and
// how many of them lie farther apart than the cull radius.
type overlapReach struct {
	cull          float64
	pairs, culled *int
}

func (r *overlapReach) ObserveTransmission(obs TxObservation) {
	for _, it := range obs.Overlapped {
		*r.pairs++
		if it.FromPos.Distance(obs.FromPos) > r.cull {
			*r.culled++
		}
	}
}
