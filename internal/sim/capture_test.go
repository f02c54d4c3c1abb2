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
// decision on the exact seqno-ordered sum. Clear-cut signals must be
// settled by the bracket in both directions and the near-threshold
// ones must reach the exact fallback, so neither path goes untested.
func TestSettleCaptureMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pass, collide, fallback int
	for _, exp := range []float64{2.0, 3.3, 3.7, 4.0} {
		cfg := DefaultConfig()
		cfg.Env.ShadowingSigmaDB = 0
		cfg.Env.PathLossExponent = exp
		net := New(cfg)
		r := net.cullRadius(cfg.DefaultTxPowerDBm)
		rx := net.AddAP("rx", Position{}, phy.Channel1)
		// One near interferer (stored in its row) and several beyond
		// the 3×3-cell neighborhood its row stores (recomputed from
		// the row's position).
		var overlapped []*transmission
		near := 0
		for i, k := range []float64{0.2, 3.1, 3.9, 5.5, 9.5} {
			a := rng.Float64() * 2 * math.Pi
			o := net.AddAP(fmt.Sprintf("i%d", i), Position{X: k * r * math.Cos(a), Y: k * r * math.Sin(a)}, phy.Channel1)
			row := net.rowFor(o)
			if _, ok := row.linkTo(rx); ok {
				near++
			}
			overlapped = append(overlapped, &transmission{row: row})
		}
		if near != 1 {
			t.Fatalf("exp %v: %d interferers stored in their rows, want 1 near and the rest culled", exp, near)
		}
		m := net.mediumFor(phy.Channel1)
		noise := net.noiseMW
		for sub := 1; sub <= len(overlapped); sub++ {
			tx := &transmission{overlapped: overlapped[:sub]}
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
					before := net.capture.exact
					m.settleCapture(tx, []spCand{{o: rx, l: link{dBm: s}}}, interf)
					v := interf[rx.ID]
					got := v > 0 && s-mwToDBm(v+noise) < thr
					if got != want {
						t.Fatalf("exp %v rate %v %d interferers signal %v: settled collide=%v, exact sum says %v (exact SINR %v, thr %v, settled %v)",
							exp, rt, sub, s, got, want, s-iDBm, thr, v)
					}
					switch {
					case net.capture.exact > before:
						fallback++
					case v == 0:
						pass++
					default:
						collide++
					}
				}
			}
		}
	}
	if pass == 0 || collide == 0 || fallback == 0 {
		t.Fatalf("paths not all exercised: bracket pass %d, bracket collide %d, exact fallback %d", pass, collide, fallback)
	}
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
	if sp.capture.bracket == 0 || sp.capture.exact == 0 {
		t.Fatalf("capture tests settled by bracket %d, by exact sum %d: want both > 0",
			sp.capture.bracket, sp.capture.exact)
	}
	t.Logf("%d of %d overlapping pairs culled; capture tests: %d settled by bracket, %d by exact sum",
		culled, pairs, sp.capture.bracket, sp.capture.exact)
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
