package sim

import (
	"testing"

	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// mediumTestNet builds a bare network (no APs, no beacons) with nodes
// placed directly, for driving the medium by hand.
func mediumTestNet(seed int64, positions ...Position) (*Network, *medium, []*Node) {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Env.ShadowingSigmaDB = 0 // deterministic radio
	net := New(cfg)
	nodes := make([]*Node, len(positions))
	for i, pos := range positions {
		nodes[i] = net.newNode("n", pos, phy.Channel1)
	}
	return net, net.mediumFor(phy.Channel1), nodes
}

func TestCaptureThresholdForScalesPerRate(t *testing.T) {
	const base = 10.0
	cases := []struct {
		rate phy.Rate
		want float64
	}{
		{phy.Rate1Mbps, 4.0},   // DBPSK: most robust, 40% of base
		{phy.Rate2Mbps, 6.0},   // DQPSK
		{phy.Rate5_5Mbps, 8.0}, // CCK-5.5
		{phy.Rate11Mbps, 10.0}, // CCK-11: full base threshold
	}
	for _, c := range cases {
		if got := CaptureThresholdFor(c.rate, base); got != c.want {
			t.Errorf("CaptureThresholdFor(%v, %v) = %v, want %v", c.rate, base, got, c.want)
		}
	}
	// Ordering is what makes slow-rate capture meaningful: thresholds
	// must be strictly increasing with rate.
	for i := 1; i < len(cases); i++ {
		a := CaptureThresholdFor(cases[i-1].rate, base)
		b := CaptureThresholdFor(cases[i].rate, base)
		if a >= b {
			t.Errorf("threshold not increasing: %v(%v) >= %v(%v)", a, cases[i-1].rate, b, cases[i].rate)
		}
	}
}

// TestHalfDuplexDeafness: a node transmitting during any part of a
// frame cannot receive it — and must not be counted as a collision
// victim, even when a third transmitter would have broken capture.
func TestHalfDuplexDeafness(t *testing.T) {
	run := func(receiverTransmits bool) (acks int64, collisions int64) {
		// a → b data; c is an equal-power interferer next to b, so the
		// SINR at b fails the capture check whenever c overlaps.
		net, m, nodes := mediumTestNet(1,
			Position{X: 0, Y: 0},  // a
			Position{X: 20, Y: 0}, // b
			Position{X: 40, Y: 0}, // c: symmetric to a around b
		)
		a, b, c := nodes[0], nodes[1], nodes[2]
		data := dot11.NewData(b.Addr, a.Addr, a.Addr, 1, make([]byte, 1000))
		net.Schedule(0, func() { m.transmit(a, data, phy.Rate1Mbps) }) // ~8 ms airtime
		interf := dot11.NewData(c.Addr, c.Addr, c.Addr, 2, make([]byte, 1000))
		net.Schedule(500, func() { m.transmit(c, interf, phy.Rate1Mbps) })
		if receiverTransmits {
			ack := dot11.NewACK(a.Addr)
			net.Schedule(1000, func() { m.transmit(b, ack, phy.ControlRate) })
		}
		net.RunUntil(phy.MicrosPerSecond)
		return net.Stats.ACKSent, net.Stats.Collisions
	}

	// Baseline: b silent, c's overlap breaks capture at b — a real
	// collision, no delivery (so no ACK response is scheduled).
	acks, collisions := run(false)
	if acks != 0 {
		t.Errorf("collided frame must not be delivered (ACKSent = %d)", acks)
	}
	if collisions == 0 {
		t.Error("interferer must register a collision at the silent receiver")
	}

	// Deaf receiver: b transmitted during a's frame. Still no
	// delivery, but the loss is half-duplex deafness, not a collision
	// — the collision counter must not be inflated by deaf nodes.
	acks, collisions = run(true)
	if acks != 0 {
		t.Errorf("deaf receiver must not decode (ACKSent = %d)", acks)
	}
	if collisions != 0 {
		t.Errorf("deaf receiver counted as collision victim %d times", collisions)
	}
}

// TestCarrierSenseDeltasAcrossOverlap walks a listener's busyCount
// through two overlapping transmissions: 0→1→2→1→0.
func TestCarrierSenseDeltasAcrossOverlap(t *testing.T) {
	net, m, nodes := mediumTestNet(2,
		Position{X: 0, Y: 0}, // tx1
		Position{X: 6, Y: 0}, // tx2
		Position{X: 3, Y: 3}, // listener senses both
	)
	tx1, tx2, l := nodes[0], nodes[1], nodes[2]

	f1 := dot11.NewData(l.Addr, tx1.Addr, tx1.Addr, 1, make([]byte, 800))
	f2 := dot11.NewData(l.Addr, tx2.Addr, tx2.Addr, 2, make([]byte, 400))

	var trace []int
	snap := func() { trace = append(trace, l.busyCount) }

	net.Schedule(0, func() { m.transmit(tx1, f1, phy.Rate1Mbps) }) // ends ≈6592µs
	net.Schedule(100, snap)
	net.Schedule(1000, func() { m.transmit(tx2, f2, phy.Rate1Mbps) }) // ends ≈4392µs
	net.Schedule(1100, snap)
	net.Schedule(5000, snap) // tx2 done, tx1 still on air
	net.Schedule(8000, snap) // both done
	net.RunUntil(phy.MicrosPerSecond)

	want := []int{1, 2, 1, 0}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("busyCount trace = %v, want %v", trace, want)
		}
	}
}

// TestCarrierSenseHiddenTerminal: a transmitter below the energy-detect
// threshold at the listener must not move its busy count.
func TestCarrierSenseHiddenTerminal(t *testing.T) {
	net, m, nodes := mediumTestNet(3,
		Position{X: 0, Y: 0},    // far transmitter
		Position{X: 1500, Y: 0}, // listener: well below -82 dBm from 1.5 km
	)
	far, l := nodes[0], nodes[1]
	f := dot11.NewData(l.Addr, far.Addr, far.Addr, 1, make([]byte, 800))
	net.Schedule(0, func() { m.transmit(far, f, phy.Rate1Mbps) })
	net.Schedule(100, func() {
		if l.busyCount != 0 {
			t.Errorf("hidden transmitter moved listener busyCount to %d", l.busyCount)
		}
	})
	net.RunUntil(phy.MicrosPerSecond)
}

// TestTransmissionPoolRecycling: overlapping transmissions must each
// return to the pool exactly once, after everything that overlapped
// them has completed.
func TestTransmissionPoolRecycling(t *testing.T) {
	net, m, nodes := mediumTestNet(4,
		Position{X: 0, Y: 0},
		Position{X: 5, Y: 0},
		Position{X: 10, Y: 0},
	)
	for round := 0; round < 3; round++ {
		for i, n := range nodes {
			n := n
			f := dot11.NewData(nodes[(i+1)%3].Addr, n.Addr, n.Addr, uint16(i), make([]byte, 600))
			net.Schedule(net.Now()+phy.Micros(i*200), func() { m.transmit(n, f, phy.Rate1Mbps) })
		}
		net.RunFor(phy.MicrosPerSecond)
		if len(m.active) != 0 {
			t.Fatalf("round %d: %d transmissions stuck on the air", round, len(m.active))
		}
	}
	// All structs back in the pool, no duplicates (a double-put would
	// corrupt the free list).
	seen := map[*transmission]bool{}
	for _, tx := range net.txFree {
		if seen[tx] {
			t.Fatal("transmission returned to the pool twice")
		}
		seen[tx] = true
		if tx.refs != 0 || tx.done || tx.parsed != nil {
			t.Fatalf("pooled transmission not reset: refs=%d done=%v", tx.refs, tx.done)
		}
	}
	// Steady state: the pool never needed more structs than the peak
	// number concurrently on the air plus their overlap holds.
	if len(net.txFree) > 6 {
		t.Errorf("pool grew to %d structs for ≤3 concurrent transmissions", len(net.txFree))
	}
}

// TestActiveSwapDelete covers out-of-order completion: a later, shorter
// transmission completes first, exercising the swap-delete path.
func TestActiveSwapDelete(t *testing.T) {
	net, m, nodes := mediumTestNet(5,
		Position{X: 0, Y: 0},
		Position{X: 5, Y: 0},
	)
	long := dot11.NewData(nodes[1].Addr, nodes[0].Addr, nodes[0].Addr, 1, make([]byte, 1400))
	short := dot11.NewData(nodes[0].Addr, nodes[1].Addr, nodes[1].Addr, 2, make([]byte, 50))
	net.Schedule(0, func() { m.transmit(nodes[0], long, phy.Rate1Mbps) })     // ends late
	net.Schedule(100, func() { m.transmit(nodes[1], short, phy.Rate11Mbps) }) // ends early
	net.Schedule(2000, func() {
		if len(m.active) != 1 {
			t.Errorf("active = %d after short tx completed, want 1", len(m.active))
		}
		if len(m.active) == 1 && m.active[0].from != nodes[0] {
			t.Error("wrong transmission removed from active set")
		}
		if len(m.active) == 1 && m.active[0].activeIdx != 0 {
			t.Errorf("surviving activeIdx = %d, want 0", m.active[0].activeIdx)
		}
	})
	net.RunUntil(phy.MicrosPerSecond)
	if len(m.active) != 0 {
		t.Errorf("active set not drained: %d", len(m.active))
	}
}

// TestMidFlightAddJoinsDueRow adds a node while an in-flight
// transmission holds its sender's row and that row is due for a
// rebuild: the sender moved, or changed power, mid-flight. The
// transmission reads its row as it stands, so the add must extend it
// as it extends a current row: the newcomer's link is stored and
// sensed, so the carrier-sense release visits it, and at the
// completion the newcomer decodes the frame addressed to it (it ACKs).
func TestMidFlightAddJoinsDueRow(t *testing.T) {
	for _, c := range []struct {
		name string
		due  func(net *Network, a *Node)
	}{
		{"moved", func(net *Network, a *Node) { net.MoveNode(a, Position{X: 1, Y: 0}) }},
		{"power", func(net *Network, a *Node) { a.TxPower = 10 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// a sends to the node added next; x lands 5 m from a, and b,
			// 55 m from x, transmits after the add, sensed by x but far
			// too weak to break capture there.
			net, m, nodes := mediumTestNet(1, Position{X: 0, Y: 0}, Position{X: 60, Y: 0})
			a, b := nodes[0], nodes[1]
			xAddr := dot11.AddrFromUint64(uint64(len(net.nodes)) + 0x100)
			end := m.transmit(a, dot11.NewData(xAddr, a.Addr, a.Addr, 1, make([]byte, 1000)), phy.Rate1Mbps)
			row := net.links[a.ID]
			net.Schedule(100, func() {
				c.due(net, a)
				if row.power == a.TxPower && row.epoch == net.posEpoch && !row.stale {
					t.Fatal("the sender's row is not due: the fixture no longer tests a due row")
				}
			})
			var x *Node
			net.Schedule(200, func() { x = net.newNode("x", Position{X: 5, Y: 0}, phy.Channel1) })
			net.Schedule(300, func() { m.transmit(b, dot11.NewData(b.Addr, b.Addr, b.Addr, 2, make([]byte, 1000)), phy.Rate1Mbps) })
			net.RunUntil(end - 1)
			if x.Addr != xAddr || x.busyCount != 1 {
				t.Fatalf("before the completion: newcomer %v (want %v), busy count %d (want 1)", x.Addr, xAddr, x.busyCount)
			}
			if l, ok := row.linkTo(x); !ok || !net.cfg.Env.Senses(l.dBm) {
				t.Fatalf("the add left the newcomer out of the held row (stored %v) or unsensed", ok)
			}
			net.RunUntil(end)
			if net.Stats.ACKSent != 1 || net.Stats.Collisions != 0 {
				t.Fatalf("newcomer decoded %d frames addressed to it, %d collisions; want 1, 0", net.Stats.ACKSent, net.Stats.Collisions)
			}
		})
	}
}
