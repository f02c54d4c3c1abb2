package sim

import (
	"wlan80211/internal/phy"
)

// This file adds node mobility: a deterministic waypoint walker that
// moves a node along straight segments at a fixed speed, updating its
// position on a fixed cadence. Each update goes through
// Network.MoveNode, which invalidates the link rows the move can
// change (with sparse rows, only those around the node; otherwise all
// of them) so path loss, carrier sense, and hidden-terminal relations
// follow the node. The walker consumes no randomness, so a scenario's RNG stream — and
// therefore its trace — is a pure function of the seed, mobile or not.

// Mover walks one node through a cyclic list of waypoints.
type Mover struct {
	net      *Network
	node     *Node
	speed    float64 // meters per second
	interval phy.Micros
	points   []Position
	target   int
	stopped  bool
	tick     func()
}

// StartWaypoints attaches a waypoint mobility model to node: it walks
// at speed m/s along straight lines through points, cycling back to
// the first, with the position updated every interval. The first
// update fires one interval after the call.
func (n *Network) StartWaypoints(node *Node, speed float64, interval phy.Micros, points ...Position) *Mover {
	m := &Mover{net: n, node: node, speed: speed, interval: interval, points: points}
	if speed <= 0 || interval <= 0 || len(points) == 0 {
		m.stopped = true
		return m
	}
	m.tick = func() {
		if m.stopped {
			return
		}
		m.step()
		n.q.After(m.interval, m.tick)
	}
	n.q.After(interval, m.tick)
	return m
}

// Stop freezes the node at its current position.
func (m *Mover) Stop() { m.stopped = true }

// step advances one interval's worth of distance along the waypoint
// path, possibly passing through several waypoints (or whole laps of
// the cycle, for fast movers on short paths).
func (m *Mover) step() {
	remaining := m.speed * float64(m.interval) / float64(phy.MicrosPerSecond)
	pos := m.node.Pos
	// zeroHops terminates the walk when the path degenerates to a
	// single point: only zero-progress hops count toward the bound, so
	// legitimate multi-segment (and multi-lap) steps are never cut
	// short.
	zeroHops := 0
	for remaining > 0 && zeroHops <= len(m.points) {
		tgt := m.points[m.target]
		d := pos.Distance(tgt)
		if d <= remaining {
			if d == 0 {
				zeroHops++
			} else {
				zeroHops = 0
			}
			pos = tgt
			remaining -= d
			m.target = (m.target + 1) % len(m.points)
			continue
		}
		f := remaining / d
		pos = Position{X: pos.X + (tgt.X-pos.X)*f, Y: pos.Y + (tgt.Y-pos.Y)*f}
		remaining = 0
	}
	m.net.MoveNode(m.node, pos)
}
