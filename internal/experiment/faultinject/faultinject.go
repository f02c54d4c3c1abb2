// Package faultinject is the deterministic crash harness for
// crash-resume testing of sweep campaigns. A Plan names one crash
// point — after run K commits, or midway through run K's journal
// write — and an Injector arms it
// inside the campaign runner. Crashes are delivered through the
// overridable Crash hook: in-process tests install a panic they
// recover from; the CI smoke job instead SIGKILLs the real process,
// which this package exists to make reproducible in-tree.
//
// Schedules are pure functions of a seed, so a failing crash point is
// re-run exactly: same seed, same plan, same crash instant.
package faultinject

import "fmt"

// Point is a crash-point kind.
type Point uint8

const (
	// None disables injection.
	None Point = iota
	// AfterRun crashes immediately after run K's completion record is
	// durably journaled (the resume must skip K and everything before).
	AfterRun
	// JournalWrite crashes midway through writing run K's journal
	// record, leaving a torn tail line (the resume must detect it via
	// the per-record checksum, truncate it, and re-run K).
	JournalWrite
)

func (p Point) String() string {
	switch p {
	case None:
		return "none"
	case AfterRun:
		return "after-run"
	case JournalWrite:
		return "journal-write"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// Plan is one scheduled crash.
type Plan struct {
	Point Point
	// Run is the zero-based run index the point applies to.
	Run int
}

func (p Plan) String() string {
	return fmt.Sprintf("%s run=%d", p.Point, p.Run)
}

// Schedule derives a crash plan from a seed, deterministically: the
// same (seed, totalRuns) always yields the same plan. The point kind
// and victim run come from independent splitmix64 draws.
func Schedule(seed int64, totalRuns int) Plan {
	if totalRuns < 1 {
		totalRuns = 1
	}
	s := uint64(seed)
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	return Plan{
		Point: Point(1 + next()%2),
		Run:   int(next() % uint64(totalRuns)),
	}
}

// Crashed is the value the default Crash hook panics with; tests
// recover it to distinguish an injected crash from a real failure.
type Crashed struct {
	Plan Plan
}

func (c Crashed) Error() string {
	return fmt.Sprintf("faultinject: injected crash at %s", c.Plan)
}

// Crash delivers an armed crash. The default panics with Crashed —
// the in-process analogue of a SIGKILL: no deferred cleanup in the
// campaign runner is given a chance to tidy partial state (the runner
// has none; crash-consistency comes from atomic writes, not
// shutdown paths). Tests may replace it to observe arming.
var Crash = func(plan Plan) {
	panic(Crashed{Plan: plan})
}

// Injector arms a plan inside a campaign runner. A nil *Injector is
// inert, so call sites need no guards. Methods are not concurrency-
// safe beyond their single matching run — campaigns under injection
// run single-worker so the crash instant is reproducible.
type Injector struct {
	plan  Plan
	fired bool
}

// New arms plan. A None plan yields an inert injector.
func New(plan Plan) *Injector {
	if plan.Point == None {
		return nil
	}
	return &Injector{plan: plan}
}

// Plan returns the armed plan (zero Plan when inert).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// AfterRun crashes if the plan is AfterRun for this run index.
func (in *Injector) AfterRun(run int) {
	if in == nil || in.fired || in.plan.Point != AfterRun || run != in.plan.Run {
		return
	}
	in.fired = true
	Crash(in.plan)
}

// JournalWrite reports whether the plan is to tear this run's journal
// record. The caller writes the torn prefix itself, then must call
// CrashNow — splitting the decision from the crash lets the tear land
// exactly mid-write.
func (in *Injector) JournalWrite(run int) bool {
	return in != nil && !in.fired && in.plan.Point == JournalWrite && run == in.plan.Run
}

// CrashNow fires the armed crash unconditionally (used with
// JournalWrite after the torn bytes are on disk).
func (in *Injector) CrashNow() {
	if in == nil || in.fired {
		return
	}
	in.fired = true
	Crash(in.plan)
}
