package eventq

import (
	"testing"
	"testing/quick"

	"wlan80211/internal/phy"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func() { got = append(got, 3) })
	q.At(10, func() { got = append(got, 1) })
	q.At(20, func() { got = append(got, 2) })
	q.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d", q.Now())
	}
	if q.Processed() != 3 {
		t.Errorf("Processed = %d", q.Processed())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(5, func() { got = append(got, i) })
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	var q Queue
	var at phy.Micros
	q.At(100, func() {
		q.After(50, func() { at = q.Now() })
	})
	q.Run()
	if at != 150 {
		t.Errorf("After fired at %d, want 150", at)
	}
	// Negative delay clamps to now.
	fired := phy.Micros(-1)
	q.After(-10, func() { fired = q.Now() })
	q.Run()
	if fired != 150 {
		t.Errorf("negative After fired at %d", fired)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var q Queue
	q.At(100, func() {})
	q.Run()
	var at phy.Micros
	q.At(10, func() { at = q.Now() }) // in the past
	q.Run()
	if at != 100 {
		t.Errorf("past event fired at %d, want clamp to 100", at)
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.At(10, func() { fired = true })
	q.At(5, func() {})
	e.Cancel()
	if !e.Cancelled() {
		t.Error("Cancelled() false after Cancel")
	}
	q.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestLenExcludesCancelled(t *testing.T) {
	var q Queue
	e1 := q.At(1, func() {})
	q.At(2, func() {})
	e1.Cancel()
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var got []phy.Micros
	for _, at := range []phy.Micros{10, 20, 30, 40} {
		at := at
		q.At(at, func() { got = append(got, at) })
	}
	q.RunUntil(25)
	if len(got) != 2 {
		t.Errorf("fired %d events, want 2", len(got))
	}
	if q.Now() != 25 {
		t.Errorf("Now = %d, want 25", q.Now())
	}
	q.RunUntil(100)
	if len(got) != 4 {
		t.Errorf("fired %d events total, want 4", len(got))
	}
	if q.Now() != 100 {
		t.Errorf("Now = %d, want 100", q.Now())
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	var q Queue
	e := q.At(5, func() { t.Error("cancelled head fired") })
	q.At(10, func() {})
	e.Cancel()
	q.RunUntil(20)
	if q.Processed() != 1 {
		t.Errorf("Processed = %d", q.Processed())
	}
}

func TestStepEmptyQueue(t *testing.T) {
	var q Queue
	if q.Step() {
		t.Error("Step on empty queue must return false")
	}
}

func TestEventAt(t *testing.T) {
	var q Queue
	e := q.At(42, func() {})
	if e.At() != 42 {
		t.Errorf("At() = %d", e.At())
	}
}

// Property: events always fire in nondecreasing time order regardless
// of insertion order.
func TestMonotonicProperty(t *testing.T) {
	f := func(times []uint32) bool {
		var q Queue
		var fired []phy.Micros
		for _, v := range times {
			at := phy.Micros(v % 10000)
			q.At(at, func() { fired = append(fired, q.Now()) })
		}
		q.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSteadyStateChurnAllocatesNothing pins the queue's zero-alloc
// claim exactly, on any host: once the slab has grown to the pending
// population, scheduling, cancelling, deferring and firing reuse
// slots and never allocate.
func TestSteadyStateChurnAllocatesNothing(t *testing.T) {
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.After(phy.Micros(i%97+1), fn)
	}
	// Every round makes each call once, so one planted allocation in
	// any of them shows as a whole allocation per round.
	i := 0
	churn := func() {
		q.After(phy.Micros(i%131+1), fn).Cancel()
		e := q.After(phy.Micros(i%89+1), fn)
		e.Defer(e.At() + phy.Micros(i%67+1))
		q.Step()
		i++
	}
	for j := 0; j < 10000; j++ {
		churn()
	}
	if n := testing.AllocsPerRun(10000, churn); n != 0 {
		t.Fatalf("steady-state After/Cancel/Defer/Step allocates %v times per round, want 0", n)
	}
	if q.Deferrals() == 0 || q.Cancelled() == 0 {
		t.Fatalf("churn exercised %d deferrals and %d cancels, want both", q.Deferrals(), q.Cancelled())
	}
}
