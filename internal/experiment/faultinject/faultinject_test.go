package faultinject

import "testing"

// fire replaces Crash with a recorder for the duration of f and
// returns the plans that fired.
func fire(t *testing.T, f func()) []Plan {
	t.Helper()
	var fired []Plan
	old := Crash
	Crash = func(p Plan) { fired = append(fired, p) }
	defer func() { Crash = old }()
	f()
	return fired
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	fired := fire(t, func() {
		in.AfterRun(0)
		if in.JournalWrite(0) {
			t.Error("nil injector armed a journal tear")
		}
		in.CrashNow()
	})
	if len(fired) != 0 {
		t.Fatalf("nil injector fired %v", fired)
	}
	if New(Plan{Point: None}) != nil {
		t.Fatal("None plan should yield a nil injector")
	}
}

func TestInjectorFiresExactlyOnce(t *testing.T) {
	plan := Plan{Point: AfterRun, Run: 2}
	in := New(plan)
	fired := fire(t, func() {
		in.AfterRun(0)
		in.AfterRun(1)
		if in.JournalWrite(2) { // wrong point kind: must not arm
			t.Error("after-run plan armed a journal tear")
		}
		in.AfterRun(2)
		in.AfterRun(2) // already fired: must not fire again
		in.AfterRun(3)
	})
	if len(fired) != 1 || fired[0] != plan {
		t.Fatalf("fired = %v, want exactly %v", fired, plan)
	}
}

func TestJournalWriteSplitArming(t *testing.T) {
	in := New(Plan{Point: JournalWrite, Run: 1})
	if in.JournalWrite(0) {
		t.Fatal("armed for the wrong run")
	}
	if !in.JournalWrite(1) {
		t.Fatal("not armed for the planned run")
	}
	fired := fire(t, func() { in.CrashNow(); in.CrashNow() })
	if len(fired) != 1 {
		t.Fatalf("CrashNow fired %d times", len(fired))
	}
	if in.JournalWrite(1) {
		t.Fatal("still armed after firing")
	}
}

func TestScheduleDeterministicAndInRange(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := Schedule(seed, 7)
		if p != Schedule(seed, 7) {
			t.Fatalf("seed %d: schedule not deterministic", seed)
		}
		if p.Point != AfterRun && p.Point != JournalWrite {
			t.Fatalf("seed %d: invalid point %v", seed, p.Point)
		}
		if p.Run < 0 || p.Run >= 7 {
			t.Fatalf("seed %d: run %d out of range", seed, p.Run)
		}
	}
	// Degenerate bounds clamp instead of dividing by zero.
	if p := Schedule(1, 0); p.Run != 0 {
		t.Fatalf("clamped schedule = %+v", p)
	}
}

func TestCrashedIsError(t *testing.T) {
	var err error = Crashed{Plan: Plan{Point: JournalWrite, Run: 3}}
	want := "faultinject: injected crash at journal-write run=3"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}
