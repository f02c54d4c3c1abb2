package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"syscall"
	"time"

	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
)

// sample is what the process spent over one measured interval.
type sample struct {
	wall, cpu time.Duration
	// alloc is heap bytes allocated; mallocs the allocation count.
	alloc, mallocs uint64
	gcs            uint32
	pause          time.Duration
}

// meter measures one interval; startMeter collects garbage first so
// every interval starts from the same heap state.
type meter struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

func (m *meter) stop() sample {
	wall := time.Since(m.start)
	cpu := cpuTime()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return sample{
		wall:    wall,
		cpu:     cpu - m.cpu,
		alloc:   mem.TotalAlloc - m.mem.TotalAlloc,
		mallocs: mem.Mallocs - m.mem.Mallocs,
		gcs:     mem.NumGC - m.mem.NumGC,
		pause:   time.Duration(mem.PauseTotalNs - m.mem.PauseTotalNs),
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one traced interval: a phase of a run or one ingest request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a run's root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the benchmark started
	// timing.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps every traced run's spans in memory until the
// benchmark writes them out at the end.
type spanLog struct {
	epoch time.Time
	spans []span
	runs  int
}

func (l *spanLog) newRun() *tracer {
	l.runs++
	return &tracer{log: l, run: l.runs}
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer records the spans of one traced run. A nil *tracer is an
// untraced run: begin and end do nothing and cost nothing.
type tracer struct {
	log *spanLog
	run int
}

// begin opens a span under parent (-1 for none) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.log.epoch)
	t.log.spans = append(t.log.spans, span{
		ID: len(t.log.spans), Parent: parent, Run: t.run, Name: name,
		StartUS: float64(now) / 1e3,
	})
	return len(t.log.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.log.spans[id]
	s.EndUS = float64(time.Since(t.log.epoch)) / 1e3
	return time.Duration((s.EndUS - s.StartUS) * 1e3)
}

// callTimer accumulates the time and count of per-record calls into
// one layer; per-record calls are too many to span.
type callTimer struct {
	d time.Duration
	n int64
}

// wrap returns sink with each call timed into c.
func (c *callTimer) wrap(sink experiment.Sink) experiment.Sink {
	return func(rec capture.Record) {
		t0 := time.Now()
		sink(rec)
		c.d += time.Since(t0)
		c.n++
	}
}

// nsPer divides a duration into per-item nanoseconds (0 for no items).
func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
