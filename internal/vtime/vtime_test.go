package vtime

import (
	"runtime"
	"testing"
	"time"
)

func TestVirtualClockAdvance(t *testing.T) {
	c := NewClock(Virtual, time.Now())
	if c.Now() != 0 {
		t.Errorf("fresh clock = %v", c.Now())
	}
	c.Advance(1.25)
	c.Advance(0.75)
	if c.Now() != 2.0 {
		t.Errorf("clock = %v, want 2", c.Now())
	}
	c.Advance(-5) // ignored
	if c.Now() != 2.0 {
		t.Errorf("negative advance moved clock: %v", c.Now())
	}
}

func TestVirtualAdvanceToMonotone(t *testing.T) {
	c := NewClock(Virtual, time.Now())
	c.Advance(3)
	c.AdvanceTo(2) // in the past: ignored
	if c.Now() != 3 {
		t.Errorf("clock went backwards: %v", c.Now())
	}
	c.AdvanceTo(5)
	if c.Now() != 5 {
		t.Errorf("AdvanceTo failed: %v", c.Now())
	}
}

func TestFork(t *testing.T) {
	c := NewClock(Virtual, time.Now())
	c.Advance(1)
	f := c.Fork()
	if f.Now() != 1 {
		t.Errorf("fork starts at %v, want 1", f.Now())
	}
	f.Advance(1)
	if c.Now() != 1 {
		t.Errorf("child advance moved parent: %v", c.Now())
	}
	if f.Mode() != c.Mode() {
		t.Error("fork changed mode")
	}
}

func TestRealClockTracksWall(t *testing.T) {
	epoch := time.Now()
	c := NewClock(Real, epoch)
	t0 := c.Now()
	time.Sleep(10 * time.Millisecond)
	t1 := c.Now()
	if t1-t0 < 0.005 {
		t.Errorf("real clock did not advance: %v -> %v", t0, t1)
	}
	// AdvanceTo is a no-op in real mode.
	c.AdvanceTo(1e9)
	if c.Now() > 1e6 {
		t.Error("AdvanceTo affected a real clock")
	}
}

func TestModeString(t *testing.T) {
	if Virtual.String() != "virtual" || Real.String() != "real" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "unknown" {
		t.Error("unknown mode string")
	}
}

func TestSpinAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("real spin in -short mode")
	}
	if runtime.NumCPU() < 2 {
		// Contended single-CPU runs (full suite, race detector) stretch
		// the spin arbitrarily; only the lower bound would be meaningful.
		t.Skip("needs an uncontended CPU for timing accuracy")
	}
	Calibrate()
	const want = 20 * time.Millisecond
	start := time.Now()
	Spin(want.Seconds())
	got := time.Since(start)
	if got < want*8/10 || got > want*3 {
		t.Errorf("Spin(%v) took %v", want, got)
	}
}

func TestSpinZeroNegative(t *testing.T) {
	start := time.Now()
	Spin(0)
	Spin(-1)
	if time.Since(start) > 50*time.Millisecond {
		t.Error("zero/negative spin took too long")
	}
}

func TestRealAdvanceSpins(t *testing.T) {
	if testing.Short() {
		t.Skip("real spin in -short mode")
	}
	c := NewClock(Real, time.Now())
	start := time.Now()
	c.Advance(0.02)
	if time.Since(start) < 15*time.Millisecond {
		t.Error("real-mode Advance returned too quickly")
	}
}

// TestSpinStopsAtFirstCheckPastDeadline drives Spin's loop on a fake
// clock: whatever the host does to the chunks (run them on time, slow
// them down, preempt one for 50ms), no chunk exceeds 2ms or the time
// left, the loop returns only once the clock has reached d, and it
// runs no chunk after the first check that shows d has passed.
func TestSpinStopsAtFirstCheckPastDeadline(t *testing.T) {
	const d = 0.011
	for _, tc := range []struct {
		name string
		// wall is how long the host takes for chunk i of ns nanoseconds;
		// the fake clock adds 1µs to each, what a chunk and a clock read
		// cost at the least.
		wall func(i int, ns float64) time.Duration
	}{
		{"on time", func(_ int, ns float64) time.Duration { return time.Duration(ns) }},
		{"slowed", func(_ int, ns float64) time.Duration { return time.Duration(1.7 * ns) }},
		{"fast", func(_ int, ns float64) time.Duration { return time.Duration(0.4 * ns) }},
		{"preempted", func(i int, ns float64) time.Duration {
			if i == 2 {
				return time.Duration(ns) + 50*time.Millisecond
			}
			return time.Duration(ns)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(1000, 0)
			deadline := start.Add(time.Duration(d * float64(time.Second)))
			clock := start
			var checks []time.Time // clock readings after the start
			var chunks []float64
			first := true
			now := func() time.Time {
				if !first {
					checks = append(checks, clock)
				}
				first = false
				return clock
			}
			spinUntil(d, now, func(ns float64) {
				left := d * 1e9
				if len(checks) > 0 {
					left = float64(deadline.Sub(checks[len(checks)-1]))
				}
				if ns <= 0 || ns > maxChunkNs || ns > left || len(chunks) > 1000 {
					t.Fatalf("chunk %d of %vns with %vns left", len(chunks), ns, left)
				}
				clock = clock.Add(tc.wall(len(chunks), ns) + time.Microsecond)
				chunks = append(chunks, ns)
			})
			if len(checks) != len(chunks) {
				t.Fatalf("%d chunks but %d deadline checks", len(chunks), len(checks))
			}
			for i, c := range checks {
				past := !c.Before(deadline)
				if last := i == len(checks)-1; past != last {
					t.Fatalf("check %d at +%v: past deadline %v, but it is the last check: %v",
						i, c.Sub(start), past, last)
				}
			}
		})
	}
}
