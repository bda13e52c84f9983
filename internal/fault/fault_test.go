package fault

import (
	"testing"
	"time"

	"repro/internal/machine"
)

func TestScheduledPointFaultIsOneShot(t *testing.T) {
	in := New(1).KillPoint(7, 2)
	if in.ShouldFail(7, 1) {
		t.Fatal("unscheduled point fired")
	}
	if !in.ShouldFail(7, 2) {
		t.Fatal("scheduled point did not fire")
	}
	if in.ShouldFail(7, 2) {
		t.Fatal("scheduled point fired twice; replay would never converge")
	}
	if got := in.PointFaults(); got != 1 {
		t.Fatalf("PointFaults = %d, want 1", got)
	}
}

func TestRateIsDeterministicAcrossInjectors(t *testing.T) {
	a := New(99).SetRate(0.05, 0)
	b := New(99).SetRate(0.05, 0)
	fired := 0
	for s := int64(1); s <= 200; s++ {
		for p := 0; p < 4; p++ {
			fa, fb := a.ShouldFail(s, p), b.ShouldFail(s, p)
			if fa != fb {
				t.Fatalf("same seed diverged at stream %d point %d", s, p)
			}
			if fa {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("rate 0.05 over 800 points fired nothing")
	}
	// A different seed must give a different schedule.
	c := New(100).SetRate(0.05, 0)
	same := true
	for s := int64(1); s <= 200 && same; s++ {
		for p := 0; p < 4; p++ {
			if c.ShouldFail(s, p) != a.ShouldFail(s, p) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical schedules")
	}
}

func TestRateMaxBoundsFires(t *testing.T) {
	in := New(3).SetRate(1, 2)
	n := 0
	for s := int64(1); s <= 50; s++ {
		if in.ShouldFail(s, 0) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("rate max 2 fired %d times", n)
	}
}

func TestStreamZeroNeverFails(t *testing.T) {
	in := New(4).SetRate(1, 0)
	if in.ShouldFail(0, 0) || in.ShouldFail(-1, 3) {
		t.Fatal("unlogged launches (stream <= 0) must never be injected")
	}
}

func TestDeadProcsFireOnceAtTheirTime(t *testing.T) {
	in := New(5).KillProc(2, 100*time.Microsecond).KillProc(5, 300*time.Microsecond)
	if got := in.DeadProcs(50 * time.Microsecond); len(got) != 0 {
		t.Fatalf("premature kill: %v", got)
	}
	got := in.DeadProcs(150 * time.Microsecond)
	if len(got) != 1 || got[0] != machine.ProcID(2) {
		t.Fatalf("DeadProcs(150us) = %v, want [2]", got)
	}
	if got := in.DeadProcs(200 * time.Microsecond); len(got) != 0 {
		t.Fatalf("proc kill fired twice: %v", got)
	}
	got = in.DeadProcs(time.Millisecond)
	if len(got) != 1 || got[0] != machine.ProcID(5) {
		t.Fatalf("DeadProcs(1ms) = %v, want [5]", got)
	}
	if in.ProcKills() != 2 {
		t.Fatalf("ProcKills = %d, want 2", in.ProcKills())
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("point@40:2, proc@1:500us, rate:0.25:3", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !in.ShouldFail(40, 2) {
		t.Fatal("parsed point fault did not fire")
	}
	if got := in.DeadProcs(time.Millisecond); len(got) != 1 || got[0] != machine.ProcID(1) {
		t.Fatalf("parsed proc kill = %v", got)
	}
	if in.rate != 0.25 || in.rateMax != 3 {
		t.Fatalf("parsed rate = %v max %d", in.rate, in.rateMax)
	}
	if _, err := Parse("", 0); err != nil {
		t.Fatalf("empty spec should parse: %v", err)
	}
	for _, bad := range []string{"point@x:1", "proc@1", "rate:2", "nonsense", "point@0:1", "rate:NaN", "lag:NaN:1ms"} {
		if _, err := Parse(bad, 0); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestRateForMTBF(t *testing.T) {
	if got := RateForMTBF(100, 4); got != 1.0/400 {
		t.Fatalf("RateForMTBF(100,4) = %v", got)
	}
	if RateForMTBF(0, 4) != 0 || RateForMTBF(10, 0) != 0 {
		t.Fatal("degenerate MTBF inputs must give rate 0")
	}
}

func TestDelaySchedulesAreOneShot(t *testing.T) {
	in := New(1).
		SlowPoint(5, 1, 10*time.Millisecond).
		StallLaunch(9, 20*time.Millisecond)
	if d := in.Delay(5, 0); d != 0 {
		t.Fatalf("unscheduled point delayed %v", d)
	}
	if d := in.Delay(5, 1); d != 10*time.Millisecond {
		t.Fatalf("slow point delay = %v, want 10ms", d)
	}
	if d := in.Delay(5, 1); d != 0 {
		t.Fatal("slow point delayed twice; replay would re-pay the stall")
	}
	// A stalled launch delays every point, each exactly once.
	for p := 0; p < 3; p++ {
		if d := in.Delay(9, p); d != 20*time.Millisecond {
			t.Fatalf("stall point %d delay = %v, want 20ms", p, d)
		}
		if d := in.Delay(9, p); d != 0 {
			t.Fatalf("stall point %d delayed twice", p)
		}
	}
	if got := in.Delays(); got != 4 {
		t.Fatalf("Delays = %d, want 4", got)
	}
	if d := in.Delay(0, 0); d != 0 {
		t.Fatal("stream 0 must never delay")
	}
}

func TestLagIsDeterministicAndDecorrelatedFromRate(t *testing.T) {
	a := New(99).SetLag(0.1, time.Millisecond, 0)
	b := New(99).SetLag(0.1, time.Millisecond, 0)
	faults := New(99).SetRate(0.1, 0)
	lagged, overlap := 0, 0
	for s := int64(1); s <= 200; s++ {
		for p := 0; p < 4; p++ {
			da, db := a.Delay(s, p), b.Delay(s, p)
			if da != db {
				t.Fatalf("same seed diverged at stream %d point %d", s, p)
			}
			f := faults.ShouldFail(s, p)
			if da > 0 {
				lagged++
				if f {
					overlap++
				}
			}
		}
	}
	if lagged < 40 || lagged > 120 {
		t.Fatalf("lag rate 0.1 over 800 points fired %d times", lagged)
	}
	// Same seed, distinct salts: the schedules must not be the same set.
	if overlap == lagged {
		t.Fatal("lag schedule coincides with fault schedule; salts are not decorrelating")
	}
}

func TestLagMaxBoundsDelays(t *testing.T) {
	in := New(3).SetLag(1, time.Millisecond, 5)
	fired := 0
	for s := int64(1); s <= 100; s++ {
		if in.Delay(s, 0) > 0 {
			fired++
		}
	}
	if fired != 5 {
		t.Fatalf("lag max 5 fired %d times", fired)
	}
}

func TestParseDelaySchedules(t *testing.T) {
	in, err := Parse("slow@5:1:10ms, stall@9:20ms, lag:0.5:1ms:7", 7)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Delay(5, 1); d != 10*time.Millisecond {
		t.Fatalf("parsed slow delay = %v", d)
	}
	if d := in.Delay(9, 2); d != 20*time.Millisecond {
		t.Fatalf("parsed stall delay = %v", d)
	}
	if in.lagRate != 0.5 || in.lagDur != time.Millisecond || in.lagMax != 7 {
		t.Fatalf("parsed lag = %v/%v/%d", in.lagRate, in.lagDur, in.lagMax)
	}
	for _, bad := range []string{"slow@1:1", "slow@0:1:1ms", "stall@1", "stall@0:1ms", "lag:2:1ms", "lag:0.5", "lag:0.5:x"} {
		if _, err := Parse(bad, 0); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

// FuzzParse: Parse never panics, and a spec it accepts yields an
// injector whose probabilities lie in [0, 1] and whose times are ≥ 0.
func FuzzParse(f *testing.F) {
	f.Add("point@40:2,proc@1:500us,rate:0.001:3,stall@12:50ms,lag:0.05:5ms:20")
	f.Add("slow@5:1:10ms, stall@9:20ms, lag:0.5:1ms:7")
	f.Add("rate:NaN")
	f.Add("lag:NaN:1ms")
	f.Add("rate:1e-400,lag:+Inf:1ms")
	f.Add("proc@0:-1ns")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil {
			return
		}
		if !(in.rate >= 0 && in.rate <= 1) || !(in.lagRate >= 0 && in.lagRate <= 1) {
			t.Fatalf("%q: rate %v, lag rate %v outside [0, 1]", spec, in.rate, in.lagRate)
		}
		if in.lagDur < 0 || in.rateMax < 0 || in.lagMax < 0 {
			t.Fatalf("%q: lag %v, caps %d/%d negative", spec, in.lagDur, in.rateMax, in.lagMax)
		}
		for _, k := range in.procs {
			if k.at < 0 {
				t.Fatalf("%q: processor kill at %v", spec, k.at)
			}
		}
		for _, d := range in.slowPts {
			if d < 0 {
				t.Fatalf("%q: slow point delay %v", spec, d)
			}
		}
		for _, d := range in.stalls {
			if d < 0 {
				t.Fatalf("%q: stall %v", spec, d)
			}
		}
	})
}
