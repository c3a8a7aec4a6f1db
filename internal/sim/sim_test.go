package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := FromSeconds(0.25); got != 250*Millisecond {
		t.Errorf("FromSeconds(0.25) = %v, want 250ms", got)
	}
	// 0.000249 s is 248.99999999999997 µs in float64, so truncating
	// would return 248.
	if got := FromSeconds(0.000249); got != 249*Microsecond {
		t.Errorf("FromSeconds(0.000249) = %d µs, want 249", int64(got))
	}
	if got := FromSeconds(-0.000249); got != -249*Microsecond {
		t.Errorf("FromSeconds(-0.000249) = %d µs, want -249", int64(got))
	}
	if got := Hz(60); got != Time(16666) {
		t.Errorf("Hz(60) = %d µs, want 16666", got)
	}
	if got := Hz(20); got != 50*Millisecond {
		t.Errorf("Hz(20) = %v, want 50ms", got)
	}
}

// TestFromSecondsRoundTrip: every whole microsecond survives the trip
// through float seconds — the first five million exhaustively, then a
// random sweep up to 2^50 µs.
func TestFromSecondsRoundTrip(t *testing.T) {
	for v := Time(0); v < 5000000; v++ {
		if got := FromSeconds(v.Seconds()); got != v {
			t.Fatalf("FromSeconds(%v µs .Seconds()) = %d µs", int64(v), int64(got))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000000; i++ {
		v := Time(rng.Int63n(1 << 50))
		if got := FromSeconds(v.Seconds()); got != v {
			t.Fatalf("FromSeconds(%d µs .Seconds()) = %d µs", int64(v), int64(got))
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Errorf("String() = %q, want %q", got, "1.500s")
	}
}

func TestHzPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hz(0) did not panic")
		}
	}()
	Hz(0)
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Millisecond, func() { got = append(got, 3) })
	e.At(10*Millisecond, func() { got = append(got, 1) })
	e.At(20*Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("firing order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30*Millisecond {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10*Millisecond, func() {
		e.After(5*Millisecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 15*Millisecond {
		t.Errorf("nested After fired at %v, want 15ms", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10*Millisecond, func() { fired = true })
	h.Cancel()
	h.Cancel() // double-cancel is a no-op
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	Handle{}.Cancel() // zero handle is a no-op
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at * Millisecond
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 25*Millisecond {
		t.Errorf("Now() = %v, want 25ms", e.Now())
	}
	e.RunUntil(100 * Millisecond)
	if len(fired) != 4 {
		t.Errorf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100*Millisecond {
		t.Errorf("Now() = %v, want 100ms", e.Now())
	}
}

func TestEngineRunUntilIncludesBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(50*Millisecond, func() { fired = true })
	e.RunUntil(50 * Millisecond)
	if !fired {
		t.Error("event at the RunUntil boundary did not fire")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10 * Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5*Millisecond, func() {})
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.Every(10*Millisecond, 20*Millisecond, func() {
		ticks = append(ticks, e.Now())
	})
	e.RunUntil(75 * Millisecond)
	tk.Stop()
	e.RunUntil(200 * Millisecond)
	want := []Time{10, 30, 50, 70}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want times %v (ms)", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i]*Millisecond {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i]*Millisecond)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(0, 10*Millisecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(Second)
	if n != 3 {
		t.Errorf("ticker fired %d times after in-callback Stop, want 3", n)
	}
}

// Property: for any batch of events with random times, the engine fires
// them in non-decreasing time order and the clock matches each event's
// scheduled time.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delaysRaw {
			at := Time(d) * Microsecond
			at2 := at
			e.At(at, func() {
				if e.Now() != at2 {
					t.Errorf("clock %v != scheduled %v", e.Now(), at2)
				}
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving RunUntil horizons never changes the set of fired
// events compared with a single Run, for events within the final horizon.
func TestEngineRunUntilEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		times := make([]Time, 40)
		for i := range times {
			times[i] = Time(rng.Intn(100000))
		}
		run := func(horizons []Time) []Time {
			e := NewEngine()
			var fired []Time
			for _, at := range times {
				at := at
				e.At(at, func() { fired = append(fired, at) })
			}
			for _, h := range horizons {
				e.RunUntil(h)
			}
			return fired
		}
		single := run([]Time{100000})
		split := run([]Time{25000, 50000, 75000, 100000})
		if len(single) != len(split) {
			t.Fatalf("iter %d: single fired %d, split fired %d", iter, len(single), len(split))
		}
		for i := range single {
			if single[i] != split[i] {
				t.Fatalf("iter %d: event %d differs: %v vs %v", iter, i, single[i], split[i])
			}
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending() after Run = %d, want 0", e.Pending())
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97)*Millisecond, func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineSteadyState measures the schedule-fire-recycle cycle the
// simulation actually runs in steady state: a handful of self-rescheduling
// events (V-Sync, pacers, tickers) firing forever. With the event free list
// this path allocates nothing; each iteration is one fired event.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	for j := 0; j < 8; j++ {
		period := Time(j+1) * Millisecond
		var fn func()
		fn = func() { e.After(period, fn) }
		e.After(period, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestEngineSteadyStateZeroAlloc pins the event pool's contract: a warmed
// engine running schedule-fire-recycle cycles (the V-Sync / ticker shape)
// allocates nothing per event.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	var fn func()
	fn = func() { e.After(Millisecond, fn) }
	e.After(Millisecond, fn)
	for i := 0; i < 100; i++ { // warm the free list and heap storage
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Errorf("steady-state Step allocates %.1f per event, want 0", allocs)
	}
}

// TestTickerSteadyStateZeroAlloc covers the Every path: recurring ticks
// must reuse the bound tick closure and pooled events.
func TestTickerSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Every(Millisecond, Millisecond, func() { n++ })
	for i := 0; i < 100; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Errorf("steady-state ticker allocates %.1f per tick, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}
