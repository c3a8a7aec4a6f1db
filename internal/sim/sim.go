// Package sim provides the discrete-event simulation core used by every
// other subsystem in ccdem: a virtual microsecond clock and an event queue.
//
// The paper's system runs on a real Galaxy S3; this reproduction runs the
// identical control pipeline against a simulated display stack, so all
// timing (V-Sync, governor control periods, Monkey input scripts, Monsoon
// power samples) is expressed in virtual time. The engine is fully
// deterministic: events scheduled for the same instant fire in scheduling
// order, and nothing reads the host clock.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a virtual timestamp or duration in microseconds. Microsecond
// resolution comfortably covers everything the reproduction needs: the
// fastest recurring activity is the Monsoon-style power sampler at 5 kHz
// (200 µs) and the shortest display interval is 1/60 s (16667 µs).
type Time int64

// Convenient duration units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Time, rounded to the
// nearest microsecond, so FromSeconds(t.Seconds()) == t for every t up
// to 2^50 µs.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Hz returns the period of a rate given in events per second. Hz(60) is the
// 60 Hz V-Sync interval. It panics on non-positive rates, which are always
// programming errors in this codebase.
func Hz(rate float64) Time {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: non-positive rate %v", rate))
	}
	return Time(float64(Second) / rate)
}

// event is a scheduled callback. Fired and canceled events are recycled
// through the engine's free list, so steady-state scheduling (V-Sync,
// pacers, governor ticks) allocates nothing; gen guards stale Handles
// against acting on a recycled slot.
type event struct {
	at  Time
	seq uint64 // tie-breaker preserving scheduling order
	fn  func()

	index    int // heap index, -1 once popped
	canceled bool
	gen      uint64 // bumped on every recycle; Handles capture it
	nextFree *event // free-list link, nil while scheduled
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use with the clock at t=0.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	free   *event // recycled events, reused by At/After/Every
}

// allocEvent takes an event from the free list, or allocates a fresh one.
func (e *Engine) allocEvent() *event {
	if ev := e.free; ev != nil {
		e.free = ev.nextFree
		ev.nextFree = nil
		return ev
	}
	return &event{}
}

// recycleEvent returns a popped event to the free list. The generation
// bump invalidates any Handle still pointing at it.
func (e *Engine) recycleEvent(ev *event) {
	ev.fn = nil
	ev.canceled = false
	ev.gen++
	ev.nextFree = e.free
	e.free = ev
}

// NewEngine returns a fresh engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to its initial state — clock at zero, no
// scheduled events — while keeping the event free list, so a recycled
// engine schedules its next run's events allocation-free. Every
// outstanding Handle and Ticker is invalidated: pending events are
// recycled (generation-bumped), never fired.
func (e *Engine) Reset() {
	for _, ev := range e.events {
		ev.index = -1
		e.recycleEvent(ev)
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-fired events (including
// canceled events that have not been reaped).
func (e *Engine) Pending() int { return len(e.events) }

// Handle identifies a scheduled event and allows cancellation.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op (the event slot may since have been
// recycled for an unrelated event; the generation check keeps a stale
// Handle from touching it). Cancel on a zero Handle is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.canceled = true
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) is an error in simulation logic and panics.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.allocEvent()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	heap.Push(&e.events, ev)
	return Handle{ev, ev.gen}
}

// After schedules fn to run d microseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run first at time start and then every period
// thereafter, until the returned Ticker is stopped. The period must be
// positive.
func (e *Engine) Every(start, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	// Bind the tick method value once: rescheduling with t.tick directly
	// would allocate a fresh bound-method closure on every tick.
	t.tickFn = t.tick
	t.handle = e.At(start, t.tickFn)
	return t
}

// Ticker is a recurring event created by Engine.Every.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	tickFn  func() // t.tick, bound once
	handle  Handle
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have called Stop
		t.handle = t.eng.After(t.period, t.tickFn)
	}
}

// Stop cancels all future ticks. Safe to call multiple times and from
// within the tick callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired (false when the queue is empty).
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.canceled {
			e.recycleEvent(ev)
			continue
		}
		at, fn := ev.at, ev.fn
		// Recycle before firing: fn may schedule new events, which can then
		// reuse this slot; the generation bump keeps stale Handles inert.
		e.recycleEvent(ev)
		e.now = at
		fn()
		return true
	}
	return false
}

// RunUntil fires every event scheduled strictly before or at time t and
// then advances the clock to exactly t. Events scheduled during the run are
// honored if they fall within the horizon.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) is before now %v", t, e.now))
	}
	for len(e.events) > 0 {
		// Peek.
		next := e.events[0]
		if next.canceled {
			heap.Pop(&e.events)
			e.recycleEvent(next)
			continue
		}
		if next.at > t {
			break
		}
		heap.Pop(&e.events)
		at, fn := next.at, next.fn
		e.recycleEvent(next)
		e.now = at
		fn()
	}
	e.now = t
}

// Run drains the event queue completely. Use with care: recurring tickers
// never drain, so most callers want RunUntil.
func (e *Engine) Run() {
	for e.Step() {
	}
}
