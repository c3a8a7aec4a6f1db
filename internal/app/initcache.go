package app

import (
	"sync"

	"ccdem/internal/framebuffer"
)

// Memoized app screens. An app's screen after its seq-th content advance is
// a pure function of (name, paint style, surface width, surface height,
// seq): backgrounds and colors derive from the style and the name salt,
// sprite kinematics from the name-seeded rng advanced seq steps, scroll
// position is seq*feedRowH, and the video/pulse patterns hash seq directly.
// Fleet campaigns install the same catalog apps millions of times and walk
// the same early content states, so each screen is materialized once per
// key and later renders alias it copy-on-write (Buffer.ShareFrom /
// ShareFromDamage) — a memo hit writes no pixels at all.
//
// The memo serves the tile pipeline only: a plain (oracle) surface buffer
// neither reads nor fills it. seq 0 is the install screen; seq > 0
// entries are the intermediate-state extension, admitted for feed apps
// only (see memoAdmit). Every entry is a palette-compressed snapshot
// (NewPaletteSnapshot) that stores each run of alike tiles once, so a
// cached feed screen costs ~0.06 MB instead of ~3.7 MB raw. A feed state
// enters on its second paint in a process (see storeStateScreen).
//
// Memoized buffers are written once under the lock and only ever read
// afterwards, which makes the concurrent aliasing by fleet workers
// race-free.

type stateKey struct {
	name  string
	style PaintStyle
	w, h  int
	seq   uint64
}

const (
	// stateSeqCap bounds how deep into an app's content stream screens are
	// memoized. Sessions spend their memoizable phase near the start
	// (installs, first interactions); past the cap the lookup is skipped
	// entirely — no lock, no map read — so steady-state apps pay nothing.
	stateSeqCap = 64
	// stateScreenBudget bounds the cache globally as a safety valve only.
	// Its entries are the admissible keys painted so far, a feed state
	// painted once included (it holds a nil screen until its second
	// paint). Admission (memoAdmit) is a pure function of the key, so the
	// set of admissible keys per screen geometry is fixed by the catalog:
	// one install screen per app plus stateSeqCap feed states per feed app
	// — comfortably under this budget (TestStateScreenBudgetNeverBinds
	// pins the margin). The budget must never bind in practice: if it did,
	// which keys got cached would depend on arrival order, and cache
	// hit/miss counters would stop being deterministic across worker
	// counts. It exists only to bound memory should the catalog grow past
	// the guard test.
	stateScreenBudget = 768
	// stateStripes is the number of per-key singleflight locks. First
	// paints of distinct keys rarely collide on a stripe; a collision only
	// serializes two first-paints, never a hit.
	stateStripes = 64
)

var (
	stateScreenMu sync.RWMutex
	// stateScreens maps each admissible key painted so far to its
	// snapshot, or to nil while a feed state has been painted only once.
	stateScreens = make(map[stateKey]*framebuffer.Buffer)
	// stateStripe singleflights the paint-and-store of each feed state:
	// with it, a key that d devices paint from a cold cache takes
	// min(d, 2) misses and d − min(d, 2) hits, so the total misses are
	// the distinct keys painted plus those painted more than once, no
	// matter how many fleet workers race on the same app states. (Merged
	// fleet metrics sum hit/miss counters across devices, so per-device
	// attribution may shift between schedules, but the sums — what the
	// determinism tests compare — cannot.)
	stateStripe [stateStripes]sync.Mutex
)

// memoAdmit reports whether key's screen may enter the memo. The
// predicate is a pure function of the key — never of cache occupancy or
// arrival order — so which screens are memoizable is identical on every
// run and at every worker count; when a memoizable feed state is
// snapshotted depends only on how many times it was painted before
// (storeStateScreen). Install screens (seq 0) always qualify,
// as before. Intermediate states qualify only for feed apps: feeds are
// where repainting is expensive (ScrollVert moves the whole list region
// every content frame) and their early scroll states recur across every
// session of a fleet campaign, while sprite/video/pulse repaints are
// small and their admission would multiply the cached-screen worst case
// several-fold for negligible savings.
func memoAdmit(key stateKey) bool {
	if key.seq == 0 {
		return true
	}
	return key.style == StyleFeed && key.seq <= stateSeqCap
}

// stripeFor returns the singleflight lock for key (FNV-1a over the key's
// fields).
func stripeFor(key stateKey) *sync.Mutex {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.name); i++ {
		h = (h ^ uint64(key.name[i])) * prime64
	}
	h = (h ^ uint64(key.style)) * prime64
	h = (h ^ uint64(key.w)) * prime64
	h = (h ^ uint64(key.h)) * prime64
	h = (h ^ key.seq) * prime64
	return &stateStripe[h%stateStripes]
}

// lookupStateScreen returns the memoized screen for key, or nil.
func lookupStateScreen(key stateKey) *framebuffer.Buffer {
	stateScreenMu.RLock()
	memo := stateScreens[key]
	stateScreenMu.RUnlock()
	return memo
}

// storeStateScreen records a freshly painted screen for key. An install
// screen (seq 0) is snapshotted on its first paint. A feed state is
// snapshotted on its second: its first paint records only the key, with
// a nil screen, so a state that a process paints once costs no snapshot.
// Screens are only stored when they palette-compress in full; a screen
// that does not is repainted every time. Every catalog install screen
// compresses at every screen size (TestInstallScreensCompress), so
// install memoization does not degrade.
func storeStateScreen(key stateKey, buf *framebuffer.Buffer) {
	stateScreenMu.RLock()
	memo, seen := stateScreens[key]
	full := len(stateScreens) >= stateScreenBudget
	stateScreenMu.RUnlock()
	if memo != nil || (!seen && full) {
		return
	}
	var snapshot *framebuffer.Buffer
	if seen || key.seq == 0 {
		if snapshot = framebuffer.NewPaletteSnapshot(buf); snapshot == nil {
			return
		}
	}
	stateScreenMu.Lock()
	if memo, seen := stateScreens[key]; memo == nil && (seen || len(stateScreens) < stateScreenBudget) {
		stateScreens[key] = snapshot
	}
	stateScreenMu.Unlock()
}
