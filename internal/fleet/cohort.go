package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"ccdem"
	"ccdem/internal/app"
	"ccdem/internal/battery"
	"ccdem/internal/core"
	"ccdem/internal/fault"
	"ccdem/internal/input"
	"ccdem/internal/obs"
	"ccdem/internal/sim"
)

// Screen dimensions of the reproduction's Galaxy S3 target (the device
// defaults of ccdem.Config).
const (
	screenW = 720
	screenH = 1280
)

// AppShare is one component of a profile's usage mix: a catalog
// application and its relative share of the user's screen-on time.
type AppShare struct {
	Name   string
	Weight float64
}

// Profile declaratively describes one class of user in a fleet. A device
// assigned to the profile splits its session across the profile's apps in
// weight proportion, replaying an independent deterministic Monkey script
// per app segment.
type Profile struct {
	Name string
	// Weight is the profile's share of the fleet's devices (relative;
	// normalized across profiles).
	Weight float64
	// Apps is the usage mix drawn from the 30-app catalog.
	Apps []AppShare
	// TouchIntensity scales interaction density: the Monkey's mean
	// think-time between gestures is divided by it. 0 means 1 (the
	// default pacing); 2 means a user touching twice as often.
	TouchIntensity float64
	// SessionJitter varies session length per device: each device's
	// session is uniform in [1-j, 1+j] × the cohort session. Must be in
	// [0, 1).
	SessionJitter float64
}

// Validate reports configuration errors, including apps missing from the
// catalog.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("fleet: profile with empty name")
	}
	if p.Weight <= 0 {
		return fmt.Errorf("fleet: profile %s: non-positive weight %v", p.Name, p.Weight)
	}
	if len(p.Apps) == 0 {
		return fmt.Errorf("fleet: profile %s: empty app mix", p.Name)
	}
	for _, a := range p.Apps {
		if a.Weight <= 0 {
			return fmt.Errorf("fleet: profile %s: app %s: non-positive weight %v", p.Name, a.Name, a.Weight)
		}
		if _, ok := app.ByName(a.Name); !ok {
			return fmt.Errorf("fleet: profile %s: app %q not in catalog", p.Name, a.Name)
		}
	}
	if p.TouchIntensity < 0 {
		return fmt.Errorf("fleet: profile %s: negative touch intensity %v", p.Name, p.TouchIntensity)
	}
	if err := p.monkeyConfig().Validate(); err != nil {
		return fmt.Errorf("fleet: profile %s: touch intensity %v: %w", p.Name, p.TouchIntensity, err)
	}
	if p.SessionJitter < 0 || p.SessionJitter >= 1 {
		return fmt.Errorf("fleet: profile %s: session jitter %v out of [0,1)", p.Name, p.SessionJitter)
	}
	return nil
}

// Cohort describes a population of simulated devices: how many, how they
// are seeded, what they run, and which managed configuration is compared
// against the unmanaged baseline on every device.
type Cohort struct {
	// Devices is the number of simulated devices.
	Devices int
	// Seed is the fleet seed; device i derives its own seed via
	// DeviceSeed(Seed, i).
	Seed int64
	// Session is the nominal screen-on session simulated per device
	// (before per-profile jitter). Default 60 s.
	Session sim.Time
	// Governor is the managed configuration measured against the
	// baseline on each device. GovernorOff (the zero value) selects the
	// paper's full system, GovernorSectionBoost.
	Governor ccdem.GovernorMode
	// MeterSamples sets the governor's comparison grid. Default 9216.
	MeterSamples int
	// Pack converts mean power into battery-hours. Zero value defaults
	// to battery.GalaxyS3Pack.
	Pack battery.Pack
	// Profiles is the population's user-class mix.
	Profiles []Profile
	// Obs, when non-nil, collects per-device observability: each device's
	// *managed* session (the configuration under study) records decision
	// events and metrics under one collector track, with its per-app
	// segments concatenated on a single timeline. Baseline segments run
	// uninstrumented, and power-only (see runSegment), so the merged
	// metrics describe the managed system. Nil disables observability at
	// zero cost.
	Obs *obs.Collector

	// Faults, when non-nil, injects deterministic faults into every
	// device's *managed* segments (baselines stay clean, so savings are
	// measured against an unfaulted reference). Each segment's injector
	// is seeded from (fleet seed, device, segment), keeping faulty runs
	// bit-identical at any worker count.
	Faults *fault.Plan
	// Hardened enables governor fail-safe hardening (core.DefaultHardening)
	// on managed segments.
	Hardened bool
	// NaivePixels forces every device onto the brute-force pixel pipeline
	// (ccdem.Config.NaivePixels): plain buffers, full-rect composition and
	// full-lattice grid comparison, with no palettes and no state memo.
	// Campaign aggregates are byte-identical to the default tile pipeline;
	// the knob exists as the differential oracle for CI and the
	// tile-vs-naive equality tests.
	NaivePixels bool
	// FailFast aborts the campaign on the first device failure (the old
	// behaviour). The default keeps going: surviving devices aggregate,
	// failed ones are reported in Result.Failed.
	FailFast bool

	// ShardIndex/ShardCount restrict the run to the cohort's ShardIndex-th
	// of ShardCount contiguous device-index ranges, so one campaign can
	// split across worker processes (cmd/ccdem-fleet -shard, internal/svc).
	// Device seeding depends only on (Seed, global device index), and the
	// accumulator state is integral, so shard runs merged in shard order
	// (MergeShards) reproduce the unsharded aggregate bit for bit.
	// ShardCount 0 (the zero value) runs the whole cohort.
	ShardIndex int
	ShardCount int

	// Stream drops the per-device rows: Result.Devices stays nil and the
	// campaign's memory footprint is O(workers), independent of Devices.
	// Every run folds each result into its worker's Accumulator shard as
	// it completes and merges the shards when the run ends; without
	// Stream an internal sink also collects the rows, which Run returns
	// in device order. The shard state is integral, so the partition and
	// merge order cannot matter: Result.Aggregate is byte-identical either
	// way at any worker count.
	Stream bool
	// Sink, when non-nil, additionally receives every surviving device's
	// result as it completes — the hook for emitting per-device CSV rows
	// without retaining them. Calls are serialized but arrive in
	// completion order, which depends on worker scheduling; rows carry
	// their Device index for re-ordering downstream. The aggregate
	// remains deterministic regardless.
	Sink func(DeviceResult)

	// testHook, when set, runs at the start of each device task — the
	// tests' lever for injecting per-device panics and hangs.
	testHook func(device int)
}

// maxSession bounds Cohort.Session at 2^50 µs (about 35.7 years), far
// past any screen-on session. Up to it, a session survives the spec
// file's float64 seconds exactly (WriteSpec then ReadSpec).
const maxSession = sim.Time(1) << 50

func (c *Cohort) applyDefaults() {
	if c.Session == 0 {
		c.Session = 60 * sim.Second
	}
	if c.Governor == ccdem.GovernorOff {
		c.Governor = ccdem.GovernorSectionBoost
	}
	if c.MeterSamples == 0 {
		c.MeterSamples = 9216
	}
	if c.Pack == (battery.Pack{}) {
		c.Pack = battery.GalaxyS3Pack
	}
	if len(c.Profiles) == 0 {
		c.Profiles = DefaultProfiles()
	}
}

// Validate reports configuration errors (after defaulting).
func (c Cohort) Validate() error {
	if c.Devices <= 0 {
		return fmt.Errorf("fleet: non-positive device count %d", c.Devices)
	}
	if c.Session <= 0 {
		return fmt.Errorf("fleet: non-positive session %v", c.Session)
	}
	if c.Session > maxSession {
		return fmt.Errorf("fleet: session %v exceeds the %v limit", c.Session, maxSession)
	}
	if c.MeterSamples <= 0 {
		return fmt.Errorf("fleet: non-positive meter samples %d", c.MeterSamples)
	}
	if err := c.Pack.Validate(); err != nil {
		return err
	}
	for _, p := range c.Profiles {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.ShardCount < 0 {
		return fmt.Errorf("fleet: negative shard count %d", c.ShardCount)
	}
	if c.ShardCount > 0 {
		if c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount {
			return fmt.Errorf("fleet: shard index %d out of [0,%d)", c.ShardIndex, c.ShardCount)
		}
		if c.ShardCount > c.Devices {
			return fmt.Errorf("fleet: %d shards over %d devices leaves empty shards", c.ShardCount, c.Devices)
		}
	} else if c.ShardIndex != 0 {
		return fmt.Errorf("fleet: shard index %d without a shard count", c.ShardIndex)
	}
	return nil
}

// ShardRange is shard index's contiguous slice [lo, hi) of an n-device
// index space split count ways. The cut points are exact integer
// arithmetic, so every process of a sharded campaign computes the same
// partition; the service layer uses it to account resumed shards'
// device counts without re-running them.
func ShardRange(n, index, count int) (lo, hi int) {
	if count <= 1 {
		return 0, n
	}
	return n * index / count, n * (index + 1) / count
}

// DeviceResult is one device's paired measurement: its whole session run
// under the baseline and under the cohort's managed configuration on
// identical scripts.
type DeviceResult struct {
	Device  int    `json:"device"`
	Profile string `json:"profile"`
	// SessionS is the device's jittered session length in seconds.
	SessionS float64 `json:"session_s"`

	BaselineMW float64 `json:"baseline_mw"`
	ManagedMW  float64 `json:"managed_mw"`
	SavedMW    float64 `json:"saved_mw"`
	SavedPct   float64 `json:"saved_pct"`
	// QualityPct is the session-weighted display quality under the
	// managed configuration, in percent.
	QualityPct float64 `json:"quality_pct"`

	BaselineHours float64 `json:"baseline_hours"`
	ManagedHours  float64 `json:"managed_hours"`
	ExtraHours    float64 `json:"extra_hours"`

	// TrueQualityPct is the displayed/intended content ratio of the
	// managed session — meter-independent ground truth, the honest
	// quality metric under fault injection.
	TrueQualityPct float64 `json:"true_quality_pct"`
	// Faults and FailSafes summarize injected faults and fail-safe
	// episodes across the device's managed segments.
	Faults    uint64 `json:"faults,omitempty"`
	FailSafes uint64 `json:"failsafes,omitempty"`
}

// DeviceFailure records one device whose session could not be measured —
// task error, worker panic, or timeout — in a resilient campaign.
type DeviceFailure struct {
	Device int    `json:"device"`
	Err    string `json:"error"`
}

// Result is a completed fleet run: per-device rows in device order (each
// row's Device field holds the original index; failed devices are
// absent), failed-device accounting, and the fleet-wide aggregate over
// the surviving devices.
type Result struct {
	Devices   []DeviceResult  `json:"devices"`
	Failed    []DeviceFailure `json:"failed,omitempty"`
	Aggregate Aggregate       `json:"aggregate"`
}

// deviceLane is one pool worker's recycled simulated device: runSegment
// resets it in place between segment runs instead of rebuilding the
// engine, panel, framebuffers, meter lattices and recorder rings from
// scratch. A lane runs one task at a time (see Pool.RunIndexed), so no
// locking is needed; a nil lane — or an empty one on first use — falls
// back to fresh construction.
type deviceLane struct {
	dev *ccdem.Device
}

// Run expands the cohort into per-device runs, executes them on the pool,
// and aggregates. Results are bit-identical for a given cohort regardless
// of pool.Workers. Unless FailFast is set, a failing device (error, panic
// recovered by the pool, or task timeout) does not abort the campaign:
// the rest of the fleet completes and the failure is reported in
// Result.Failed. An error is returned only when the context was cancelled
// or no device survived.
func (c Cohort) Run(ctx context.Context, pool Pool) (*Result, error) {
	c.applyDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Retaining rows is the streamed run plus a collecting sink. The
	// caller's sink runs first, so a row it panics on is neither
	// collected nor folded. (A pointer keeps streamed runs from paying a
	// heap allocation for the unused slice.)
	var rows *[]DeviceResult
	if !c.Stream {
		rows = new([]DeviceResult)
		sink := c.Sink
		c.Sink = func(r DeviceResult) {
			if sink != nil {
				sink(r)
			}
			*rows = append(*rows, r)
		}
	}
	out, err := c.execute(ctx, pool)
	if err != nil {
		return nil, err
	}
	if out.merged.Devices() == 0 {
		if out.poolErr != nil {
			return nil, out.poolErr
		}
		return nil, fmt.Errorf("fleet: all %d devices failed", c.Devices)
	}
	res := &Result{
		Failed:    sortedFailures(out.fails),
		Aggregate: out.merged.Aggregate(c.Profiles),
	}
	if rows != nil {
		res.Devices = *rows
		slices.SortFunc(res.Devices, func(a, b DeviceResult) int { return a.Device - b.Device })
	}
	res.Aggregate.FailedDevices = len(res.Failed)
	return res, nil
}

// RunShard executes the cohort's shard (ShardIndex of ShardCount)
// without retaining rows and returns its wire-encodable shard: the
// accumulator over the slice's surviving devices plus the slice's
// failures. Unlike Run, a shard whose devices all failed is not an
// error — the central merge decides whether the campaign as a whole
// survived. The profile order is captured so MergeShards can finalize
// without the spec.
func (c Cohort) RunShard(ctx context.Context, pool Pool) (*Shard, error) {
	c.applyDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out, err := c.execute(ctx, pool)
	if err != nil {
		return nil, err
	}
	count := c.ShardCount
	if count < 1 {
		count = 1
	}
	order := make([]string, len(c.Profiles))
	for i, p := range c.Profiles {
		order[i] = p.Name
	}
	return &Shard{
		Index:         c.ShardIndex,
		Count:         count,
		CohortDevices: c.Devices,
		ProfileOrder:  order,
		Failed:        sortedFailures(out.fails),
		Acc:           out.merged,
	}, nil
}

// sortedFailures flattens the sparse failure map into DeviceFailure rows
// in ascending device order.
func sortedFailures(fails map[int]error) []DeviceFailure {
	if len(fails) == 0 {
		return nil
	}
	idx := make([]int, 0, len(fails))
	for i := range fails {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]DeviceFailure, 0, len(idx))
	for _, i := range idx {
		out = append(out, DeviceFailure{Device: i, Err: fails[i].Error()})
	}
	return out
}

// runOutcome is execute's result: the merged accumulator over the
// surviving devices, the sparse failure map keyed by global device index,
// and the pool's joined task errors (nil when every device succeeded).
type runOutcome struct {
	merged  *Accumulator
	fails   map[int]error
	poolErr error
}

// execute runs the cohort's device slice on the pool — the core shared
// by Run and RunShard. Every surviving device is handed to the Sink and
// folded into its worker's Accumulator; the accumulators are merged when
// the pool returns. The cohort must already be defaulted and validated.
// The returned error is fatal (context cancelled, or first failure under
// FailFast); per-device failures are data, reported in the outcome.
func (c Cohort) execute(ctx context.Context, pool Pool) (runOutcome, error) {
	if !c.FailFast {
		// Resilient campaigns observe every failure instead of
		// cancelling the surviving devices on the first one.
		pool.ContinueOnError = true
	}
	// Task j runs global device index lo+j; all bookkeeping below is in
	// local task indices, mapped to global device indices on the way out.
	lo, hi := ShardRange(c.Devices, c.ShardIndex, c.ShardCount)
	n := hi - lo
	workers := pool.EffectiveWorkers(n)
	// One recycled device per worker lane. A task timeout disables reuse:
	// an abandoned straggler's goroutine may still be simulating on its
	// lane's device when the next task claims the lane.
	var lanes []deviceLane
	if pool.TaskTimeout <= 0 {
		lanes = make([]deviceLane, workers)
	}
	shards := make([]*Accumulator, workers)
	for i := range shards {
		shards[i] = NewAccumulator()
	}
	var (
		mu     sync.Mutex
		sealed bool // set once results are read; late stragglers discarded
		// Failures are sparse: a million-device campaign tracks only its
		// casualties.
		fails = make(map[int]error)
		// folded has one bit per task whose result made it into a shard.
		// Under a TaskTimeout the pool may report such a task as timed out
		// when its deadline fires before the task returns; the fold wins.
		// Without a timeout no pool error can follow a fold, so the bitmap
		// is only kept then.
		folded []uint64
	)
	if pool.TaskTimeout > 0 {
		folded = make([]uint64, (n+63)/64)
	}
	err := pool.RunIndexed(ctx, n, func(tctx context.Context, j, w int) error {
		i := lo + j
		var lane *deviceLane
		if lanes != nil {
			lane = &lanes[w]
		}
		r, err := c.runDevice(tctx, i, lane)
		mu.Lock()
		defer mu.Unlock()
		if sealed {
			// Timed-out task that finished after abandonment: its slot
			// was already reported as failed.
			return err
		}
		if err != nil {
			err = fmt.Errorf("device %d: %w", i, err)
			fails[j] = err
			return err
		}
		// The sink runs before the fold: a sink panic reaches the pool as
		// this task's PanicError and leaves the device unfolded.
		if c.Sink != nil {
			c.Sink(r)
		}
		shards[w].Add(r)
		if folded != nil {
			folded[j/64] |= 1 << (j % 64)
		}
		return nil
	})
	mu.Lock()
	sealed = true
	mu.Unlock()
	if c.FailFast && err != nil {
		return runOutcome{}, err
	}
	if ctx != nil && ctx.Err() != nil {
		return runOutcome{}, ctx.Err()
	}
	// Pool-level failures (recovered panics, timeouts) never reach the
	// closure's bookkeeping; map them back by task index.
	for _, e := range taskErrors(err) {
		var j int
		switch te := e.(type) {
		case *PanicError:
			j = te.Task
		case *TimeoutError:
			j = te.Task
		default:
			continue
		}
		if j < 0 || j >= n {
			continue
		}
		if folded != nil && folded[j/64]&(1<<(j%64)) != 0 {
			continue
		}
		if fails[j] == nil {
			fails[j] = e
		}
	}
	merged := NewAccumulator()
	for _, s := range shards {
		merged.Merge(s)
	}
	out := runOutcome{merged: merged, fails: make(map[int]error, len(fails)), poolErr: err}
	for j, e := range fails {
		out.fails[lo+j] = e
	}
	return out, nil
}

// taskErrors flattens an errors.Join tree into its leaves.
func taskErrors(err error) []error {
	if err == nil {
		return nil
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		var out []error
		for _, e := range joined.Unwrap() {
			out = append(out, taskErrors(e)...)
		}
		return out
	}
	return []error{err}
}

// runDevice executes device i's full session: draw a profile and session
// length from the device RNG, split the session across the profile's app
// mix, and measure each segment paired (baseline vs managed) on an
// identical Monkey script. Cancellation is honoured between app segments,
// so fail-fast and Ctrl-C actually stop long campaigns. lane, when
// non-nil, carries the worker's recycled device across segments and
// tasks.
func (c Cohort) runDevice(ctx context.Context, i int, lane *deviceLane) (DeviceResult, error) {
	if c.testHook != nil {
		c.testHook(i)
	}
	rng := rand.New(rand.NewSource(DeviceSeed(c.Seed, i)))
	prof := c.pickProfile(rng)
	session := c.Session
	if prof.SessionJitter > 0 {
		session = sim.Time(float64(session) * (1 + prof.SessionJitter*(2*rng.Float64()-1)))
	}
	var (
		rec *obs.Recorder
		reg *obs.Registry
	)
	if c.Obs != nil {
		// Name formatting is skipped when observability is off — it is a
		// per-device allocation the reused-device steady state must avoid.
		rec, reg = c.Obs.Device(fmt.Sprintf("device %04d (%s)", i, prof.Name))
	}
	var hard *core.HardeningConfig
	if c.Hardened {
		hard = core.DefaultHardening()
	}

	var (
		slices   []battery.UsageSlice
		totalW   float64
		totalDur sim.Time
		quality  float64 // duration-weighted sum
		trueQ    float64 // duration-weighted sum
		r        DeviceResult
	)
	for _, a := range prof.Apps {
		totalW += a.Weight
	}
	for seg, a := range prof.Apps {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return DeviceResult{}, err
			}
		}
		dur := sim.Time(float64(session) * a.Weight / totalW)
		if dur < sim.Second {
			dur = sim.Second
		}
		script, err := c.segmentScript(prof, rng.Int63(), dur)
		if err != nil {
			return DeviceResult{}, err
		}
		params, _ := app.ByName(a.Name) // validated
		base, err := c.runSegment(lane, params, ccdem.GovernorOff, dur, script, nil, nil, nil, nil)
		if err != nil {
			return DeviceResult{}, err
		}
		// Faults hit only the managed configuration; the injector seed
		// folds in device and segment so neither retries nor worker
		// scheduling shift any fault stream.
		var inj *fault.Injector
		if c.Faults != nil {
			inj = fault.New(DeviceSeed(DeviceSeed(c.Seed, i), seg), *c.Faults)
		}
		// Each segment simulates on its own engine starting at zero; the
		// base offset concatenates them into one session timeline.
		rec.SetBase(totalDur)
		managed, err := c.runSegment(lane, params, c.Governor, dur, script, rec, reg, inj, hard)
		if err != nil {
			return DeviceResult{}, err
		}
		slices = append(slices, battery.UsageSlice{
			Name:       a.Name,
			Weight:     dur.Seconds(),
			BaselineMW: base.MeanPowerMW,
			ManagedMW:  managed.MeanPowerMW,
		})
		totalDur += dur
		quality += managed.DisplayQuality * dur.Seconds()
		trueQ += managed.TrueQuality * dur.Seconds()
		r.Faults += managed.FaultsInjected
		r.FailSafes += managed.FailSafeEnters
	}

	est, err := c.Pack.Estimate(battery.Mix{Slices: slices})
	if err != nil {
		return DeviceResult{}, err
	}
	r.Device = i
	r.Profile = prof.Name
	r.SessionS = totalDur.Seconds()
	r.BaselineMW = est.BaselineMW
	r.ManagedMW = est.ManagedMW
	r.SavedMW = est.BaselineMW - est.ManagedMW
	r.QualityPct = 100 * quality / totalDur.Seconds()
	r.TrueQualityPct = 100 * trueQ / totalDur.Seconds()
	r.BaselineHours = est.BaselineHours
	r.ManagedHours = est.ManagedHours
	r.ExtraHours = est.ExtraHours
	if est.BaselineMW > 0 {
		r.SavedPct = 100 * r.SavedMW / est.BaselineMW
	}
	return r, nil
}

// pickProfile draws a profile weighted by Profile.Weight.
func (c Cohort) pickProfile(rng *rand.Rand) Profile {
	total := 0.0
	for _, p := range c.Profiles {
		total += p.Weight
	}
	r := rng.Float64() * total
	for _, p := range c.Profiles {
		r -= p.Weight
		if r < 0 {
			return p
		}
	}
	return c.Profiles[len(c.Profiles)-1]
}

// monkeyConfig is the profile's Monkey pacing: the default mean
// think-time divided by the touch intensity.
func (p Profile) monkeyConfig() input.MonkeyConfig {
	cfg := input.DefaultMonkeyConfig()
	if ti := p.TouchIntensity; ti > 0 && ti != 1 {
		cfg.MeanIdle = sim.Time(float64(cfg.MeanIdle) / ti)
		if cfg.MeanIdle < 2*cfg.MinIdle {
			cfg.MinIdle = cfg.MeanIdle / 2
		}
	}
	return cfg
}

// segmentScript generates the deterministic Monkey script one app segment
// replays under both configurations, paced by the profile's touch
// intensity.
func (c Cohort) segmentScript(prof Profile, seed int64, dur sim.Time) (input.Script, error) {
	mk, err := input.NewMonkey(seed, prof.monkeyConfig())
	if err != nil {
		return input.Script{}, err
	}
	return mk.Script(dur, screenW, screenH), nil
}

// runSegment measures one app segment under one governor mode, optionally
// instrumented with a recorder and metrics registry, fault-injected, and
// hardened. With a lane, the worker's device is Reset in place instead of
// constructed — the steady-state cohort path allocates per segment only
// what the script and stats inherently need.
//
// The baseline (GovernorOff; the managed mode never is after defaulting)
// runs power-only: the campaign reads nothing from it but MeanPowerMW,
// which on the campaigns' LCD panel no pixel feeds, so it runs with the
// content meter off and its app draws nothing (ccdem.Config.MeterSamples).
// Its power is bit-identical to a metered baseline's.
func (c Cohort) runSegment(lane *deviceLane, p app.Params, mode ccdem.GovernorMode, dur sim.Time, script input.Script, rec *obs.Recorder, reg *obs.Registry, inj *fault.Injector, hard *core.HardeningConfig) (ccdem.Stats, error) {
	samples := c.MeterSamples
	if mode == ccdem.GovernorOff {
		samples = -1
	}
	cfg := ccdem.Config{
		Width: screenW, Height: screenH,
		Governor:     mode,
		MeterSamples: samples,
		NaivePixels:  c.NaivePixels,
		Recorder:     rec,
		Metrics:      reg,
		Faults:       inj,
		Hardening:    hard,
	}
	var dev *ccdem.Device
	if lane != nil && lane.dev != nil {
		dev = lane.dev
		if err := dev.Reset(cfg); err != nil {
			// A failed reset leaves the device in an unspecified state;
			// drop it so the next segment constructs afresh.
			lane.dev = nil
			return ccdem.Stats{}, err
		}
	} else {
		var err error
		dev, err = ccdem.NewDevice(cfg)
		if err != nil {
			return ccdem.Stats{}, err
		}
		if lane != nil {
			lane.dev = dev
		}
	}
	if _, err := dev.InstallApp(p); err != nil {
		return ccdem.Stats{}, err
	}
	dev.PlayScript(script)
	dev.Run(dur)
	dev.FinishObs()
	return dev.Stats(), nil
}

// DefaultProfiles models a plausible smartphone population over the
// paper's 30-app catalog: messaging-heavy users, browsers/shoppers,
// gamers, and passive viewers. Weights are indicative, not census data;
// cohort spec files (ReadSpec) replace them for real studies.
func DefaultProfiles() []Profile {
	return []Profile{
		{
			Name: "messenger", Weight: 0.35, TouchIntensity: 1.4, SessionJitter: 0.3,
			Apps: []AppShare{
				{Name: "KakaoTalk", Weight: 3},
				{Name: "Facebook", Weight: 2},
				{Name: "Naver", Weight: 1},
			},
		},
		{
			Name: "browser", Weight: 0.25, TouchIntensity: 1, SessionJitter: 0.3,
			Apps: []AppShare{
				{Name: "Naver", Weight: 2},
				{Name: "Daum", Weight: 1},
				{Name: "Coupang", Weight: 1},
				{Name: "Auction", Weight: 1},
			},
		},
		{
			Name: "gamer", Weight: 0.25, TouchIntensity: 1.8, SessionJitter: 0.4,
			Apps: []AppShare{
				{Name: "Jelly Splash", Weight: 2},
				{Name: "Cookie Run", Weight: 2},
				{Name: "Asphalt 8", Weight: 1},
			},
		},
		{
			Name: "viewer", Weight: 0.15, TouchIntensity: 0.5, SessionJitter: 0.2,
			Apps: []AppShare{
				{Name: "MX Player", Weight: 3},
				{Name: "Naver Webtoon", Weight: 1},
			},
		},
	}
}
