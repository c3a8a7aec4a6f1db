package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

	"ccdem/internal/fleet"
	"ccdem/internal/sim"
)

// variants is the number of distinct inputs a workload draws from; every
// variant's fleet seed and result digest is pinned (pins.go).
const variants = 16

// workload is one benchmark input family: a cohort shape the seed
// instantiates, plus how the program is driven.
type workload struct {
	name     string
	devices  int
	sessionS float64
	profiles []fleet.Profile
	// retained keeps per-device rows in the result (the ccdem-fleet
	// default); otherwise the campaign streams its aggregate.
	retained bool
	// shards, when non-zero, drives the campaign through ccdem-svc as
	// jobs of that many shards, each running one worker.
	shards int
}

// profile returns the named class of fleet.DefaultProfiles.
func profile(name string) fleet.Profile {
	for _, p := range fleet.DefaultProfiles() {
		if p.Name == name {
			return p
		}
	}
	panic("perfbench: no default profile " + name)
}

// mxViewer is the default viewer class narrowed to MX Player, so no feed
// app (and no memoizable scroll state) runs in games-video.
func mxViewer() fleet.Profile {
	p := profile("viewer")
	p.Apps = []fleet.AppShare{{Name: "MX Player", Weight: 1}}
	return p
}

var workloads = []workload{
	{
		name: "feeds-cold", devices: 8, sessionS: 30, retained: true,
		profiles: []fleet.Profile{profile("messenger"), profile("browser")},
	},
	{
		name: "games-video", devices: 12, sessionS: 60,
		profiles: []fleet.Profile{profile("gamer"), mxViewer()},
	},
	{
		name: "svc-sharded", devices: 8, sessionS: 20, shards: 2,
		profiles: fleet.DefaultProfiles(),
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// cycle is how many variants one run cycles through, so that one input's
// quirks (how deep its feeds scroll, hence how many memo states it fills)
// average out within the run instead of spreading runs apart.
const cycle = 4

// setFrom returns a run's variants: one drawn by the seed from each of
// the workload's cost strata, cheapest stratum first. Balanced variants
// still differ in host cost (pinned costs span 0.72–1.24 on svc-sharded),
// so four variants drawn freely give sets whose mean cost differs by up
// to about 20% between seeds. One per stratum keeps every set's mean
// cost within a few percent, while the seed still picks among 4^4 = 256
// sets.
func setFrom(workload string, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var out []int
	for _, s := range strata(workload) {
		out = append(out, s[rng.Intn(len(s))])
	}
	return out
}

// classTargets splits n devices over the profiles by weight with the
// largest-remainder rule, so the counts sum to n.
func classTargets(profiles []fleet.Profile, n int) []int {
	total := 0.0
	for _, p := range profiles {
		total += p.Weight
	}
	out := make([]int, len(profiles))
	rem := make([]float64, len(profiles))
	left := n
	for i, p := range profiles {
		exact := p.Weight / total * float64(n)
		out[i] = int(math.Floor(exact))
		rem[i] = exact - float64(out[i])
		left -= out[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// sessionTolerance bounds how far a class's summed session scale may sit
// from its device count in a balanced fleet seed.
const sessionTolerance = 0.03

// ranges are the device index ranges balanced separately: the whole
// fleet, or for a sharded job each shard, since every shard process fills
// its own cold app state memo for the apps its devices run.
func (w workload) ranges() [][2]int {
	if w.shards <= 1 {
		return [][2]int{{0, w.devices}}
	}
	out := make([][2]int, w.shards)
	for i := range out {
		lo, hi := fleet.ShardRange(w.devices, i, w.shards)
		out[i] = [2]int{lo, hi}
	}
	return out
}

// classMix is the fleet-wide class mix of a balanced seed.
func (w workload) classMix() []int {
	mix := make([]int, len(w.profiles))
	for _, r := range w.ranges() {
		for k, n := range classTargets(w.profiles, r[1]-r[0]) {
			mix[k] += n
		}
	}
	return mix
}

// draw replays a device's first draws from its own seed, as the cohort
// makes them: the profile pick, then the session jitter factor.
func draw(profiles []fleet.Profile, totalWeight float64, deviceSeed int64) (int, float64) {
	rng := rand.New(rand.NewSource(deviceSeed))
	r := rng.Float64() * totalWeight
	k := len(profiles) - 1
	for j, p := range profiles {
		r -= p.Weight
		if r < 0 {
			k = j
			break
		}
	}
	f := 1.0
	if j := profiles[k].SessionJitter; j > 0 {
		f = 1 + j*(2*rng.Float64()-1)
	}
	return k, f
}

// balanced reports whether fleetSeed gives every range exactly its class
// targets and every class a summed session length within
// sessionTolerance of nominal, so host cost varies little between
// variants. The run's per-profile device counts are checked against the
// same mix afterwards.
func balanced(w workload, fleetSeed int64) bool {
	total := 0.0
	for _, p := range w.profiles {
		total += p.Weight
	}
	scale := make([]float64, len(w.profiles))
	for _, r := range w.ranges() {
		count := make([]int, len(w.profiles))
		for i := r[0]; i < r[1]; i++ {
			k, f := draw(w.profiles, total, fleet.DeviceSeed(fleetSeed, i))
			count[k]++
			scale[k] += f
		}
		if !slices.Equal(count, classTargets(w.profiles, r[1]-r[0])) {
			return false
		}
	}
	for k, n := range w.classMix() {
		if math.Abs(scale[k]-float64(n)) > sessionTolerance*float64(n) {
			return false
		}
	}
	return true
}

// searchFleetSeed finds a variant's fleet seed: the first candidate, in a
// fixed sequence keyed by workload and variant, whose device draw is
// balanced. The search can take seconds, so its results are pinned
// (pins.go) with the digests.
func searchFleetSeed(w workload, variant int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", w.name, variant)
	base := int64(h.Sum64())
	for attempt := 0; ; attempt++ {
		if s := fleet.DeviceSeed(base, attempt); balanced(w, s) {
			return s
		}
	}
}

// pinFor returns a variant's pinned fleet seed and result digest.
func pinFor(workload string, variant int) (pin, error) {
	ps := pins[workload]
	if variant < 0 || variant >= len(ps) || ps[variant].Digest == "" {
		return pin{}, fmt.Errorf("no pin for %s variant %d", workload, variant)
	}
	return ps[variant], nil
}

// spec renders the workload's cohort under a fleet seed as the spec
// document the program reads; the program never sees the benchmark seed.
func (w workload) spec(fleetSeed int64) ([]byte, error) {
	var buf bytes.Buffer
	err := fleet.WriteSpec(&buf, fleet.Cohort{
		Devices:  w.devices,
		Seed:     fleetSeed,
		Session:  sim.FromSeconds(w.sessionS),
		Profiles: w.profiles,
	})
	return buf.Bytes(), err
}
