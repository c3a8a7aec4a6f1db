package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// pin is one workload variant's pinned input and output: the balanced
// fleet seed its spec carries, the SHA-256 of its result bytes, and its
// host cost relative to the workload's other variants.
type pin struct {
	Seed   int64
	Digest string
	// Cost is the variant's median campaign (or svc job) time over the
	// median of all the workload's variants, measured in interleaved
	// rounds when the pins were made. Only its rank matters: it sorts
	// the variants into the cost strata a run draws from (setFrom).
	Cost float64
}

// costRounds is how many interleaved rounds of every variant the pin
// mode times. The host's speed drifts by tens of percent over minutes,
// so each round runs every variant once and the median over rounds is
// taken per variant.
const costRounds = 5

// writePins searches every workload variant's balanced fleet seed, runs
// the variant once in a fresh process for its digest, times every
// variant in interleaved rounds for its cost, and prints pins.go.
func writePins(b *bench, stdout io.Writer) error {
	fmt.Fprint(stdout, `package main

// pins holds each workload variant's balanced fleet seed, the SHA-256 of
// its result bytes — the retained per-device JSON for feeds-cold, the
// streamed aggregate for games-video, and for svc-sharded the in-process
// streamed aggregate the merged HTTP result must equal byte for byte —
// and its measured relative host cost, which only sorts the variants
// into cost strata. Regenerate with
// `+"`bash perfbench/run.sh -pin > perfbench/pins.go`"+` only when a change
// is meant to alter simulated results.
var pins = map[string][]pin{
`)
	for _, w := range workloads {
		b.w, b.set = w, nil
		ps := make([]pin, variants)
		for v := range ps {
			ps[v].Seed = searchFleetSeed(w, v)
			b.set = append(b.set, v)
		}
		if err := b.writeSpecs(ps); err != nil {
			return err
		}
		for v := range ps {
			rep, _, err := b.launch(v, "", false)
			if err != nil {
				return err
			}
			if rep.Failed > 0 || !sameClasses(w, rep.Classes) {
				return fmt.Errorf("%s variant %d: %d failed devices, class mix %v", w.name, v, rep.Failed, rep.Classes)
			}
			ps[v].Digest = rep.Digest
		}
		costs, err := b.variantCosts()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\t%q: {\n", w.name)
		for v, p := range ps {
			fmt.Fprintf(stdout, "\t\t{%d, %q, %.3f},\n", p.Seed, p.Digest, costs[v])
			fmt.Fprintf(b.stderr, "%s variant %d: %s cost %.3f\n", w.name, v, p.Digest[:12], costs[v])
		}
		fmt.Fprintf(stdout, "\t},\n")
	}
	fmt.Fprintf(stdout, "}\n")
	return nil
}

// writeSpecs writes the spec of every variant of b.set under the given
// pins to the scratch directory.
func (b *bench) writeSpecs(ps []pin) error {
	b.specs = nil
	for i, v := range b.set {
		spec, err := b.w.spec(ps[v].Seed)
		if err != nil {
			return err
		}
		if err := os.WriteFile(b.specPath(i), spec, 0o644); err != nil {
			return err
		}
		b.specs = append(b.specs, spec)
	}
	return nil
}

// variantCosts times every variant of b.set costRounds times, round
// robin, the way a run drives it (an in-process campaign, or a job
// through one ccdem-svc), and returns each variant's median time over
// the median of all of them.
func (b *bench) variantCosts() ([]float64, error) {
	run := func(i int) (float64, error) {
		rep, _, err := b.launch(i, "", false)
		return float64(rep.SpanNS) / 1e9, err
	}
	if b.w.shards > 0 {
		client := &http.Client{Timeout: 120 * time.Second}
		dm, _, err := b.startDaemon(client, filepath.Join(b.work, "pin-state-"+b.w.name))
		if err != nil {
			return nil, err
		}
		defer dm.stop()
		run = func(i int) (float64, error) {
			o, err := b.runJob(client, dm.base, b.specs[i], false)
			return o.latencyS, err
		}
	}
	times := make([][]float64, len(b.set))
	for r := 0; r < costRounds; r++ {
		for i := range b.set {
			s, err := run(i)
			if err != nil {
				return nil, err
			}
			times[i] = append(times[i], s)
		}
	}
	meds := make([]float64, len(times))
	for i, t := range times {
		meds[i] = median(t)
	}
	mid := median(meds)
	for i := range meds {
		meds[i] /= mid
	}
	return meds, nil
}

// strata sorts a workload's variants by pinned cost, cheapest first, and
// splits them into cycle strata of equal size.
func strata(workload string) [][]int {
	order := make([]int, variants)
	for v := range order {
		order[v] = v
	}
	ps := pins[workload]
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case ps[a].Cost < ps[b].Cost:
			return -1
		case ps[a].Cost > ps[b].Cost:
			return 1
		}
		return 0
	})
	out := make([][]int, cycle)
	size := variants / cycle
	for k := range out {
		out[k] = order[k*size : (k+1)*size]
	}
	return out
}
