package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func stack(fns ...string) []frame {
	out := make([]frame, len(fns))
	for i, fn := range fns {
		out[i] = frame{fn: fn}
	}
	return out
}

func TestClassify(t *testing.T) {
	meter := stack(
		"ccdem/internal/framebuffer.(*TileLattice).DeltaCompare",
		"ccdem/internal/core.(*Meter).ObserveFrame",
		"ccdem.(*Device).latch",
	)
	meter[1].file = "/src/ccdem/internal/core/meter.go"
	cases := []struct {
		name        string
		stack       []frame
		top, kernel string
	}{
		{"memmove under scroll under app paint", stack(
			"runtime.memmove",
			"ccdem/internal/framebuffer.(*Buffer).ScrollVert",
			"ccdem/internal/app.(*Model).RenderRegion",
			"ccdem.(*Device).Run",
			"ccdem/internal/fleet.Cohort.runDevice",
		), "app.paint_ms", "framebuffer.scroll_ms"},
		{"delta compare under the meter", meter, "core.meter_ms", "framebuffer.delta_compare_ms"},
		{"GC worker", stack(
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit",
		), "runtime.gc_ms", ""},
		{"unmatched", stack("runtime.futex", "runtime.notesleep", "runtime.mstart"), residual, ""},
		{"snapshot under the memo store", stack(
			"ccdem/internal/framebuffer.(*Buffer).encodeTile",
			"ccdem/internal/framebuffer.NewPaletteSnapshot",
			"ccdem/internal/app.storeStateScreen",
			"ccdem/internal/app.(*Model).RenderRegion",
		), memoStore, snapshotLn},
		{"outermost public kernel wins", stack(
			"ccdem/internal/framebuffer.(*Buffer).fillTile",
			"ccdem/internal/framebuffer.(*Buffer).Fill.func1",
			"ccdem/internal/framebuffer.(*Buffer).Fill",
			"ccdem/internal/framebuffer.(*Buffer).Blit",
			"ccdem/internal/app.paintVideo",
		), "app.paint_ms", "framebuffer.blit_ms"},
		{"governor outside meter.go", stack(
			"ccdem/internal/core.(*Governor).decide",
			"ccdem/internal/sim.(*Engine).Step",
		), "core.governor_ms", ""},
		{"helper package passes to its caller", stack(
			"ccdem/internal/trace.(*RateCounter).Add",
			"ccdem/internal/surface.(*Manager).VSync",
		), "surface.compose_ms", ""},
	}
	for _, c := range cases {
		top, kernel := classify(c.stack)
		if top != c.top || kernel != c.kernel {
			t.Errorf("%s: got (%s, %s), want (%s, %s)", c.name, top, kernel, c.top, c.kernel)
		}
	}
}

func TestLedgerLinesSumToWall(t *testing.T) {
	l := newLedger()
	l.add([]stackSample{
		{stack("runtime.memmove", "ccdem/internal/framebuffer.(*Buffer).ScrollVert", "ccdem/internal/app.(*Model).Paint"), 30e6},
		{stack("runtime.gcDrain", "runtime.gcBgMarkWorker"), 10e6},
		{stack("runtime.futex"), 10e6},
	}, 100)
	l.add([]stackSample{
		{stack("ccdem/internal/framebuffer.(*TileLattice).DeltaCompare", "ccdem/internal/core.(*Meter).ObserveFrame"), 20e6},
	}, 60)
	lines := l.lines(2)
	sum := 0.0
	for _, k := range topLines {
		sum += lines[k]
	}
	if math.Abs(sum-lines["ledger.wall_ms"]) > 1e-9 || lines["ledger.wall_ms"] != 80 {
		t.Fatalf("top-level lines sum to %v, wall %v; want 80", sum, lines["ledger.wall_ms"])
	}
	// The unmatched sample and off-CPU time both land in the residual.
	if lines[residual] != (160-30-10-20)/2.0 {
		t.Errorf("residual %v", lines[residual])
	}
	if lines["framebuffer.scroll_ms"] != 15 || lines["core.governor_ms"] != 10 {
		// core.(*Meter) has no file here, so it counts as governor.
		t.Errorf("lines %v", lines)
	}
}

// pb appends one protobuf field.
func pb(b []byte, num, wire int, v uint64, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num<<3|wire))
	if wire == 2 {
		b = binary.AppendUvarint(b, uint64(len(payload)))
		return append(b, payload...)
	}
	return binary.AppendUvarint(b, v)
}

func TestReadProfile(t *testing.T) {
	var p []byte
	// string table: "", "samples", "count", "cpu", "nanoseconds", names, file
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "runtime.memmove",
		"ccdem/internal/framebuffer.(*Buffer).ScrollVert", "ccdem/internal/app.(*Model).Paint", "paint.go"} {
		p = pb(p, 6, 2, 0, []byte(s))
	}
	p = pb(p, 1, 2, 0, pb(pb(nil, 1, 0, 1, nil), 2, 0, 2, nil))
	p = pb(p, 1, 2, 0, pb(pb(nil, 1, 0, 3, nil), 2, 0, 4, nil))
	for id, name := range []uint64{5, 6, 7} {
		p = pb(p, 5, 2, 0, pb(pb(pb(nil, 1, 0, uint64(id+1), nil), 2, 0, name, nil), 4, 0, 8, nil))
	}
	// Location 1 holds ScrollVert inlined into memmove's caller chain:
	// lines innermost first.
	line := func(fn uint64) []byte { return pb(nil, 1, 0, fn, nil) }
	p = pb(p, 4, 2, 0, pb(pb(pb(nil, 1, 0, 1, nil), 4, 2, 0, line(1)), 4, 2, 0, line(2)))
	p = pb(p, 4, 2, 0, pb(pb(nil, 1, 0, 2, nil), 4, 2, 0, line(3)))
	locs := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2)
	vals := binary.AppendUvarint(binary.AppendUvarint(nil, 3), 30_000_000)
	p = pb(p, 2, 2, 0, pb(pb(nil, 1, 2, 0, locs), 2, 2, 0, vals))

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	zw.Close()
	samples, err := readProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].ns != 30_000_000 || len(samples[0].stack) != 3 {
		t.Fatalf("samples %+v", samples)
	}
	if top, k := classify(samples[0].stack); top != "app.paint_ms" || k != "framebuffer.scroll_ms" {
		t.Errorf("decoded stack %+v classified as (%s, %s)", samples[0].stack, top, k)
	}
	if samples[0].stack[2].file != "paint.go" {
		t.Errorf("file %q", samples[0].stack[2].file)
	}
}
