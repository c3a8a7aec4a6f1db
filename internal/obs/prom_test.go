package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testRegistry builds a registry with one instrument of each kind.
func testRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("svc.jobs.submitted")
	c.Add(7)
	reg.Gauge("svc.jobs.running").Set(2.5)
	h := reg.Histogram("svc.job.duration_s", []float64{1, 5, 15})
	for _, v := range []float64{0.5, 3, 3, 20, 100} {
		h.Observe(v)
	}
	return reg
}

func TestWritePrometheusRoundTripsThroughParser(t *testing.T) {
	var buf bytes.Buffer
	if err := testRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	fams, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParsePrometheus rejected our own output:\n%s\nerror: %v", buf.String(), err)
	}

	counter := fams["svc_jobs_submitted_total"]
	if counter == nil || counter.Type != "counter" {
		t.Fatalf("counter family missing or mistyped: %+v", counter)
	}
	if s := counter.Sample("svc_jobs_submitted_total", nil); s == nil || s.Value != 7 {
		t.Errorf("counter sample = %+v, want 7", s)
	}

	gauge := fams["svc_jobs_running"]
	if gauge == nil || gauge.Type != "gauge" {
		t.Fatalf("gauge family missing or mistyped: %+v", gauge)
	}
	if s := gauge.Sample("svc_jobs_running", nil); s == nil || s.Value != 2.5 {
		t.Errorf("gauge sample = %+v, want 2.5", s)
	}

	hist := fams["svc_job_duration_s"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", hist)
	}
	// Cumulative buckets of {0.5, 3, 3, 20, 100} over bounds {1,5,15}.
	want := map[string]float64{"1": 1, "5": 3, "15": 3, "+Inf": 5}
	for le, v := range want {
		s := hist.Sample("svc_job_duration_s_bucket", map[string]string{"le": le})
		if s == nil || s.Value != v {
			t.Errorf("bucket le=%s = %+v, want %g", le, s, v)
		}
	}
	if s := hist.Sample("svc_job_duration_s_count", nil); s == nil || s.Value != 5 {
		t.Errorf("_count = %+v, want 5", s)
	}
	if s := hist.Sample("svc_job_duration_s_sum", nil); s == nil || s.Value != 126.5 {
		t.Errorf("_sum = %+v, want 126.5", s)
	}
}

// TestWritePrometheusSumCountMatchHistogram pins the acceptance
// invariant: the exposed _sum/_count equal the obs.Histogram's own
// Sum()/Count().
func TestWritePrometheusSumCountMatchHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("x.y", CompareCostBucketsUS)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		h.Observe(rng.Float64() * 6000)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := fams["x_y"]
	if f == nil {
		t.Fatal("family x_y missing")
	}
	if s := f.Sample("x_y_count", nil); s == nil || s.Value != float64(h.Count()) {
		t.Errorf("_count = %+v, want %d", s, h.Count())
	}
	if s := f.Sample("x_y_sum", nil); s == nil || s.Value != h.Sum() {
		t.Errorf("_sum = %+v, want %g", s, h.Sum())
	}
}

// TestWritePrometheusDeterministicOrdering: families appear sorted by
// exposition name and two identical registries expose identical bytes —
// regardless of instrument registration order.
func TestWritePrometheusDeterministicOrdering(t *testing.T) {
	build := func(names []string) *Registry {
		reg := NewRegistry()
		for _, n := range names {
			reg.Counter("c." + n).Add(1)
			reg.Gauge("g." + n).Set(1)
			reg.Histogram("h."+n, []float64{1, 2}).Observe(1.5)
		}
		return reg
	}
	names := []string{"zeta", "alpha", "mid"}
	var a, b bytes.Buffer
	if err := build(names).WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	reversed := []string{"mid", "alpha", "zeta"}
	if err := build(reversed).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("registration order changed exposition bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
	// TYPE lines must appear in ascending family-name order.
	var families []string
	for _, line := range strings.Split(a.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i] < families[i-1] {
			t.Errorf("family %q listed after %q", families[i], families[i-1])
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"svc.jobs.running":  "svc_jobs_running",
		"per-device/rate":   "per_device_rate",
		"0weird":            "_0weird",
		"ok_name:sub":       "ok_name:sub",
		"sp ace":            "sp_ace",
		"svc.devices.total": "svc_devices_total",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromSampleLabelEscaping writes hostile label values through
// PromWriter and requires the parser to recover them exactly.
func TestPromSampleLabelEscaping(t *testing.T) {
	hostile := []string{
		`plain`,
		`with "quotes"`,
		`back\slash`,
		"new\nline",
		`both \" and ` + "\n" + ` mixed`,
		`trailing backslash \`,
		``,
	}
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.Family("m", "gauge", "label escaping test")
	for i, v := range hostile {
		pw.Sample("m", [][2]string{{"job", v}, {"idx", fmt.Sprint(i)}}, float64(i))
	}
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("parser rejected escaped labels:\n%s\nerror: %v", buf.String(), err)
	}
	f := fams["m"]
	if f == nil || len(f.Samples) != len(hostile) {
		t.Fatalf("parsed %+v, want %d samples", f, len(hostile))
	}
	for i, v := range hostile {
		s := f.Sample("m", map[string]string{"job": v, "idx": fmt.Sprint(i)})
		if s == nil {
			t.Errorf("sample %d with label %q did not round-trip", i, v)
		}
	}
}

// TestPromBucketMonotonicityProperty is the property test: random
// histograms always expose cumulative buckets that are monotone
// non-decreasing and end at _count, and the parser accepts them.
func TestPromBucketMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		nb := 1 + rng.Intn(12)
		bounds := make([]float64, 0, nb)
		x := rng.Float64() * 10
		for i := 0; i < nb; i++ {
			bounds = append(bounds, x)
			x += 0.1 + rng.Float64()*100
		}
		reg := NewRegistry()
		h := reg.Histogram("prop.hist", bounds)
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Observe(rng.NormFloat64() * bounds[nb-1])
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatalf("trial %d (bounds %v, n %d): %v\n%s", trial, bounds, n, err, buf.String())
		}
		f := fams["prop_hist"]
		if f == nil {
			t.Fatalf("trial %d: family missing", trial)
		}
		var cum, prev float64
		prev = -1
		buckets := 0
		for _, s := range f.Samples {
			if s.Name != "prop_hist_bucket" {
				continue
			}
			buckets++
			cum = s.Value
			if cum < prev {
				t.Fatalf("trial %d: bucket %v decreased from %g", trial, s.Labels, prev)
			}
			prev = cum
		}
		if buckets != nb+1 {
			t.Fatalf("trial %d: %d buckets exposed, want %d (+Inf included)", trial, buckets, nb+1)
		}
		if cum != float64(n) {
			t.Fatalf("trial %d: final cumulative %g, want %d", trial, cum, n)
		}
	}
}

// TestPromMergedRegistryEquivalence: a Collector merges device
// registries in track-name order regardless of how worker scheduling
// interleaved their registration, so the merged exposition bytes are
// identical at any worker count. Modeled here by registering the same
// device set in 1-, 2- and 8-way interleavings (the registration orders
// real pool schedules produce) and comparing the merged bytes.
func TestPromMergedRegistryEquivalence(t *testing.T) {
	const devices = 24
	fill := func(reg *Registry, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		reg.Counter("dev.frames").Add(uint64(rng.Intn(1000)))
		reg.Gauge("dev.rate.hz").Set(float64(rng.Intn(60)))
		h := reg.Histogram("dev.compare.us", CompareCostBucketsUS)
		for i := 0; i < 50; i++ {
			h.Observe(rng.Float64() * 4000)
		}
	}
	merge := func(workers int) []byte {
		c := NewCollector(0)
		// Register devices the way a workers-wide pool would interleave
		// them: lane w claims indices w, w+workers, w+2*workers, ...
		for w := 0; w < workers; w++ {
			for d := w; d < devices; d += workers {
				_, reg := c.Device(fmt.Sprintf("device %04d", d))
				fill(reg, int64(d))
			}
		}
		merged, err := c.MergedMetrics()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := merged.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := merge(1)
	if _, err := ParsePrometheus(bytes.NewReader(ref)); err != nil {
		t.Fatalf("merged exposition invalid: %v", err)
	}
	for _, workers := range []int{2, 8} {
		if got := merge(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d exposition differs from workers=1:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

func TestWritePrometheusNameCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("a.b").Set(1)
	reg.Gauge("a_b").Set(2)
	if err := reg.WritePrometheus(&bytes.Buffer{}); err == nil {
		t.Error("colliding sanitized names were not rejected")
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var reg *Registry
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

// badPromDocs are exposition documents ParsePrometheus must reject.
var badPromDocs = []struct {
	name string
	doc  string
}{
	{"bad metric name", "9bad 1\n"},
	{"bad label name", `m{9l="x"} 1` + "\n"},
	{"unterminated label", `m{l="x} 1` + "\n"},
	{"bad escape", `m{l="\q"} 1` + "\n"},
	{"bad value", "m one\n"},
	{"duplicate series", "m{a=\"1\"} 1\nm{a=\"1\"} 2\n"},
	{"unknown type", "# TYPE m widget\nm 1\n"},
	{"type after samples", "m 1\n# TYPE m gauge\n"},
	{"histogram no buckets", "# TYPE h histogram\nh_sum 1\nh_count 1\n"},
	{"histogram no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
	{"histogram non-monotone", "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
	{"histogram count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"},
	{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"},
	{"type without a type", "# TYPE m\nm 1\n"},
}

func TestParsePrometheusRejectsBadInput(t *testing.T) {
	for _, tc := range badPromDocs {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParsePrometheus(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("accepted %q", tc.doc)
			}
		})
	}
}

// FuzzParsePrometheus checks that no input panics the parser, which
// ccdem-obscheck runs on a scraped /metrics document.
func FuzzParsePrometheus(f *testing.F) {
	var buf bytes.Buffer
	if err := testRegistry().WritePrometheus(&buf); err != nil {
		f.Fatalf("WritePrometheus: %v", err)
	}
	f.Add(buf.Bytes())
	for _, tc := range badPromDocs {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		_, _ = ParsePrometheus(bytes.NewReader(doc)) // an error is a valid outcome; a panic is not
	})
}

func TestParsePrometheusAcceptsInfNaN(t *testing.T) {
	doc := "# TYPE g gauge\ng{k=\"a\"} +Inf\ng{k=\"b\"} -Inf\ng{k=\"c\"} NaN\n"
	fams, err := ParsePrometheus(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	g := fams["g"]
	if s := g.Sample("g", map[string]string{"k": "a"}); s == nil || !math.IsInf(s.Value, 1) {
		t.Errorf("+Inf sample = %+v", s)
	}
	if s := g.Sample("g", map[string]string{"k": "c"}); s == nil || !math.IsNaN(s.Value) {
		t.Errorf("NaN sample = %+v", s)
	}
}
