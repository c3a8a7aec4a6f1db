// An in-repo parser for the Prometheus text exposition format (0.0.4),
// strict enough to act as a conformance check on our own /metrics
// output: it validates metric and label name syntax, label value
// escaping, TYPE declarations, and — for histograms — cumulative bucket
// monotonicity, the presence of the +Inf bucket, and _count/_sum
// consistency. The telemetry smoke test and the daemon tests scrape
// /metrics and feed the bytes through here.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromPoint is one parsed sample: the series' full metric name (including
// any _bucket/_sum/_count suffix), its label set, and the value.
type PromPoint struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name    string // family name (histogram series share one family)
	Type    string // counter | gauge | histogram | summary | untyped
	Help    string
	Samples []PromPoint
}

// Sample returns the family's first sample matching name and labels
// exactly, or nil.
func (f *PromFamily) Sample(name string, labels map[string]string) *PromPoint {
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s
		}
	}
	return nil
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// familyOf strips a histogram/summary series suffix to find the family a
// sample belongs to, given the set of declared family names.
func familyOf(name string, declared map[string]*PromFamily) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f, exists := declared[base]; exists && (f.Type == "histogram" || f.Type == "summary") {
				return base
			}
		}
	}
	return name
}

// parseLabels parses a `{k="v",...}` block (brace-delimited, escapes per
// the exposition format) and returns the labels and the rest of the line.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	rest := s[1:] // skip '{'
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		key := strings.TrimSpace(rest[:eq])
		if !validLabelName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t")
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", key)
		}
		var val strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, "", fmt.Errorf("label %q: trailing backslash", key)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %q: bad escape \\%c", key, rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, "", fmt.Errorf("label %q: unterminated value", key)
		}
		labels[key] = val.String()
		rest = strings.TrimLeft(rest[i+1:], " \t")
		if rest != "" && rest[0] == ',' {
			rest = rest[1:]
		}
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// ParsePrometheus parses and validates a text exposition document,
// returning the families keyed by family name. Violations of the format
// — bad names, bad escapes, duplicate series, a TYPE line after its
// family's samples, non-monotone histogram buckets, a histogram without
// +Inf or whose _count disagrees with its +Inf bucket — are errors.
func ParsePrometheus(r io.Reader) (map[string]*PromFamily, error) {
	families := map[string]*PromFamily{}
	seen := map[string]bool{} // duplicate-series detection: name + sorted labels
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fail := func(format string, args ...any) (map[string]*PromFamily, error) {
			return nil, fmt.Errorf("prom parse: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // plain comment
			}
			name := fields[2]
			if !validPromName(name) {
				return fail("invalid metric name %q in %s line", name, fields[1])
			}
			f := families[name]
			if f == nil {
				f = &PromFamily{Name: name, Type: "untyped"}
				families[name] = f
			}
			if fields[1] == "HELP" {
				if len(fields) == 4 {
					f.Help = fields[3]
				}
				continue
			}
			if len(fields) < 4 {
				return fail("TYPE line for %s without a type", name)
			}
			typ := strings.TrimSpace(fields[3])
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fail("unknown TYPE %q for %s", typ, name)
			}
			if len(f.Samples) > 0 {
				return fail("TYPE for %s after its samples", name)
			}
			f.Type = typ
			continue
		}

		// Sample line: name[{labels}] value [timestamp]
		i := strings.IndexAny(line, "{ \t")
		if i < 0 {
			return fail("sample without value: %q", line)
		}
		name := line[:i]
		if !validPromName(name) {
			return fail("invalid metric name %q", name)
		}
		var labels map[string]string
		rest := line[i:]
		if rest[0] == '{' {
			var err error
			labels, rest, err = parseLabels(rest)
			if err != nil {
				return fail("%s: %v", name, err)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fail("%s: want value [timestamp], got %q", name, rest)
		}
		value, err := parsePromValue(fields[0])
		if err != nil {
			return fail("%s: bad value %q", name, fields[0])
		}

		famName := familyOf(name, families)
		f := families[famName]
		if f == nil {
			f = &PromFamily{Name: famName, Type: "untyped"}
			families[famName] = f
		}
		key := seriesKey(name, labels)
		if seen[key] {
			return fail("duplicate series %s", key)
		}
		seen[key] = true
		f.Samples = append(f.Samples, PromPoint{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prom parse: %w", err)
	}
	for _, f := range families {
		if f.Type == "histogram" {
			if err := validateHistogramFamily(f); err != nil {
				return nil, fmt.Errorf("prom parse: histogram %s: %w", f.Name, err)
			}
		}
	}
	return families, nil
}

func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, "{%s=%q}", k, labels[k])
	}
	return b.String()
}

// validateHistogramFamily checks the exposition invariants of one
// histogram: buckets carry le labels, cumulative counts are monotone in
// ascending le order, the +Inf bucket exists, and _count matches it.
// Histograms with extra grouping labels are validated per label group.
func validateHistogramFamily(f *PromFamily) error {
	type bucket struct {
		le  float64
		raw string
		v   float64
	}
	groups := map[string][]bucket{}
	counts := map[string]float64{}
	sums := map[string]bool{}
	groupKey := func(labels map[string]string) string {
		rest := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		return seriesKey("", rest)
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			raw, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket without le label")
			}
			le, err := parsePromValue(raw)
			if err != nil {
				return fmt.Errorf("bad le %q", raw)
			}
			g := groupKey(s.Labels)
			groups[g] = append(groups[g], bucket{le, raw, s.Value})
		case f.Name + "_count":
			counts[groupKey(s.Labels)] = s.Value
		case f.Name + "_sum":
			sums[groupKey(s.Labels)] = true
		case f.Name:
			return fmt.Errorf("bare sample %s for histogram family", s.Name)
		}
	}
	if len(groups) == 0 {
		return fmt.Errorf("no _bucket series")
	}
	for g, buckets := range groups {
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		var prev float64
		inf := math.NaN()
		for i, b := range buckets {
			if i > 0 && b.v < prev {
				return fmt.Errorf("bucket counts not monotone: le=%s holds %g after %g", b.raw, b.v, prev)
			}
			prev = b.v
			if math.IsInf(b.le, 1) {
				inf = b.v
			}
		}
		if math.IsNaN(inf) {
			return fmt.Errorf("missing +Inf bucket")
		}
		count, ok := counts[g]
		if !ok {
			return fmt.Errorf("missing _count series")
		}
		if count != inf {
			return fmt.Errorf("_count %g disagrees with +Inf bucket %g", count, inf)
		}
		if !sums[g] {
			return fmt.Errorf("missing _sum series")
		}
	}
	return nil
}
