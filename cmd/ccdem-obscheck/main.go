// Command ccdem-obscheck validates telemetry artifacts — the CI teeth
// behind the daemon's observability surfaces. It checks a Prometheus
// text exposition document against the strict in-repo parser (names,
// escapes, TYPE declarations, histogram bucket monotonicity and
// _sum/_count consistency) and a Chrome trace-event JSON document for
// structural expectations (minimum distinct process count, required span
// names).
//
// Examples:
//
//	curl -fsS localhost:7700/metrics | ccdem-obscheck -prom - -require svc_jobs_submitted_total
//	ccdem-obscheck -trace trace.json -min-pids 3 -spans dispatch,run,encode,merge
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ccdem/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccdem-obscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	promPath := fs.String("prom", "", "Prometheus text exposition file to validate (- for stdin)")
	require := fs.String("require", "", "comma-separated metric family names that must be present (with -prom)")
	tracePath := fs.String("trace", "", "Chrome trace-event JSON file to validate (- for stdin)")
	minPids := fs.Int("min-pids", 0, "minimum distinct process ids among complete (ph=X) trace events")
	spans := fs.String("spans", "", "comma-separated span names the trace must contain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *promPath == "" && *tracePath == "" {
		fmt.Fprintln(stderr, "ccdem-obscheck: nothing to check (want -prom and/or -trace)")
		return 2
	}
	if *promPath != "" {
		if err := checkProm(*promPath, *require, stdout); err != nil {
			fmt.Fprintf(stderr, "ccdem-obscheck: %v\n", err)
			return 1
		}
	}
	if *tracePath != "" {
		if err := checkTraceFile(*tracePath, *minPids, *spans, stdout); err != nil {
			fmt.Fprintf(stderr, "ccdem-obscheck: %v\n", err)
			return 1
		}
	}
	return 0
}

func open(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func checkProm(path, require string, stdout io.Writer) error {
	r, err := open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	fams, err := obs.ParsePrometheus(r)
	if err != nil {
		return err
	}
	for _, name := range splitList(require) {
		if fams[name] == nil {
			return fmt.Errorf("prom: required family %s absent", name)
		}
	}
	fmt.Fprintf(stdout, "ccdem-obscheck: prom ok (%d families)\n", len(fams))
	return nil
}

func checkTraceFile(path string, minPids int, spans string, stdout io.Writer) error {
	r, err := open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	return checkTrace(r, minPids, spans, stdout)
}

// checkTrace validates a Chrome trace-event document: exactly one JSON
// array, whose complete (ph=X) events come from at least minPids distinct
// processes and name every span in the comma-separated spans list.
func checkTrace(r io.Reader, minPids int, spans string, stdout io.Writer) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	// null would decode to an empty array, and a stream decoder would
	// ignore bytes after the array; Unmarshal and the '[' check refuse both.
	if doc := bytes.TrimLeft(data, " \t\r\n"); len(doc) == 0 || doc[0] != '[' {
		return fmt.Errorf("trace: not a JSON event array")
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		PID  int    `json:"pid"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("trace: not a JSON event array: %w", err)
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.PID] = true
		names[ev.Name] = true
	}
	if len(pids) < minPids {
		return fmt.Errorf("trace: spans from %d processes, want at least %d", len(pids), minPids)
	}
	for _, name := range splitList(spans) {
		if !names[name] {
			return fmt.Errorf("trace: no %q span (have %d span events)", name, len(names))
		}
	}
	fmt.Fprintf(stdout, "ccdem-obscheck: trace ok (%d events, %d processes)\n", len(events), len(pids))
	return nil
}
