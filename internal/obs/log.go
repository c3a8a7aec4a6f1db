// Structured logging for the service layer, built on log/slog. The obs
// package owns the two conventions every ccdem process shares: how a log
// sink is constructed from a -log-format flag ("text" for humans, "json"
// for machines), and how a worker subprocess's JSON log lines are folded
// back into its parent daemon's stream so a multi-process campaign reads
// as one correlated log (job/shard attrs added by the parent, worker
// attrs preserved).
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"time"
)

// NewLogger builds a slog.Logger writing to w in the given format:
// "text" (or "") for logfmt-style lines, "json" for one JSON record per
// line — the format RelayJSONLine can parse back. Unknown formats error,
// so a mistyped -log-format fails at startup rather than silently.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}

// NopLogger returns a logger that discards every record — the sink used
// when no logger is configured, so instrumented code can log
// unconditionally.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
		Level: slog.Level(127), // above every real level: records never reach the writer
	}))
}

// RelayJSONLine parses one line of a subprocess's JSON log stream (the
// output of a slog JSONHandler) and re-logs it through logger with extra
// attrs appended — the daemon's job/shard correlation. The worker's own
// attrs are preserved (sorted by key, so relayed records are
// deterministic), except that an extra attr replaces the worker's attr
// of the same key, so no key is logged twice; numbers keep their exact
// digits. The worker's timestamp is dropped in favor of the relay time.
// Returns false when the line is not a JSON log record, leaving the
// caller to treat it as plain diagnostic output.
func RelayJSONLine(logger *slog.Logger, line string, extra ...slog.Attr) bool {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "{") {
		return false
	}
	var rec map[string]any
	dec := json.NewDecoder(strings.NewReader(line))
	dec.UseNumber()
	if err := dec.Decode(&rec); err != nil {
		return false
	}
	if _, err := dec.Token(); err != io.EOF { // trailing data after the record
		return false
	}
	msgVal, ok := rec[slog.MessageKey].(string)
	if !ok {
		return false
	}
	levelStr, ok := rec[slog.LevelKey].(string)
	if !ok {
		return false
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(levelStr)); err != nil {
		return false
	}
	delete(rec, slog.MessageKey)
	delete(rec, slog.LevelKey)
	delete(rec, slog.TimeKey)
	for _, a := range extra {
		delete(rec, a.Key)
	}
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attrs := make([]slog.Attr, 0, len(keys)+len(extra))
	for _, k := range keys {
		attrs = append(attrs, slog.Any(k, rec[k]))
	}
	attrs = append(attrs, extra...)
	logger.LogAttrs(context.Background(), level, msgVal, attrs...)
	return true
}

// DurationSeconds renders a duration as a float seconds attr — the unit
// convention for every wall-clock quantity in the service logs and
// metrics (matching the _s / _seconds metric suffixes).
func DurationSeconds(key string, d time.Duration) slog.Attr {
	return slog.Float64(key, d.Seconds())
}
