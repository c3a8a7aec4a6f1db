package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ccdem/internal/obs"
)

// newTestServer wires a manager into an httptest server; cleanup shuts
// both down.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = LocalRunner{}
	}
	m := NewManager(cfg)
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return srv, m
}

// doJSON issues a request and decodes the response body into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// submitBody builds a valid submission document around a test spec.
func submitBody(t *testing.T, devices, shards int) []byte {
	t.Helper()
	doc, err := json.Marshal(JobSpec{Spec: testSpecDoc(t, devices), Shards: shards, Workers: 2})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return doc
}

func TestHTTPSubmitValidation(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	badSpec := func(mutate string) []byte {
		// Patch one field of an otherwise valid embedded cohort spec.
		return []byte(fmt.Sprintf(`{"spec": %s}`, mutate))
	}
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed json", `{"spec":`, "parsing job"},
		{"trailing garbage", `{"spec": {"version":1,"devices":4,"profiles":[]}} extra`, "parsing job"},
		{"unknown field", `{"bogus": 1}`, "parsing job"},
		{"missing spec", `{}`, "missing cohort spec"},
		{"empty spec", `{"spec": null}`, "missing cohort spec"},
		{"zero devices", string(badSpec(`{"version":1,"devices":0,"profiles":[]}`)), "device count"},
		{"negative devices", string(badSpec(`{"version":1,"devices":-3,"profiles":[]}`)), "device count"},
		{"bad spec version", string(badSpec(`{"version":9,"devices":4,"profiles":[]}`)), "unsupported spec version"},
		{"unknown governor", string(badSpec(`{"version":1,"devices":4,"governor":"warp","profiles":[]}`)), "unknown governor"},
		{"negative meter samples", string(badSpec(`{"version":1,"devices":4,"meter_samples":-5,"profiles":[]}`)), "meter samples"},
		{"huge touch intensity", string(badSpec(`{"version":1,"devices":4,"profiles":[{"name":"p","weight":1,"touch_intensity":1e300,"apps":[{"name":"Facebook","weight":1}]}]}`)), "touch intensity"},
		{"tiny touch intensity", string(badSpec(`{"version":1,"devices":4,"profiles":[{"name":"p","weight":1,"touch_intensity":1e-300,"apps":[{"name":"Facebook","weight":1}]}]}`)), "touch intensity"},
		{"negative shards", `{"spec": {"version":1,"devices":4,"profiles":[]}, "shards": -1}`, "negative shard count"},
		{"shards exceed devices", `{"spec": {"version":1,"devices":4,"profiles":[]}, "shards": 5}`, "empty shards"},
		{"negative workers", `{"spec": {"version":1,"devices":4,"profiles":[]}, "workers": -1}`, "negative worker count"},
		{"negative batch", `{"spec": {"version":1,"devices":4,"profiles":[]}, "batch": -8}`, "negative batch size"},
		{"negative faults", `{"spec": {"version":1,"devices":4,"profiles":[]}, "faults": -0.5}`, "negative fault intensity"},
		{"negative timeout", `{"spec": {"version":1,"devices":4,"profiles":[]}, "task_timeout_s": -1}`, "negative task timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBody struct {
				Error string `json:"error"`
			}
			status := doJSON(t, http.MethodPost, srv.URL+"/api/jobs", []byte(tc.body), &errBody)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", status)
			}
			if errBody.Error == "" || !strings.Contains(errBody.Error, tc.want) {
				t.Fatalf("error body = %q, want containing %q", errBody.Error, tc.want)
			}
		})
	}
}

func TestHTTPUnknownJob(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path string
	}{
		{http.MethodGet, "/api/jobs/job-0042"},
		{http.MethodDelete, "/api/jobs/job-0042"},
		{http.MethodGet, "/api/jobs/job-0042/result"},
		{http.MethodGet, "/api/jobs/job-0042/watch"},
	} {
		var errBody struct {
			Error string `json:"error"`
		}
		status := doJSON(t, tc.method, srv.URL+tc.path, nil, &errBody)
		if status != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404", tc.method, tc.path, status)
		}
		if !strings.Contains(errBody.Error, "job-0042") {
			t.Errorf("%s %s: error body = %q, want it to name the job", tc.method, tc.path, errBody.Error)
		}
	}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxJobs: 2})

	var submitted Progress
	status := doJSON(t, http.MethodPost, srv.URL+"/api/jobs", submitBody(t, 20, 2), &submitted)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if submitted.ID == "" || submitted.Devices != 20 || submitted.Shards != 2 {
		t.Fatalf("submitted progress = %+v", submitted)
	}

	var p Progress
	deadline := time.Now().Add(30 * time.Second)
	for {
		if doJSON(t, http.MethodGet, srv.URL+"/api/jobs/"+submitted.ID, nil, &p); p.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", p.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p.State != StateDone || p.Done != 20 {
		t.Fatalf("terminal progress = %+v, want done with 20 devices", p)
	}

	resp, err := http.Get(srv.URL + "/api/jobs/" + submitted.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading result: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d: %s", resp.StatusCode, got)
	}
	if want := directRunJSON(t, testSpecDoc(t, 20)); !bytes.Equal(got, want) {
		t.Errorf("service result differs from direct run:\n got: %s\nwant: %s", got, want)
	}

	var list []Progress
	if status := doJSON(t, http.MethodGet, srv.URL+"/api/jobs", nil, &list); status != http.StatusOK {
		t.Fatalf("list status = %d", status)
	}
	if len(list) != 1 || list[0].ID != submitted.ID {
		t.Fatalf("job list = %+v, want the one submitted job", list)
	}
}

func TestHTTPResultConflictWhileRunning(t *testing.T) {
	runner := newGateRunner(true)
	srv, _ := newTestServer(t, Config{Runner: runner})
	defer close(runner.release)

	var submitted Progress
	doJSON(t, http.MethodPost, srv.URL+"/api/jobs", submitBody(t, 6, 1), &submitted)
	<-runner.started

	var errBody struct {
		Error string `json:"error"`
	}
	status := doJSON(t, http.MethodGet, srv.URL+"/api/jobs/"+submitted.ID+"/result", nil, &errBody)
	if status != http.StatusConflict {
		t.Fatalf("result status while running = %d, want 409", status)
	}
	if !strings.Contains(errBody.Error, "still") {
		t.Errorf("error body = %q, want a still-running message", errBody.Error)
	}

	// Cancel over HTTP, then the result must 409 with the terminal error.
	if status := doJSON(t, http.MethodDelete, srv.URL+"/api/jobs/"+submitted.ID, nil, nil); status != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", status)
	}
	deadline := time.Now().Add(30 * time.Second)
	var p Progress
	for {
		if doJSON(t, http.MethodGet, srv.URL+"/api/jobs/"+submitted.ID, nil, &p); p.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s after cancel", p.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p.State != StateCancelled {
		t.Fatalf("state after cancel = %s", p.State)
	}
	status = doJSON(t, http.MethodGet, srv.URL+"/api/jobs/"+submitted.ID+"/result", nil, &errBody)
	if status != http.StatusConflict || !strings.Contains(errBody.Error, "cancelled") {
		t.Fatalf("result after cancel: status %d body %q, want 409 naming cancelled", status, errBody.Error)
	}
}

func TestHTTPHealthVersionMetrics(t *testing.T) {
	srv, m := newTestServer(t, Config{})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	var version struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	if status := doJSON(t, http.MethodGet, srv.URL+"/version", nil, &version); status != http.StatusOK {
		t.Fatalf("version status = %d", status)
	}
	if version.Version == "" || !strings.HasPrefix(version.GoVersion, "go") {
		t.Fatalf("version body = %+v", version)
	}

	// Metrics are served only as the Prometheus exposition at /metrics
	// (TestHTTPMetricsPrometheus).
	resp, err = http.Get(srv.URL + "/api/metrics")
	if err != nil {
		t.Fatalf("GET /api/metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/metrics = %d, want 404", resp.StatusCode)
	}

	// Once shutdown begins the daemon reports itself unhealthy and
	// refuses new jobs with 503.
	m.BeginShutdown()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after shutdown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown = %d, want 503", resp.StatusCode)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	status := doJSON(t, http.MethodPost, srv.URL+"/api/jobs", submitBody(t, 4, 1), &errBody)
	if status != http.StatusServiceUnavailable || !strings.Contains(errBody.Error, "shutting down") {
		t.Fatalf("submit after shutdown: %d %q, want 503 shutting down", status, errBody.Error)
	}
}

// TestHTTPResponseHeaders pins the daemon's header contract: every
// endpoint declares its Content-Type and forbids caching — all surfaces
// report live state.
func TestHTTPResponseHeaders(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	var submitted Progress
	doJSON(t, http.MethodPost, srv.URL+"/api/jobs", submitBody(t, 4, 1), &submitted)

	cases := []struct {
		path string
		ct   string
	}{
		{"/healthz", "text/plain; charset=utf-8"},
		{"/version", "application/json"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/api/jobs", "application/json"},
		{"/api/jobs/" + submitted.ID, "application/json"},
	}
	for _, tc := range cases {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != tc.ct {
			t.Errorf("%s Content-Type = %q, want %q", tc.path, got, tc.ct)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", tc.path, got)
		}
	}
}

// TestHTTPMetricsPrometheus scrapes /metrics after a finished campaign
// and holds the body to the exposition format via the in-repo parser.
func TestHTTPMetricsPrometheus(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	var submitted Progress
	doJSON(t, http.MethodPost, srv.URL+"/api/jobs", submitBody(t, 8, 2), &submitted)
	var p Progress
	deadline := time.Now().Add(30 * time.Second)
	for {
		if doJSON(t, http.MethodGet, srv.URL+"/api/jobs/"+submitted.ID, nil, &p); p.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", p.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for name, typ := range map[string]string{
		"svc_jobs_submitted_total": "counter",
		"svc_devices_done_total":   "counter",
		"svc_jobs_running":         "gauge",
		"svc_job_duration_s":       "histogram",
		"ccdem_build_info":         "gauge",
	} {
		f := fams[name]
		if f == nil || f.Type != typ {
			t.Errorf("family %s missing or wrong type: %+v", name, f)
		}
	}
	if s := fams["svc_devices_done_total"].Sample("svc_devices_done_total", nil); s == nil || s.Value != 8 {
		t.Errorf("svc_devices_done_total = %+v, want 8", s)
	}
	if f := fams["svc_job_state"]; f == nil ||
		f.Sample("svc_job_state", map[string]string{"job": submitted.ID, "state": string(p.State)}) == nil {
		t.Errorf("per-job state series missing for %s/%s", submitted.ID, p.State)
	}
	if f := fams["svc_job_devices_done"]; f == nil ||
		f.Sample("svc_job_devices_done", map[string]string{"job": submitted.ID}) == nil {
		t.Errorf("per-job devices-done series missing for %s", submitted.ID)
	}
}

// TestHTTPWatchHeartbeat holds a job open behind a gate and requires the
// watch stream to carry SSE comment keep-alives at the configured
// interval, then a terminal progress event once released.
func TestHTTPWatchHeartbeat(t *testing.T) {
	runner := newGateRunner(true)
	srv, _ := newTestServer(t, Config{Runner: runner, WatchHeartbeat: 25 * time.Millisecond})

	var submitted Progress
	doJSON(t, http.MethodPost, srv.URL+"/api/jobs", submitBody(t, 6, 1), &submitted)
	<-runner.started

	resp, err := http.Get(srv.URL + "/api/jobs/" + submitted.ID + "/watch")
	if err != nil {
		t.Fatalf("GET watch: %v", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	heartbeats := 0
	for heartbeats < 2 {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("watch stream ended before two heartbeats: %v", err)
		}
		if strings.HasPrefix(line, ": heartbeat") {
			heartbeats++
		}
	}
	close(runner.release)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("draining watch stream: %v", err)
	}
	var last Progress
	for _, line := range strings.Split(strings.TrimSpace(string(rest)), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			json.Unmarshal([]byte(data), &last)
		}
	}
	if last.State != StateDone {
		t.Fatalf("stream after release ended on %+v, want done", last)
	}
}

func TestHTTPWatchStreamsProgress(t *testing.T) {
	srv, _ := newTestServer(t, Config{})

	var submitted Progress
	doJSON(t, http.MethodPost, srv.URL+"/api/jobs", submitBody(t, 12, 2), &submitted)

	// The watch handler holds the stream open until the job is terminal,
	// so reading the whole body captures the full event sequence.
	resp, err := http.Get(srv.URL + "/api/jobs/" + submitted.ID + "/watch")
	if err != nil {
		t.Fatalf("GET watch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading watch stream: %v", err)
	}
	events := strings.Count(string(body), "event: progress")
	if events < 1 {
		t.Fatalf("watch stream carried %d events: %q", events, body)
	}
	var last Progress
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if data, ok := strings.CutPrefix(lines[i], "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("decoding last event %q: %v", data, err)
			}
			break
		}
	}
	if last.State != StateDone || last.Done != 12 {
		t.Fatalf("last watch event = %+v, want done with 12 devices", last)
	}
}
