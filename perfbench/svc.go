package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// svc-sharded drives the real ccdem-svc binary: one HTTP client in a
// closed loop submits a job, watches it to completion, fetches the merged
// result, and only then submits the next. Each job runs shards × 1 worker
// subprocesses, no more busy processes than the host has CPUs.

// daemon is one running ccdem-svc.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startDaemon launches ccdem-svc on a free port with a fresh state
// directory and returns once /healthz answers, with the start-up time
// from exec to that point.
func (b *bench) startDaemon(client *http.Client, stateDir string) (*daemon, float64, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(b.svcBin, "-listen", "127.0.0.1:0", "-state-dir", stateDir,
		"-max-jobs", "1", "-log-format", "json")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	sc := bufio.NewScanner(pipe)
	const listening = "ccdem-svc: listening on "
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, listening) {
			d.base = strings.TrimPrefix(line, listening)
			break
		}
	}
	// Keep draining the daemon's log so it never blocks on a full pipe.
	go func() {
		io.Copy(io.Discard, pipe)
		close(d.done)
	}()
	if d.base == "" {
		d.stop()
		return nil, 0, fmt.Errorf("ccdem-svc exited before listening")
	}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("ccdem-svc /healthz never answered: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return d, time.Since(start).Seconds(), nil
}

// stop terminates the daemon and waits for it. Its resource usage covers
// the shard workers it reaped.
func (d *daemon) stop() (*syscall.Rusage, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return nil, fmt.Errorf("ccdem-svc: %v", err)
		}
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("ccdem-svc did not drain within 60s")
	}
	return d.cmd.ProcessState.SysUsage().(*syscall.Rusage), nil
}

// cpuTicks returns the daemon's CPU plus that of its reaped children
// (the shard workers), in clock ticks of 10 ms.
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at state (3);
	// utime, stime, cutime, cstime are fields 14–17.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 15 {
		return 0, fmt.Errorf("short /proc stat")
	}
	var total int64
	for _, f := range fields[11:15] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// clockTickMS is the length of a /proc clock tick (USER_HZ is 100 on
// Linux).
const clockTickMS = 10

// jobProgress is the part of ccdem-svc's job status the client reads.
type jobProgress struct {
	ID       string             `json:"id"`
	State    string             `json:"state"`
	ElapsedS float64            `json:"elapsed_s"`
	StageS   map[string]float64 `json:"stage_s"`
	CPUS     float64            `json:"cpu_s"`
	Retries  int                `json:"retries"`
	Error    string             `json:"error"`
}

// jobOutcome is one closed-loop job as the client saw it.
type jobOutcome struct {
	latencyS float64 // submit → result received
	result   []byte
	progress jobProgress      // traced: final status
	spans    map[string]int64 // traced: daemon trace spans summed by name, µs
	calls    map[string]int64 // client spans around each HTTP call, ns
}

// runJob submits the workload's job and follows it to its result. With
// traced set it also fetches the job's status and trace after timing.
func (b *bench) runJob(client *http.Client, base string, spec []byte, traced bool) (jobOutcome, error) {
	var o jobOutcome
	o.calls = map[string]int64{}
	body, _ := json.Marshal(map[string]any{
		"spec": json.RawMessage(spec), "shards": b.w.shards, "workers": 1,
	})
	start := time.Now()
	mark := start
	span := func(name string) {
		now := time.Now()
		o.calls[name] = int64(now.Sub(mark))
		mark = now
	}
	resp, err := client.Post(base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return o, err
	}
	var p jobProgress
	err = decodeResponse(resp, http.StatusAccepted, &p)
	if err != nil {
		return o, fmt.Errorf("submit: %v", err)
	}
	span("POST /api/jobs")
	if p, err = watch(client, base+"/api/jobs/"+p.ID+"/watch"); err != nil {
		return o, err
	}
	if p.State != "done" {
		return o, fmt.Errorf("job %s %s: %s", p.ID, p.State, p.Error)
	}
	span("GET /watch")
	resp, err = client.Get(base + "/api/jobs/" + p.ID + "/result")
	if err != nil {
		return o, err
	}
	o.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return o, fmt.Errorf("result: status %d: %v", resp.StatusCode, err)
	}
	span("GET /result")
	o.latencyS = time.Since(start).Seconds()
	if !traced {
		return o, nil
	}
	resp, err = client.Get(base + "/api/jobs/" + p.ID)
	if err != nil {
		return o, err
	}
	if err := decodeResponse(resp, http.StatusOK, &o.progress); err != nil {
		return o, err
	}
	resp, err = client.Get(base + "/api/jobs/" + p.ID + "/trace")
	if err != nil {
		return o, err
	}
	var events []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Dur  int64  `json:"dur"`
	}
	if err := decodeResponse(resp, http.StatusOK, &events); err != nil {
		return o, err
	}
	o.spans = map[string]int64{}
	for _, e := range events {
		if e.Ph == "X" {
			o.spans[e.Name] += e.Dur
		}
	}
	return o, nil
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// watch follows a job's server-sent progress stream to a terminal state.
func watch(client *http.Client, url string) (jobProgress, error) {
	resp, err := client.Get(url)
	if err != nil {
		return jobProgress{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var p jobProgress
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			return p, err
		}
		switch p.State {
		case "done", "failed", "cancelled":
			return p, nil
		}
	}
	return jobProgress{}, fmt.Errorf("watch stream ended early: %v", sc.Err())
}

// resultReport reads a merged result's digest, headline numbers and
// class mix, so a job is checked like an in-process campaign.
func resultReport(result []byte) (campaignReport, error) {
	var doc struct {
		Aggregate struct {
			FailedDevices  int     `json:"failed_devices"`
			MeanSavedMW    float64 `json:"mean_saved_mw"`
			QualityPctMean float64 `json:"quality_pct_mean"`
			Profiles       []struct {
				Profile string `json:"profile"`
				Devices int    `json:"devices"`
			} `json:"profiles"`
		} `json:"aggregate"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		return campaignReport{}, fmt.Errorf("svc result: %v", err)
	}
	sum := sha256.Sum256(result)
	a := doc.Aggregate
	rep := campaignReport{
		Failed: a.FailedDevices, Digest: hex.EncodeToString(sum[:]),
		SavedMW: a.MeanSavedMW, QualityPct: a.QualityPctMean, Classes: map[string]int{},
	}
	for _, p := range a.Profiles {
		rep.Classes[p.Profile] = p.Devices
	}
	return rep, nil
}

// svcLoop starts a daemon, runs closed-loop jobs while b.more allows,
// and stops it. It returns the jobs, the daemon's start-up time, its CPU
// over the loop, and its peak RSS (which covers its shard workers).
func (b *bench) svcLoop(client *http.Client, deadline time.Time, traced bool) ([]jobOutcome, float64, float64, float64, error) {
	dm, setup, err := b.startDaemon(client, filepath.Join(b.work, "state"))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var jobs []jobOutcome
	var loopErr error
	cpu0, err0 := dm.cpuTicks()
	for i := 0; b.more(i, deadline); i++ {
		k := i % len(b.set)
		o, err := b.runJob(client, dm.base, b.specs[k], traced)
		if err != nil {
			loopErr = err
			break
		}
		rep, err := resultReport(o.result)
		if err != nil {
			loopErr = err
			break
		}
		b.checkCampaign(b.w, b.set[k], rep)
		jobs = append(jobs, o)
	}
	cpu1, err1 := dm.cpuTicks()
	ru, stopErr := dm.stop()
	switch {
	case loopErr != nil:
		return nil, 0, 0, 0, loopErr
	case stopErr != nil:
		return nil, 0, 0, 0, stopErr
	case err0 != nil || err1 != nil:
		return nil, 0, 0, 0, fmt.Errorf("reading daemon CPU: %v %v", err0, err1)
	}
	return jobs, setup, float64((cpu1 - cpu0) * clockTickMS), float64(ru.Maxrss) / 1024, nil
}

func (b *bench) svcEndToEnd(diag map[string]float64) (map[string]metric, error) {
	client := &http.Client{Timeout: 120 * time.Second}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		dm, s, err := b.startDaemon(client, filepath.Join(b.work, fmt.Sprintf("probe-%d", i)))
		if err != nil {
			return nil, err
		}
		if _, err := dm.stop(); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	jobs, setup, cpuMS, rssMB, err := b.svcLoop(client, time.Now().Add(b.seconds), false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup)
	var lat []float64
	for _, o := range jobs {
		lat = append(lat, o.latencyS)
	}
	diag["jobs"] = float64(len(jobs))
	diag["setup_samples"] = float64(len(setups))
	diag["job_s_iqr_pct"] = 100 * iqrShare(lat)
	metrics := map[string]metric{
		"devices_per_s":     {b.cycleDevices() / b.cycleTotal(lat), "1/s"},
		"cpu_ms_per_device": {cpuMS / float64(len(jobs)*b.w.devices), "ms"},
		"peak_rss_mb":       {rssMB, "MB"},
		"setup_s":           {median(setups), "s"},
		"job_s_p50":         {median(lat), "s"},
	}
	b.simulated(metrics)
	return metrics, nil
}
