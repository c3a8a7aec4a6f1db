package fleet

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccdem/internal/fault"
	"ccdem/internal/sim"
)

func TestPoolRecoversPanic(t *testing.T) {
	var completed atomic.Int64
	err := Pool{Workers: 2, ContinueOnError: true}.Run(context.Background(), 5,
		func(_ context.Context, i int) error {
			if i == 2 {
				panic("device blew up")
			}
			completed.Add(1)
			return nil
		})
	if err == nil {
		t.Fatal("panic not reported as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError: %v", err, err)
	}
	if pe.Task != 2 {
		t.Errorf("PanicError.Task = %d, want 2", pe.Task)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if !strings.Contains(err.Error(), "device blew up") {
		t.Errorf("panic value missing from error: %v", err)
	}
	if completed.Load() != 4 {
		t.Errorf("completed = %d of 4 healthy tasks", completed.Load())
	}
}

func TestPoolPanicFailsFastByDefault(t *testing.T) {
	err := Pool{Workers: 1}.Run(context.Background(), 3,
		func(_ context.Context, i int) error {
			if i == 0 {
				panic("boom")
			}
			return nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError: %v", err, err)
	}
}

func TestPoolTaskTimeout(t *testing.T) {
	var completed atomic.Int64
	hung := make(chan struct{})
	err := Pool{Workers: 2, ContinueOnError: true, TaskTimeout: 30 * time.Millisecond}.Run(
		context.Background(), 5,
		func(_ context.Context, i int) error {
			if i == 1 {
				<-hung // never signalled: a wedged simulation
				return nil
			}
			completed.Add(1)
			return nil
		})
	close(hung)
	if err == nil {
		t.Fatal("hung task not reported")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %T is not a *TimeoutError: %v", err, err)
	}
	if te.Task != 1 {
		t.Errorf("TimeoutError.Task = %d, want 1", te.Task)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("timeout does not match context.DeadlineExceeded")
	}
	if completed.Load() != 4 {
		t.Errorf("completed = %d of 4 healthy tasks: the hung task wedged the pool", completed.Load())
	}
}

func TestPoolTimeoutSparesFastTasks(t *testing.T) {
	err := Pool{Workers: 4, TaskTimeout: 5 * time.Second}.Run(context.Background(), 8,
		func(_ context.Context, i int) error { return nil })
	if err != nil {
		t.Fatalf("fast tasks hit the timeout: %v", err)
	}
}

// TestCohortSurvivesPanickingDevice is the PR's acceptance scenario: one
// device task panicking no longer aborts the campaign — the rest of the
// fleet completes, the failure is attributed to its device index, and the
// aggregate covers the survivors.
func TestCohortSurvivesPanickingDevice(t *testing.T) {
	cohort := testCohort(6)
	cohort.testHook = func(device int) {
		if device == 3 {
			panic("corrupt device state")
		}
	}
	r, err := cohort.Run(context.Background(), Pool{Workers: 3})
	if err != nil {
		t.Fatalf("resilient run returned error: %v", err)
	}
	if len(r.Devices) != 5 {
		t.Fatalf("surviving devices = %d, want 5", len(r.Devices))
	}
	for _, d := range r.Devices {
		if d.Device == 3 {
			t.Error("failed device present in results")
		}
	}
	if len(r.Failed) != 1 || r.Failed[0].Device != 3 {
		t.Fatalf("failed = %+v, want device 3", r.Failed)
	}
	if !strings.Contains(r.Failed[0].Err, "corrupt device state") {
		t.Errorf("failure lost the panic value: %s", r.Failed[0].Err)
	}
	if r.Aggregate.Devices != 5 || r.Aggregate.FailedDevices != 1 {
		t.Errorf("aggregate counts %d/%d, want 5 surviving / 1 failed",
			r.Aggregate.Devices, r.Aggregate.FailedDevices)
	}
	if !strings.Contains(r.Aggregate.String(), "failed devices: 1") {
		t.Error("report does not mention the failed device")
	}
}

func TestCohortSurvivesHungDevice(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	cohort := testCohort(4)
	cohort.testHook = func(device int) {
		if device == 0 {
			<-hung
		}
	}
	// The budget must be generous enough that the three healthy devices
	// finish inside it even race-instrumented on a slow host — only the
	// genuinely hung device may trip it.
	r, err := cohort.Run(context.Background(), Pool{Workers: 2, TaskTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("resilient run returned error: %v", err)
	}
	if len(r.Devices) != 3 || len(r.Failed) != 1 || r.Failed[0].Device != 0 {
		t.Fatalf("devices=%d failed=%+v, want 3 surviving and device 0 timed out",
			len(r.Devices), r.Failed)
	}
}

// TestCohortSinkPastDeadlineCountsOnce: a device whose result is folded
// after the pool has already reported its task as timed out — here the
// sink outlasts the deadline — is a survivor, counted once in the rows
// and the aggregate, and not also a failure.
func TestCohortSinkPastDeadlineCountsOnce(t *testing.T) {
	const timeout = 2 * time.Second
	cohort := testCohort(1)
	cohort.Session = sim.Second
	var start time.Time
	cohort.testHook = func(int) { start = time.Now() }
	cohort.Sink = func(DeviceResult) { time.Sleep(time.Until(start.Add(timeout + 300*time.Millisecond))) }
	r, err := cohort.Run(context.Background(), Pool{Workers: 1, TaskTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failed) != 0 || len(r.Devices) != 1 || r.Aggregate.Devices != 1 || r.Aggregate.FailedDevices != 0 {
		t.Errorf("failed=%+v rows=%d aggregate=%d/%d failed, want the device counted once as a survivor",
			r.Failed, len(r.Devices), r.Aggregate.Devices, r.Aggregate.FailedDevices)
	}
}

// TestCohortSinkPanicFailsDevice: a sink that panics on a row fails that
// device and nothing else — the row is neither folded nor retained, so
// the aggregate, the rows and the failure list stay consistent.
func TestCohortSinkPanicFailsDevice(t *testing.T) {
	for _, stream := range []bool{false, true} {
		cohort := testCohort(3)
		cohort.Stream = stream
		cohort.Sink = func(d DeviceResult) {
			if d.Device == 1 {
				panic("sink rejects device 1")
			}
		}
		r, err := cohort.Run(context.Background(), Pool{Workers: 2})
		if err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
		if len(r.Failed) != 1 || r.Failed[0].Device != 1 || r.Aggregate.Devices != 2 {
			t.Errorf("stream=%v: failed=%+v aggregate devices=%d, want device 1 failed and 2 folded",
				stream, r.Failed, r.Aggregate.Devices)
		}
		if !stream && (len(r.Devices) != 2 || r.Devices[0].Device != 0 || r.Devices[1].Device != 2) {
			t.Errorf("retained rows %+v, want devices 0 and 2", r.Devices)
		}
	}
}

func TestCohortFailFast(t *testing.T) {
	cohort := testCohort(4)
	cohort.FailFast = true
	cohort.testHook = func(device int) {
		if device == 1 {
			panic("boom")
		}
	}
	if _, err := cohort.Run(context.Background(), Pool{Workers: 1}); err == nil {
		t.Fatal("FailFast run swallowed the failure")
	}
}

func TestCohortAllDevicesFailed(t *testing.T) {
	cohort := testCohort(3)
	cohort.testHook = func(int) { panic("nothing works") }
	if _, err := cohort.Run(context.Background(), Pool{Workers: 2}); err == nil {
		t.Fatal("campaign with zero survivors reported success")
	}
}

// TestFaultyCohortDeterministicAcrossWorkers: the chaos acceptance for the
// fleet layer — a faulted, hardened campaign produces byte-identical JSON
// at any worker count, because every injector is seeded purely from
// (fleet seed, device, segment).
func TestFaultyCohortDeterministicAcrossWorkers(t *testing.T) {
	plan := fault.DefaultPlan()
	cohort := testCohort(6)
	cohort.Faults = &plan
	cohort.Hardened = true
	var outputs []string
	for _, workers := range []int{1, 8} {
		r, err := cohort.Run(context.Background(), Pool{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf, true); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("faulty fleet JSON differs between 1 and 8 workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			outputs[0], outputs[1])
	}
	if !strings.Contains(outputs[0], `"faults"`) {
		t.Error("no device reported injected faults")
	}
}

func TestCohortRejectsBadFaultPlan(t *testing.T) {
	plan := fault.DefaultPlan()
	plan.PanelDropProb = 7
	cohort := testCohort(2)
	cohort.Faults = &plan
	if _, err := cohort.Run(context.Background(), Pool{}); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestStreamedCohortSurvivesPanickingDevice: resilience carries over to
// streaming — the casualty is reported by index, the merged aggregate
// covers the survivors, and a worker whose recycled device hosted the
// panic resets it cleanly for its next task.
func TestStreamedCohortSurvivesPanickingDevice(t *testing.T) {
	retained := testCohort(6)
	retained.testHook = func(device int) {
		if device == 3 {
			panic("corrupt device state")
		}
	}
	want, err := retained.Run(context.Background(), Pool{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	streamed := retained
	streamed.Stream = true
	r, err := streamed.Run(context.Background(), Pool{Workers: 2})
	if err != nil {
		t.Fatalf("resilient streamed run returned error: %v", err)
	}
	if r.Devices != nil {
		t.Error("streamed run retained device rows")
	}
	if len(r.Failed) != 1 || r.Failed[0].Device != 3 {
		t.Fatalf("failed = %+v, want device 3", r.Failed)
	}
	if !strings.Contains(r.Failed[0].Err, "corrupt device state") {
		t.Errorf("failure lost the panic value: %s", r.Failed[0].Err)
	}
	var wantJSON, gotJSON bytes.Buffer
	if err := want.WriteJSON(&wantJSON, false); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&gotJSON, false); err != nil {
		t.Fatal(err)
	}
	if gotJSON.String() != wantJSON.String() {
		t.Errorf("streamed survivor aggregate differs from retained:\n--- retained ---\n%s\n--- streamed ---\n%s",
			wantJSON.String(), gotJSON.String())
	}
}

// A panic mid-simulation (not just at task start) leaves the lane's
// recycled device in an arbitrary state; the next task's Reset must still
// produce correct results. Workers: 1 forces every task onto that lane.
func TestCohortReuseSurvivesMidRunPanic(t *testing.T) {
	clean := testCohort(5)
	want, err := clean.Run(context.Background(), Pool{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dirty := testCohort(5)
	first := true
	dirty.testHook = func(device int) {
		if device == 2 && first {
			first = false
			panic("mid-campaign corruption")
		}
	}
	got, err := dirty.Run(context.Background(), Pool{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Failed) != 1 || got.Failed[0].Device != 2 {
		t.Fatalf("failed = %+v, want device 2", got.Failed)
	}
	// Devices after the panic ran on the same recycled device and must be
	// bit-identical to their clean-run counterparts.
	byIdx := map[int]DeviceResult{}
	for _, d := range want.Devices {
		byIdx[d.Device] = d
	}
	for _, d := range got.Devices {
		if d != byIdx[d.Device] {
			t.Errorf("device %d differs after a lane panic:\n got %+v\nwant %+v", d.Device, d, byIdx[d.Device])
		}
	}
}
