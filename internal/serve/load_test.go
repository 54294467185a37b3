package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func getLoad(t *testing.T, base string) LoadStatus {
	t.Helper()
	code, _, data := getBody(t, base+"/v1/load")
	if code != http.StatusOK {
		t.Fatalf("/v1/load: HTTP %d: %s", code, data)
	}
	var ls LoadStatus
	if err := json.Unmarshal(data, &ls); err != nil {
		t.Fatalf("decode load: %v\n%s", err, data)
	}
	return ls
}

// TestLoadSignalUnderSaturation drives the server into saturation (one
// worker pinned, three submissions queued) and checks the autoscale
// surface end to end: /v1/load, the /metrics gauges, and the /readyz
// flip — then verifies everything drains back to idle.
func TestLoadSignalUnderSaturation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv, ts := testServer(t, Config{
		Workers:             1,
		SaturationThreshold: time.Millisecond,
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte(`{"stub":"done"}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	// Idle: nothing running, nothing queued, not saturated.
	ls := getLoad(t, ts.URL)
	if ls.Workers != 1 || ls.Running != 0 || ls.QueueDepth != 0 || ls.Saturated {
		t.Fatalf("idle load = %+v", ls)
	}
	if code, _, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("idle readyz = %d", code)
	}

	// Saturate: four distinct submissions against one pinned worker.
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":%d}`, seed)
		code, _, data := postJSON(t, ts.URL+"/v1/analyses", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", seed, code, data)
		}
		ids = append(ids, decodeStatus(t, data).ID)
	}
	<-started // the worker holds job 1; jobs 2..4 queue behind it

	// Let the oldest queued wait exceed the 1ms saturation threshold.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls = getLoad(t, ts.URL)
		if ls.Saturated || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ls.Workers != 1 || ls.Running != 1 || ls.QueueDepth != 3 {
		t.Fatalf("saturated load = %+v, want 1 running, 3 queued", ls)
	}
	if ls.WorkerBusy != 1 {
		t.Fatalf("worker_busy = %v, want 1", ls.WorkerBusy)
	}
	if ls.OldestWaitSeconds <= 0 || ls.PredictedBacklogSeconds < ls.OldestWaitSeconds {
		t.Fatalf("backlog %v must be positive and floored by oldest wait %v",
			ls.PredictedBacklogSeconds, ls.OldestWaitSeconds)
	}
	if !ls.Saturated || ls.SaturationThresholdSeconds != 0.001 {
		t.Fatalf("saturation flags = %+v", ls)
	}

	// /readyz reports saturation as 503 so load balancers back off.
	code, _, data := getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(data), "saturated") {
		t.Fatalf("saturated readyz = %d: %s", code, data)
	}

	// The same signal is scrapeable: every worker busy = 1000 permille.
	code, _, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"serve_worker_busy_permille 1000", "serve_workers 1",
		"serve_queue_oldest_wait_ms", "serve_predicted_backlog_ms"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	// Drain and verify the signal recovers.
	close(release)
	for _, id := range ids {
		pollDone(t, ts.URL, id)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		ls = getLoad(t, ts.URL)
		if (ls.Running == 0 && ls.QueueDepth == 0 && !ls.Saturated) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ls.Running != 0 || ls.QueueDepth != 0 || ls.Saturated {
		t.Fatalf("drained load = %+v", ls)
	}
	if code, _, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("drained readyz = %d", code)
	}
	_ = srv
}

// TestCostModel covers the predicted-backlog estimator: a cold window
// predicts 0, sized jobs read the ns-per-FF window, jobs of unknown
// size (deltas) read the whole-job window, and the window forgets jobs
// older than its size.
func TestCostModel(t *testing.T) {
	var m costModel
	if a, b, c := m.estimate(100), m.estimate(0), m.estimate(1); a != 0 || b != 0 || c != 0 {
		t.Fatalf("cold estimates = %v, %v, %v, want 0", a, b, c)
	}
	if p50, p90 := m.rates(); p50 != 0 || p90 != 0 {
		t.Fatalf("cold rates = %v, %v, want 0", p50, p90)
	}

	m.observe(100, 100*time.Millisecond) // 1ms per FF
	if got := m.estimate(50); got != 50*time.Millisecond {
		t.Fatalf("estimate(50) = %v, want 50ms", got)
	}
	if got := m.estimate(0); got != 0 {
		t.Fatalf("a sized job fed the whole-job window: estimate(0) = %v", got)
	}

	// A delta lands in the whole-job window only.
	m.observe(0, 7*time.Millisecond)
	if got := m.estimate(0); got != 7*time.Millisecond {
		t.Fatalf("delta estimate = %v, want 7ms", got)
	}
	if got := m.estimate(50); got != 50*time.Millisecond {
		t.Fatalf("a delta moved the per-FF window: estimate(50) = %v", got)
	}

	// A full window of 2ms/FF jobs evicts the 1ms/FF one.
	for i := 0; i < costWindowSize; i++ {
		m.observe(10, 20*time.Millisecond)
	}
	if p50, p90 := m.rates(); p50 != 2e6 || p90 != 2e6 {
		t.Fatalf("rates after a full window = %v, %v, want 2e6", p50, p90)
	}
}

// TestBacklogDivergesFromPureEWMAUnderBimodalMix is the acceptance
// test for the windowed predictor: under a bimodal job mix (cheap
// analyses interleaved with SAT-heavy ones) the p90 prediction
// reflects the slow mode while an EWMA blends the modes into a rate
// that describes neither.
func TestBacklogDivergesFromPureEWMAUnderBimodalMix(t *testing.T) {
	var m costModel
	m.bindMetrics(obs.NewRegistry())
	const ffs = 1000
	fast := time.Duration(ffs) * 2 * time.Microsecond // 2e3 ns/FF
	slow := time.Duration(ffs) * 2 * time.Millisecond // 2e6 ns/FF
	var ewma float64                                  // the EWMA rate, for comparison
	for i := 0; i < 25; i++ {                         // interleaved bimodal mix
		for _, d := range []time.Duration{slow, fast} { // ends on a fast job
			m.observe(ffs, d)
			rate := float64(d) / ffs
			if ewma == 0 {
				ewma = rate
			} else {
				ewma += 0.3 * (rate - ewma)
			}
		}
	}

	p50, p90 := m.rates()
	if p50 != 2e3 {
		t.Fatalf("p50 = %v, want the fast mode (2e3)", p50)
	}
	if p90 != 2e6 {
		t.Fatalf("p90 = %v, want the slow mode (2e6)", p90)
	}
	est := m.estimate(ffs)
	ewmaEst := time.Duration(ewma * ffs)
	// The EWMA ends just after a fast sample, so it underestimates the
	// mix's tail badly; the windowed p90 stays at the slow mode.
	if est != slow {
		t.Fatalf("windowed estimate = %v, want %v (slow mode)", est, slow)
	}
	if ewmaEst*2 > est {
		t.Fatalf("divergence too small: ewma=%v window=%v", ewmaEst, est)
	}
}
