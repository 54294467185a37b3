package serve

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// LoadStatus is the autoscale load signal served by GET /v1/load and
// mirrored as gauges on /metrics: how busy the worker pool is, how
// deep the queue is, how long the oldest queued submission has waited,
// and how many seconds of work the cost model predicts are ahead of a
// submission arriving now. An autoscaler (or a load balancer deciding
// where to route) needs exactly this — queue depth alone says nothing
// when jobs differ by three orders of magnitude in size.
type LoadStatus struct {
	Workers    int `json:"workers"`
	Running    int `json:"running"`
	QueueDepth int `json:"queue_depth"`
	// WorkerBusy is Running/Workers in 0..1.
	WorkerBusy        float64 `json:"worker_busy"`
	OldestWaitSeconds float64 `json:"oldest_wait_seconds"`
	// PredictedBacklogSeconds estimates how long a job submitted now
	// would wait for a worker: the cost-model sum of queued work and
	// running remainders per worker, floored by the oldest observed
	// wait (the queue never predicts better than it is measuring).
	PredictedBacklogSeconds float64 `json:"predicted_backlog_seconds"`
	// SaturationThresholdSeconds echoes the -readyz-saturation
	// configuration (absent when the gate is off); Saturated reports
	// whether the backlog breaches it — the same signal that flips
	// /readyz to 503.
	SaturationThresholdSeconds float64 `json:"saturation_threshold_seconds,omitempty"`
	Saturated                  bool    `json:"saturated"`
	// CostP50NSPerFF / CostP90NSPerFF expose the windowed ns-per-scan-FF
	// percentiles the predictor runs on (absent while no sized job has
	// finished).
	CostP50NSPerFF float64 `json:"cost_p50_ns_per_ff,omitempty"`
	CostP90NSPerFF float64 `json:"cost_p90_ns_per_ff,omitempty"`
}

// costModel predicts one job's run time from two windows of recent job
// costs (see DESIGN.md §5j): sized jobs read the p90 of a window of
// ns-per-scan-FF rates, jobs of unknown size (deltas) the p90 of a
// window of whole-job durations. A queue-wait promise should reflect
// the observed spread, not the last sample: under a bimodal job mix
// (cheap analyses interleaved with SAT-heavy key-recovery attacks) an
// average converges to a value that describes neither mode, while the
// p90 stays at the slow one. An empty window predicts 0; the oldest
// observed wait floors the backlog meanwhile.
type costModel struct {
	mu       sync.Mutex
	perFF    costWindow     // ns per scan FF of finished sized jobs
	whole    costWindow     // ns of finished jobs of unknown size
	costHist *obs.Histogram // serve_job_cost_ns_per_ff (nil until bindMetrics)
}

// costWindowSize is how many recent jobs each window keeps. The p90 of
// 256 samples rests on the slowest 26, so one outlier cannot move it,
// and a slow mode reaches the p90 once it is more than a tenth of the
// window. A job drops out after 256 newer ones of its kind, so the
// estimate follows a shift in the job mix. Re-sorting 256 floats per
// finished job costs microseconds, far below any job.
const costWindowSize = 256

// costWindow is a fixed-size ring of recent job costs whose p50 and
// p90 are recomputed on every observation: jobs finish far less often
// than load snapshots read the estimate (once per queued job).
type costWindow struct {
	ring     []float64
	next     int
	p50, p90 float64
}

func (w *costWindow) add(v float64) {
	if len(w.ring) < costWindowSize {
		w.ring = append(w.ring, v)
	} else {
		w.ring[w.next] = v
	}
	w.next = (w.next + 1) % costWindowSize
	sorted := append([]float64(nil), w.ring...)
	sort.Float64s(sorted)
	w.p50, w.p90 = nearestRank(sorted, 0.5), nearestRank(sorted, 0.9)
}

// nearestRank returns the q-quantile of sorted by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below
// it.
func nearestRank(sorted []float64, q float64) float64 {
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// costBounds are the serve_job_cost_ns_per_ff histogram's bucket upper
// bounds — log-spaced over the plausible ns-per-scan-FF range (sub-µs
// pure-mode propagation up to ~10ms/FF SAT-heavy attacks).
var costBounds = []float64{1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7}

// bindMetrics registers the per-job cost-rate histogram.
func (m *costModel) bindMetrics(reg *obs.Registry) {
	reg.SetHelp("serve_job_cost_ns_per_ff",
		"Per-job analysis cost rate in nanoseconds per scan flip-flop; "+
			"the p90 of the recent rates drives the /v1/load backlog prediction.")
	m.costHist = reg.Histogram("serve_job_cost_ns_per_ff", costBounds...)
}

// observe folds one finished job into its window.
func (m *costModel) observe(scanFFs int, d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if scanFFs <= 0 {
		m.whole.add(float64(d))
		return
	}
	rate := float64(d) / float64(scanFFs)
	m.perFF.add(rate)
	if m.costHist != nil {
		m.costHist.Observe(rate)
	}
}

// rates returns the p50 and p90 of the ns-per-FF window (0 while it is
// empty).
func (m *costModel) rates() (p50, p90 float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perFF.p50, m.perFF.p90
}

// estimate predicts a job's run time from the p90 of its window (the
// conservative side: the backlog signal gates /readyz, and
// under-promising wait time is the harmful direction).
func (m *costModel) estimate(scanFFs int) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if scanFFs <= 0 {
		return time.Duration(m.whole.p90)
	}
	return time.Duration(m.perFF.p90 * float64(scanFFs))
}

// jobCost estimates one scheduled job's total run time for the load
// snapshot (called under the scheduler lock; touches only immutable
// payload fields and the cost model's own lock).
func (s *Server) jobCost(j *Job) time.Duration {
	a, _ := j.Payload.(*analysis)
	ffs := 0
	if a != nil {
		ffs = a.scanFFs
	}
	return s.cost.estimate(ffs)
}

// loadStatus assembles the current load signal.
func (s *Server) loadStatus() LoadStatus {
	ls := s.sched.Load(time.Now(), s.jobCost)
	st := LoadStatus{
		Workers:           ls.Workers,
		Running:           ls.Running,
		QueueDepth:        ls.Queued,
		WorkerBusy:        float64(ls.Running) / float64(ls.Workers),
		OldestWaitSeconds: ls.OldestWait.Seconds(),
	}
	backlog := ls.Backlog
	if ls.OldestWait > backlog {
		backlog = ls.OldestWait
	}
	st.PredictedBacklogSeconds = backlog.Seconds()
	if t := s.cfg.SaturationThreshold; t > 0 {
		st.SaturationThresholdSeconds = t.Seconds()
		st.Saturated = backlog >= t
	}
	st.CostP50NSPerFF, st.CostP90NSPerFF = s.cost.rates()
	return st
}

// handleLoad serves GET /v1/load.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.loadStatus())
}

// registerLoadGauges exposes the load signal on /metrics via a
// registry pull-collector, so every scrape sees a fresh snapshot
// without a background refresher goroutine. Ratios and durations are
// encoded for int64 gauges: busy as permille, waits as milliseconds.
func (s *Server) registerLoadGauges() {
	s.reg.SetHelp("serve_worker_busy_permille", "Busy workers per 1000 (1000 = every worker running a job).")
	s.reg.SetHelp("serve_queue_oldest_wait_ms", "How long the longest-queued submission has been waiting.")
	s.reg.SetHelp("serve_predicted_backlog_ms", "Cost-model prediction of how long a new submission would wait for a worker.")
	busyG := s.reg.Gauge("serve_worker_busy_permille")
	oldestG := s.reg.Gauge("serve_queue_oldest_wait_ms")
	backlogG := s.reg.Gauge("serve_predicted_backlog_ms")
	workersG := s.reg.Gauge("serve_workers")
	s.reg.AddCollector(func() {
		st := s.loadStatus()
		busyG.Set(int64(st.WorkerBusy * 1000))
		oldestG.Set(int64(st.OldestWaitSeconds * 1000))
		backlogG.Set(int64(st.PredictedBacklogSeconds * 1000))
		workersG.Set(int64(st.Workers))
	})
}

// requestIdentity accepts or mints the request's identity: a caller's
// X-Request-ID is honored when it is short and printable (anything
// else gets a fresh one — the ID lands verbatim in logs and JSON), and
// a valid W3C traceparent is continued as a child (same trace ID, new
// span ID). Requests without either get fresh random identities, so
// every request is correlatable even when no caller cooperates.
func requestIdentity(r *http.Request) obs.ReqInfo {
	ri := obs.ReqInfo{RequestID: sanitizeRequestID(r.Header.Get("X-Request-ID"))}
	if ri.RequestID == "" {
		ri.RequestID = obs.NewRequestID()
	}
	if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		ri.Trace = tc.Child()
	} else {
		ri.Trace = obs.NewTraceContext()
	}
	return ri
}

func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}
