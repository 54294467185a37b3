// Package flight is an in-memory flight recorder: fixed-size ring
// buffers of the daemon's recent operational log records (job
// lifecycle transitions, scheduler decisions, store activity), kept
// cheap enough to record unconditionally and served as JSON so a stuck
// or misbehaving daemon is diagnosable in place — no restart, no
// log-file access, no sampling gaps right where the incident is.
//
// The recorder is fed by the logger, not by its own calls: Tee puts it
// in front of the configured slog.Handler, and every record at Info or
// above lands in the ring of its component. One log call is therefore
// both the log line and the ring entry.
//
// The recorder is category-sharded: each component owns its own ring
// and mutex, so job records never contend with store records, and one
// noisy component cannot evict another's history. Recording is O(1)
// with a critical section of a few field stores; Snapshot copies out
// under the same short lock.
package flight

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// Event is one ringed log record. Seq orders events globally across
// categories (a single atomic counter), so interleavings reconstruct
// exactly even when per-category rings wrap at different rates.
type Event struct {
	Seq  uint64 `json:"seq"`
	Time string `json:"time"` // RFC3339Nano UTC
	Cat  string `json:"cat"`
	Name string `json:"event"`
	// Job, RequestID and TraceID correlate the event with the job
	// record, access log and span tree of the same request.
	Job       string `json:"job,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// Detail carries the record's "detail" attribute: one short
	// free-form value (a key prefix, an error summary, a wait time).
	Detail string `json:"detail,omitempty"`
}

// ring is one category's fixed-size circular buffer.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int // index of the next write
	count int // total events ever written (saturates reads)
}

// snapshot returns the buffered events, oldest first.
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.count
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]Event, 0, n)
	start := (r.next - n + len(r.buf)) % len(r.buf)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Recorder is the category-sharded flight recorder.
type Recorder struct {
	size int
	seq  atomic.Uint64
	now  func() time.Time // test seam

	mu    sync.RWMutex
	rings map[string]*ring

	dropped atomic.Uint64 // events lost to ring wrap (diagnostic)
}

// New returns a recorder retaining up to size events per category
// (size <= 0 uses 256).
func New(size int) *Recorder {
	if size <= 0 {
		size = 256
	}
	return &Recorder{size: size, now: time.Now, rings: make(map[string]*ring)}
}

func (r *Recorder) ring(cat string) *ring {
	r.mu.RLock()
	rg := r.rings[cat]
	r.mu.RUnlock()
	if rg != nil {
		return rg
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rg = r.rings[cat]; rg == nil {
		rg = &ring{buf: make([]Event, r.size)}
		r.rings[cat] = rg
	}
	return rg
}

// record stamps and stores one event. Seq and Time are assigned here;
// the tee fills Cat, Name and the correlation fields.
func (r *Recorder) record(ev Event) {
	ev.Seq = r.seq.Add(1)
	ev.Time = r.now().UTC().Format(time.RFC3339Nano)
	rg := r.ring(ev.Cat)
	rg.mu.Lock()
	if rg.count >= len(rg.buf) {
		r.dropped.Add(1)
	}
	rg.buf[rg.next] = ev
	rg.next = (rg.next + 1) % len(rg.buf)
	rg.count++
	rg.mu.Unlock()
}

// Categories returns the categories that have recorded events, sorted.
func (r *Recorder) Categories() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	cats := make([]string, 0, len(r.rings))
	for c := range r.rings {
		cats = append(cats, c)
	}
	r.mu.RUnlock()
	sort.Strings(cats)
	return cats
}

// Snapshot returns the retained events of one category ("" merges all
// categories), in global Seq order.
func (r *Recorder) Snapshot(cat string) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	if cat != "" {
		r.mu.RLock()
		rg := r.rings[cat]
		r.mu.RUnlock()
		if rg == nil {
			return nil
		}
		return rg.snapshot()
	}
	for _, c := range r.Categories() {
		r.mu.RLock()
		rg := r.rings[c]
		r.mu.RUnlock()
		out = append(out, rg.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// SnapshotSince returns the retained events with Seq > since, one
// category or all (""), in global Seq order — the incremental-tail
// primitive behind the endpoint's ?since= cursor. A poller that keeps
// the last seq it saw reads only new events on each poll instead of
// re-reading the whole ring; a cursor older than the ring simply
// returns everything retained (the gap shows up in Dropped).
func (r *Recorder) SnapshotSince(cat string, since uint64) []Event {
	evs := r.Snapshot(cat)
	if since == 0 {
		return evs
	}
	// Seq is globally monotone, so within a snapshot (already Seq
	// sorted) the cut is a binary search.
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq > since })
	return evs[i:]
}

// LastSeq returns the newest sequence number assigned so far (0 before
// any event): the cursor a poller should resume from.
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// ForJob returns the retained events of one job across all categories.
func (r *Recorder) ForJob(jobID string) []Event {
	var out []Event
	for _, ev := range r.Snapshot("") {
		if ev.Job == jobID {
			out = append(out, ev)
		}
	}
	return out
}

// Dropped returns how many events were overwritten before ever being
// snapshotted — strictly: how many writes landed on a full ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// response is the JSON document served by Handler.
type response struct {
	Categories []string `json:"categories"`
	Dropped    uint64   `json:"dropped"`
	// LastSeq is the newest sequence number assigned so far; pass it
	// back as ?since= to read only what happened after this response.
	LastSeq uint64  `json:"last_seq"`
	Events  []Event `json:"events"`
}

// Handler serves the recorder as JSON (the /debug/events endpoint):
//
//	GET ?cat=sched    one category only
//	GET ?job=a0001-…  one job's events across categories
//	GET ?n=100        at most the latest 100 events
//	GET ?since=42     only events with seq > 42 (incremental tail;
//	                  resume from the previous response's last_seq)
//
// The request's identity middleware runs outside this handler, so the
// recorder itself stays HTTP-agnostic.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		resp := response{Categories: r.Categories(), Dropped: r.Dropped(), LastSeq: r.LastSeq()}
		var since uint64
		if ss := req.URL.Query().Get("since"); ss != "" {
			v, err := strconv.ParseUint(ss, 10, 64)
			if err != nil {
				http.Error(w, `{"error":"since must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
			since = v
		}
		switch {
		case req.URL.Query().Get("job") != "":
			resp.Events = r.ForJob(req.URL.Query().Get("job"))
			if since > 0 {
				i := sort.Search(len(resp.Events), func(i int) bool { return resp.Events[i].Seq > since })
				resp.Events = resp.Events[i:]
			}
		default:
			resp.Events = r.SnapshotSince(req.URL.Query().Get("cat"), since)
		}
		if ns := req.URL.Query().Get("n"); ns != "" {
			n, err := strconv.Atoi(ns)
			if err != nil || n < 0 {
				http.Error(w, `{"error":"n must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
			if len(resp.Events) > n {
				resp.Events = resp.Events[len(resp.Events)-n:]
			}
		}
		if resp.Events == nil {
			resp.Events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}

// Tee returns a slog.Handler that rings every record at Info or above
// and passes every record next would accept on to next. The ring is
// the record's "component" attribute, the event name its message; the
// "job" and "detail" attributes and the request and trace IDs of the
// record's context fill the correlation fields. Records without a
// component are not rung, and Debug records never are, so a disabled
// debug log line still costs nothing.
func (r *Recorder) Tee(next slog.Handler) slog.Handler {
	return &tee{rec: r, next: next}
}

// tee is the recorder's handler; bound holds the component, job and
// detail attributes bound earlier through WithAttrs (component loggers,
// per-job loggers).
type tee struct {
	rec   *Recorder
	next  slog.Handler
	bound Event
}

func (h *tee) Enabled(ctx context.Context, lvl slog.Level) bool {
	return lvl >= slog.LevelInfo || h.next.Enabled(ctx, lvl)
}

func (h *tee) Handle(ctx context.Context, rec slog.Record) error {
	if rec.Level >= slog.LevelInfo && h.bound.Cat != "" {
		ev := h.bound
		ev.Name = rec.Message
		rec.Attrs(func(a slog.Attr) bool {
			ev.set(a)
			return true
		})
		if ri, ok := obs.ReqInfoFrom(ctx); ok {
			ev.RequestID, ev.TraceID = ri.RequestID, ri.Trace.TraceID
		}
		h.rec.record(ev)
	}
	if !h.next.Enabled(ctx, rec.Level) {
		return nil
	}
	return h.next.Handle(ctx, rec)
}

func (h *tee) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	for _, a := range attrs {
		nh.bound.set(a)
	}
	nh.next = h.next.WithAttrs(attrs)
	return &nh
}

func (h *tee) WithGroup(name string) slog.Handler {
	nh := *h
	nh.next = h.next.WithGroup(name)
	return &nh
}

// set copies one record attribute into the event's matching field.
func (ev *Event) set(a slog.Attr) {
	switch a.Key {
	case olog.ComponentKey:
		ev.Cat = a.Value.String()
	case "job":
		ev.Job = a.Value.String()
	case "detail":
		ev.Detail = a.Value.String()
	}
}
