package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/olog"
)

// jsonLines decodes every non-empty buffered log line as a JSON
// object (syncBuffer is declared in slowjob_test.go).
func jsonLines(t *testing.T, b *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(string(b.Bytes())), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, ln)
		}
		out = append(out, m)
	}
	return out
}

// doWithIdentity performs req with the given correlation headers.
func doWithIdentity(t *testing.T, method, url, body, reqID, traceparent string) (int, http.Header, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// TestRequestIdentityCorrelation is the end-to-end telemetry check: one
// submission carrying a fixed X-Request-ID and W3C traceparent must
// surface the same identifiers in (1) the response headers, (2) the
// job record, (3) the structured access log, (4) the span tree of the
// job run, and (5) the flight-recorder events — the whole point of the
// request-scoped telemetry layer.
func TestRequestIdentityCorrelation(t *testing.T) {
	const (
		reqID   = "req-correlation-e2e"
		traceID = "0af7651916cd43dd8448eb211c80319c"
		parent  = "00-" + traceID + "-b7ad6b7169203331-01"
	)
	logBuf := &syncBuffer{}
	lg := olog.New(olog.Options{Writer: logBuf, Format: "json"})
	collector := &obs.CollectorSink{}
	reg := obs.NewRegistry()
	srv, ts := testServer(t, Config{
		Registry: reg,
		Logger:   lg,
		Tracer:   obs.NewTracer(collector),
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		// The job context must carry the submitting request's identity
		// even though the HTTP handler has long returned.
		ri, ok := obs.ReqInfoFrom(ctx)
		if !ok || ri.RequestID != reqID || ri.Trace.TraceID != traceID {
			t.Errorf("job context identity = %+v ok=%v, want request %s trace %s", ri, ok, reqID, traceID)
		}
		return []byte(`{"stub":"ok"}`), nil
	})

	body := `{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":3}`
	code, hdr, data := doWithIdentity(t, "POST", ts.URL+"/v1/analyses", body, reqID, parent)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}

	// (1) Response headers echo the request ID and continue the trace
	// with a fresh span ID.
	if got := hdr.Get("X-Request-ID"); got != reqID {
		t.Fatalf("X-Request-ID echo = %q, want %q", got, reqID)
	}
	tp := hdr.Get("Traceparent")
	tc, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if tc.TraceID != traceID {
		t.Fatalf("response trace ID = %s, want %s", tc.TraceID, traceID)
	}
	if tc.SpanID == "b7ad6b7169203331" {
		t.Fatal("response span ID must be a child span, not the caller's")
	}

	// (2) The job record carries the identity.
	st := decodeStatus(t, data)
	if st.RequestID != reqID || st.TraceID != traceID {
		t.Fatalf("job identity = %q/%q, want %q/%q", st.RequestID, st.TraceID, reqID, traceID)
	}
	fin := pollDone(t, ts.URL, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job state = %s: %s", fin.State, fin.Error)
	}

	// (3) The access log has exactly one submit line with the identity.
	found := 0
	for _, m := range jsonLines(t, logBuf) {
		if m["msg"] != "access" || m["endpoint"] != "submit" {
			continue
		}
		found++
		if m["request_id"] != reqID || m["trace_id"] != traceID {
			t.Fatalf("access log identity = %v/%v, want %s/%s", m["request_id"], m["trace_id"], reqID, traceID)
		}
		for _, key := range []string{"method", "path", "status", "bytes", "dur_ms", "remote", "span_id"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("access log line lacks %q: %v", key, m)
			}
		}
	}
	if found != 1 {
		t.Fatalf("access log submit lines = %d, want 1", found)
	}

	// (4) The job span carries the identity attributes.
	jobSpans := 0
	for _, ev := range collector.Events() {
		if ev.Name != "job" {
			continue
		}
		jobSpans++
		if ev.Attrs["request_id"] != reqID || ev.Attrs["trace_id"] != traceID {
			t.Fatalf("job span attrs = %v, want request %s trace %s", ev.Attrs, reqID, traceID)
		}
	}
	if jobSpans != 1 {
		t.Fatalf("job spans = %d, want 1", jobSpans)
	}

	// (5) The flight recorder joins the same identifiers to the job.
	code, _, evData := getBody(t, ts.URL+"/debug/events?job="+st.ID)
	if code != http.StatusOK {
		t.Fatalf("/debug/events: HTTP %d: %s", code, evData)
	}
	var evResp struct {
		Events []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(evData, &evResp); err != nil {
		t.Fatalf("decode events: %v\n%s", err, evData)
	}
	names := map[string]bool{}
	for _, ev := range evResp.Events {
		names[ev.Cat+"/"+ev.Name] = true
		if ev.RequestID != reqID || ev.TraceID != traceID {
			t.Fatalf("flight event %s/%s identity = %q/%q, want %q/%q",
				ev.Cat, ev.Name, ev.RequestID, ev.TraceID, reqID, traceID)
		}
	}
	for _, want := range []string{"sched/enqueue", "job/start", "job/done"} {
		if !names[want] {
			t.Fatalf("flight recorder lacks %s; got %v", want, names)
		}
	}
	_ = srv
}

// TestRequestIdentityMinted checks the no-header path: the server mints
// a request ID and starts a fresh trace, and rejects unusable inbound
// request IDs instead of propagating garbage into logs.
func TestRequestIdentityMinted(t *testing.T) {
	_, ts := testServer(t, Config{}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{}`), nil
	})
	code, hdr, _ := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if id := hdr.Get("X-Request-ID"); !strings.HasPrefix(id, "req-") || len(id) != len("req-")+16 {
		t.Fatalf("minted request ID %q", id)
	}
	if _, ok := obs.ParseTraceparent(hdr.Get("Traceparent")); !ok {
		t.Fatalf("minted traceparent %q does not parse", hdr.Get("Traceparent"))
	}

	// An unusable request ID (overlong) must be replaced, not echoed.
	overlong := strings.Repeat("x", 300)
	code, hdr, _ = doWithIdentity(t, "GET", ts.URL+"/healthz", "", overlong, "not-a-traceparent")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if id := hdr.Get("X-Request-ID"); strings.Contains(id, "xxx") {
		t.Fatalf("unsanitized request ID echoed: %q", id)
	}
	if _, ok := obs.ParseTraceparent(hdr.Get("Traceparent")); !ok {
		t.Fatalf("fallback traceparent %q does not parse", hdr.Get("Traceparent"))
	}
}

// TestAccessLogFlushOnShutdown is the flush audit: access-log records
// buffered in an obs.BufferedJSONLSink must all reach the underlying
// writer once the server shut down and the buffer flushed — the
// rsnserved -log-file path. Run under -race this also audits the
// handler-goroutine/shutdown-goroutine handoff.
func TestAccessLogFlushOnShutdown(t *testing.T) {
	under := &syncBuffer{}
	bw := obs.NewBufferedJSONLSink(under)
	lg := olog.New(olog.Options{Writer: bw, Format: "json"})
	srv, err := New(Config{Logger: lg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/healthz")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	access := 0
	for _, m := range jsonLines(t, under) {
		if m["msg"] == "access" {
			access++
		}
	}
	if access != n {
		t.Fatalf("flushed access lines = %d, want %d (dropped tail)", access, n)
	}
}

// TestJobEventsOnOnePath checks that one log call is both the log line
// and the flight-recorder entry: a submission yields exactly one
// enqueue, start and done record each, and the log output and
// /debug/events?job= carry the same records with the same request and
// trace IDs.
func TestJobEventsOnOnePath(t *testing.T) {
	const (
		reqID   = "req-one-path"
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	)
	logBuf := &syncBuffer{}
	_, ts := testServer(t, Config{
		Logger: olog.New(olog.Options{Writer: logBuf, Format: "json"}),
	}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte(`{"stub":"ok"}`), nil
	})
	code, _, data := doWithIdentity(t, "POST", ts.URL+"/v1/analyses",
		`{"benchmark":"TreeFlat","circuits":1,"specs":1,"seed":5}`,
		reqID, "00-"+traceID+"-00f067aa0ba902b7-01")
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, data)
	}
	id := decodeStatus(t, data).ID
	pollDone(t, ts.URL, id)

	type rec struct{ cat, name, detail, reqID, traceID string }
	var logged []rec
	for _, m := range jsonLines(t, logBuf) {
		if m["job"] != id {
			continue
		}
		str := func(k string) string { s, _ := m[k].(string); return s }
		logged = append(logged, rec{str("component"), str("msg"), str("detail"), str("request_id"), str("trace_id")})
	}
	code, _, evData := getBody(t, ts.URL+"/debug/events?job="+id)
	if code != http.StatusOK {
		t.Fatalf("/debug/events: HTTP %d: %s", code, evData)
	}
	var evResp struct {
		Events []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(evData, &evResp); err != nil {
		t.Fatalf("decode events: %v\n%s", err, evData)
	}
	var rung []rec
	for _, ev := range evResp.Events {
		rung = append(rung, rec{ev.Cat, ev.Name, ev.Detail, ev.RequestID, ev.TraceID})
	}

	if len(logged) != len(rung) {
		t.Fatalf("log has %d job records, ring has %d:\nlog  %v\nring %v", len(logged), len(rung), logged, rung)
	}
	count := map[string]int{}
	for i, r := range rung {
		if logged[i] != r {
			t.Errorf("record %d: log %+v, ring %+v", i, logged[i], r)
		}
		if r.reqID != reqID || r.traceID != traceID {
			t.Errorf("record %s/%s identity = %q/%q", r.cat, r.name, r.reqID, r.traceID)
		}
		count[r.cat+"/"+r.name]++
	}
	for _, want := range []string{"sched/enqueue", "job/start", "job/done"} {
		if count[want] != 1 {
			t.Errorf("%s records = %d, want 1 (all: %v)", want, count[want], count)
		}
	}
}
