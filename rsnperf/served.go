package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/hybrid"
	"repro/internal/icl"
	"repro/internal/netlist"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/obs/reportdiff"
	"repro/internal/rsn"
	"repro/internal/secspec"
	"repro/internal/serve"
)

// served is the served-mix workload: closed-loop clients against an
// in-process rsnserved (serve.New plus its Handler, no sockets). Each
// client sends, per round, a fixed mix of request classes in an order
// drawn from the seed, waiting for each reply before the next request.
// No request log of the daemon exists to copy a mix from; README.md
// gives the reasons for the counts chosen here, and the traced run
// reports each class's measured share of daemon worker time.
type served struct {
	seed int64
	mix  map[string]int
	// missNet and missFFs choose the Table I networks of misses;
	// attackFFs and attackKB size the attacked overlays.
	missNet             string
	missFFs             int
	attackFFs, attackKB int
	// want pins the summed counts of one client's misses in a round
	// (nil: not pinned). Every client sends every pool entry once per
	// round, so the digest holds whatever the client count.
	want *digest

	// pool holds the miss inputs. A miss sends a pool entry under a
	// fresh network name: the name is part of the content address, so
	// the daemon analyses it anew, while the fixed pool keeps the work
	// of a round the same whatever the seed. Every client sends every
	// entry once per round, in an order drawn from the seed.
	pool []*missInput

	srv     *serve.Server
	h       http.Handler
	reg     *obs.Registry
	clients []*client
	nextOp  atomic.Int64
	// checks holds every answered miss of the run, with the deltas
	// sent against it, for the output oracle of check.
	checks   []*missCheck
	rounds   int
	mismatch []string
}

// missInput is one pool entry: a network with an attached circuit and
// an embedded specification.
type missInput struct {
	nw    *rsn.Network
	att   *bench.Attachment
	spec  *secspec.Spec
	bench string
}

// The request classes.
const (
	classMiss   = "miss"
	classHit    = "hit"
	classDelta  = "delta"
	classAttack = "attack"
)

// attackPool is the number of fixed overlays attacks cycle through.
const attackPool = 2

func newServed(seed int64, tiny bool) *served {
	w := &served{seed: seed,
		mix:     map[string]int{classMiss: 128, classHit: 40, classDelta: 31, classAttack: 1},
		missNet: "TreeFlatEx", missFFs: 700, attackFFs: 64, attackKB: 4,
		want: &digest{Runs: 112, SkippedInsecure: 16, Violating: 1202, Pure: 350, Hybrid: 413}}
	if tiny {
		w.mix = map[string]int{classMiss: 2, classHit: 1, classDelta: 1, classAttack: 1}
		w.missFFs, w.attackFFs, w.attackKB, w.want = 400, 32, 2, nil
	}
	return w
}

// client is one closed-loop caller with its own input stream.
type client struct {
	id      int
	rng     *rand.Rand
	fresh   int64
	attacks int64
	// recent are the client's last historyLen misses in request order,
	// which its hits and deltas draw from. A request only refers to
	// misses sent before it, so their sessions are still in the
	// daemon's session cache and deltas take the incremental path.
	recent []*missRec
}

// missRec is a miss that later hits and deltas refer to.
type missRec struct {
	body, report []byte
	jobID        string
	// deltaRegs are the registers not fed by scan-in, candidates for a
	// cut-reconnect to scan-in; used ones are removed.
	deltaRegs []int
	check     *missCheck
}

// missCheck is what the output oracle needs to recompute a miss and
// its deltas: the pool entry, and the result counts the daemon
// reported.
type missCheck struct {
	entry  int
	got    resultCounts
	deltas []deltaCheck
}

// deltaCheck is one delta script sent against a miss and the counts
// the daemon reported for it.
type deltaCheck struct {
	script []byte
	got    resultCounts
}

// resultCounts are the counts of one secured network, as a run report
// row carries them.
type resultCounts struct {
	Runs, SkippedInsecureLogic int
	Violating, Pure, Hybrid    float64
}

func reportCounts(b obs.BenchmarkReport) resultCounts {
	return resultCounts{b.Runs, b.SkippedInsecureLogic, b.AvgViolatingRegs, b.AvgPureChanges, b.AvgHybridChanges}
}

// outcomeCounts are the counts a run report gives for a pair the
// benchmark secured itself. The daemon reports a pair without
// violations as one run with no changes.
func outcomeCounts(o pairOutcome) resultCounts {
	if o.insecureLogic {
		return resultCounts{SkippedInsecureLogic: 1}
	}
	return resultCounts{Runs: 1, Violating: float64(o.violating), Pure: float64(o.pure), Hybrid: float64(o.hybrid)}
}

// request is one prepared call.
type request struct {
	class string
	body  []byte
	miss  *missRec // the referenced miss of a hit or delta
	// newMiss is the record a miss fills in; script is a delta's edit
	// script; key is an attack's true key in KeyHex form.
	newMiss *missRec
	script  []byte
	key     string
	// got is the counts the reply of a miss or delta reported; ok is
	// whether the request passed.
	got resultCounts
	ok  bool
}

// historyLen bounds how many misses back hits and deltas reach. A
// delta names its base by job ID, so the base's job record must still
// be among the daemon's FinishedJobs, and its session should still be
// live. With two clients and 4 misses back, at most 31 jobs were
// created between a miss and a delta on it in 4,800 ops on a 2-vCPU
// host; with 8 back it was 44, too close to a bound of 64 on a loaded
// host.
const historyLen = 4

func (w *served) setup(t *obs.Tracer) error {
	w.reg = obs.NewRegistry()
	cfg := serve.Config{
		Workers:       maxWorkers(),
		EngineWorkers: 1,
		// The caches hold what the clients' recent misses need (hits
		// answered from the store, deltas on live sessions and job
		// records; see historyLen) with room to spare, and not much
		// more.
		MaxSessions:  32,
		FinishedJobs: 128,
		Store:        serve.StoreConfig{MaxEntries: 512},
		Registry:     w.reg,
		Tracer:       t,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	w.srv, w.h = srv, srv.Handler()
	w.clients, w.checks, w.rounds, w.mismatch = nil, nil, 0, nil
	if err := w.makePool(); err != nil {
		return err
	}
	for i := 0; i < maxWorkers(); i++ {
		w.clients = append(w.clients, &client{id: i, rng: rand.New(rand.NewSource(w.seed*7919 + int64(i)))})
	}
	// Warm-up: every client's first miss, which the first hits and
	// deltas draw from; then one request of each other class.
	rc := &roundCtx{counts: map[string]float64{}, samples: map[string][]float64{}, mem: map[string]memSample{}}
	for _, cl := range w.clients {
		miss, err := w.makeMiss(cl, cl.id%len(w.pool))
		if err != nil {
			return err
		}
		reqs := []request{miss}
		w.runClient(rc, cl, reqs)
		w.finish(reqs)
	}
	cl := w.clients[0]
	att, err := w.makeAttack(cl)
	if err != nil {
		return err
	}
	d, ok := w.makeDelta(cl)
	if !ok {
		return fmt.Errorf("warm-up miss %s has no register for a delta", w.missNet)
	}
	reqs := []request{w.makeHit(cl), d, att}
	w.runClient(rc, cl, reqs)
	w.finish(reqs)
	for _, o := range rc.ops {
		if !o.ok {
			return fmt.Errorf("warm-up request failed")
		}
	}
	return nil
}

func (w *served) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // every job has finished: the clients waited for each
	w.srv = nil
}

// makePool generates the miss inputs from fixed seeds.
func (w *served) makePool() error {
	b, ok := bench.ByName(w.missNet)
	if !ok {
		return fmt.Errorf("%s not in the catalog", w.missNet)
	}
	w.pool = make([]*missInput, w.mix[classMiss])
	for e := range w.pool {
		seed := int64(1_000_003 + e)
		nw := b.Build(b.ScaleForTarget(w.missFFs))
		att := bench.AttachCircuit(nw, bench.DefaultCircuitConfig(), seed)
		spec := secspec.GenerateWithRoles(len(nw.Modules), att.DataSources, secspec.DefaultGenConfig(), seed)
		var benchBuf bytes.Buffer
		if err := netlist.WriteBench(&benchBuf, att.Circuit); err != nil {
			return err
		}
		w.pool[e] = &missInput{nw: nw, att: att, spec: spec, bench: benchBuf.String()}
	}
	return nil
}

// makeMiss prepares pool entry e under a fresh network name, sent as
// ICL plus .bench.
func (w *served) makeMiss(cl *client, e int) (request, error) {
	cl.fresh++
	in := w.pool[e]
	nw := *in.nw // shallow copy: only the name differs
	nw.Name = fmt.Sprintf("%s_%d_c%d_%d", w.missNet, e, cl.id, cl.fresh)
	var iclBuf bytes.Buffer
	if err := icl.WriteWithSpec(&iclBuf, &nw, in.spec, func(f netlist.FFID) string { return in.att.Circuit.FFs[f].Name }); err != nil {
		return request{}, err
	}
	body, err := json.Marshal(serve.AnalysisRequest{ICL: iclBuf.String(), Bench: in.bench})
	if err != nil {
		return request{}, err
	}
	rec := &missRec{body: body, check: &missCheck{entry: e}}
	for r := range nw.Registers {
		if nw.Registers[r].In != rsn.ScanIn {
			rec.deltaRegs = append(rec.deltaRegs, r)
		}
	}
	cl.recent = append(cl.recent, rec)
	if n := len(cl.recent); n > historyLen {
		cl.recent = append([]*missRec(nil), cl.recent[n-historyLen:]...)
	}
	return request{class: classMiss, body: body, newMiss: rec}, nil
}

// makeHit prepares a resubmission of an earlier miss.
func (w *served) makeHit(cl *client) request {
	m := cl.recent[cl.rng.Intn(len(cl.recent))]
	return request{class: classHit, body: m.body, miss: m}
}

// makeDelta prepares a one-op cut-reconnect script against an earlier
// miss's session, rewiring a register not yet rewired to scan-in.
func (w *served) makeDelta(cl *client) (request, bool) {
	for _, k := range cl.rng.Perm(len(cl.recent)) {
		m := cl.recent[k]
		if len(m.deltaRegs) == 0 {
			continue
		}
		i := cl.rng.Intn(len(m.deltaRegs))
		reg := m.deltaRegs[i]
		m.deltaRegs = append(m.deltaRegs[:i], m.deltaRegs[i+1:]...)
		script := fmt.Sprintf(`{"ops":[{"op":"cut-reconnect","pin":"R%d","src":"SI"}]}`, reg)
		body := `{"script":` + script + `}`
		return request{class: classDelta, body: []byte(body), miss: m, script: []byte(script)}, true
	}
	return request{}, false
}

// makeAttack prepares an attack on the next overlay of a fixed pool
// under a fresh network name: the name is part of the content address,
// so the daemon runs a real attack every time, while the fixed
// overlays keep the SAT work per round the same. The clients start at
// different overlays, so each round attacks every overlay of the pool.
func (w *served) makeAttack(cl *client) (request, error) {
	cl.fresh++
	cl.attacks++
	seed := (cl.attacks+int64(cl.id))%attackPool + 1
	var iclBuf, ovBuf bytes.Buffer
	_, err := bench.StreamScaleICL(&iclBuf, &ovBuf, bench.ScaleGenConfig{
		Name:          fmt.Sprintf("atk%d_c%d_%d", seed, cl.id, cl.fresh),
		TargetScanFFs: w.attackFFs, Seed: seed, ObfKeyBits: w.attackKB, ObfMuxShare: -1,
	})
	if err != nil {
		return request{}, err
	}
	var ov struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(ovBuf.Bytes(), &ov); err != nil || ov.Key == "" {
		return request{}, fmt.Errorf("overlay without embedded key: %v", err)
	}
	body, err := json.Marshal(serve.AttackRequest{ICL: iclBuf.String(), Overlay: ovBuf.Bytes()})
	if err != nil {
		return request{}, err
	}
	return request{class: classAttack, body: body, key: ov.Key}, nil
}

// classOrder draws one round's class sequence from the seed. Every
// client follows the same sequence, so both daemon workers meet the
// same classes at about the same time and a round's wall time does not
// hinge on how the clients' attacks happen to line up.
func (w *served) classOrder(rc *roundCtx) []string {
	var order []string
	for _, class := range []string{classMiss, classHit, classDelta, classAttack} {
		for i := 0; i < w.mix[class]; i++ {
			order = append(order, class)
		}
	}
	rc.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// prepare builds a client's requests for one round's class sequence;
// its misses send the pool entries in the order entries.
func (w *served) prepare(cl *client, order []string, entries []int) ([]request, error) {
	var reqs []request
	for _, class := range order {
		var r request
		var err error
		switch class {
		case classMiss:
			r, err = w.makeMiss(cl, entries[0])
			entries = entries[1:]
		case classHit:
			r = w.makeHit(cl)
		case classDelta:
			var ok bool
			if r, ok = w.makeDelta(cl); !ok {
				err = fmt.Errorf("client %d: no register left for a delta", cl.id)
			}
		case classAttack:
			r, err = w.makeAttack(cl)
		}
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// daemonCounters are the server registry counters a traced round
// reads, by per-layer counter name.
var daemonCounters = map[string][]string{
	"hybrid.candidates":      {`engine_stage_items_total{stage="resolve"}`},
	"hybrid.propagate_items": {`engine_stage_queries_total{stage="propagate"}`, `engine_stage_queries_total{stage="propagate-delta"}`},
	"hybrid.changes":         {`engine_stage_queries_total{stage="resolve"}`},
	"dep.sat_queries":        {"dep_sat_queries_total"},
	"dep.sim_resolved":       {"dep_sim_resolved_total"},
	"attack.wall_ns":         {`engine_stage_wall_ns_total{stage="attack-sat"}`, `engine_stage_wall_ns_total{stage="attack-flush"}`},
}

func (w *served) counters() map[string]float64 {
	out := map[string]float64{}
	for name, series := range daemonCounters {
		for _, s := range series {
			out[name] += float64(w.reg.Counter(s).Value())
		}
	}
	return out
}

func (w *served) round(rc *roundCtx) error {
	batches := make([][]request, len(w.clients))
	var err error
	rc.untimed(func() {
		order := w.classOrder(rc)
		for i, cl := range w.clients {
			if batches[i], err = w.prepare(cl, order, rc.rng.Perm(len(w.pool))); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	before := w.counters()
	var wg sync.WaitGroup
	for i, cl := range w.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			w.runClient(rc, cl, batches[i])
		}(i, cl)
	}
	wg.Wait()
	if rc.traced() {
		after := w.counters()
		for name := range daemonCounters {
			rc.count(name, after[name]-before[name])
		}
	}
	w.rounds++
	for i, b := range batches {
		w.finish(b)
		var d digest
		for _, r := range b {
			if r.class == classMiss {
				d.addCounts(r.got)
			}
		}
		if w.want != nil && d != *w.want {
			w.mismatch = append(w.mismatch, fmt.Sprintf("round %d client %d miss digest %v, pinned %v", w.rounds, i, d, *w.want))
		}
		if w.rounds == 1 && i == 0 {
			fmt.Printf("  client miss digest: %v\n", d)
		}
	}
	return nil
}

// finish files a client's answered misses and deltas for the output
// oracle of check.
func (w *served) finish(reqs []request) {
	for _, r := range reqs {
		if !r.ok {
			continue
		}
		switch r.class {
		case classMiss:
			r.newMiss.check.got = r.got
			w.checks = append(w.checks, r.newMiss.check)
		case classDelta:
			r.miss.check.deltas = append(r.miss.check.deltas, deltaCheck{script: r.script, got: r.got})
		}
	}
}

// runClient sends the requests one after another, recording each as an
// op.
func (w *served) runClient(rc *roundCtx, cl *client, reqs []request) {
	for i := range reqs {
		r := &reqs[i]
		opID := w.nextOp.Add(1)
		t0 := time.Now()
		sp := rc.start(nil, "op", opID)
		err := w.do(rc, opID, sp, r)
		sp.End()
		if err != nil {
			opFailed("client %d %s: %v", cl.id, r.class, err)
		}
		r.ok = err == nil
		rc.op(time.Since(t0), r.ok)
	}
}

// call sends one request to the handler as a span of the named layer.
func (w *served) call(rc *roundCtx, parent *obs.Span, op int64, layer, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	sp := rc.start(parent, layer, op)
	w.h.ServeHTTP(rec, req)
	sp.End()
	if layer != "serve.poll" {
		rc.sample(layer+"_ms", float64(time.Since(t0))/float64(time.Millisecond))
	}
	return rec
}

// pollInterval is the closed-loop client's wait between status polls.
const pollInterval = 2 * time.Millisecond

// do runs one request through submit, polling and report, and checks
// the reply.
func (w *served) do(rc *roundCtx, op int64, parent *obs.Span, r *request) error {
	path, kind := "/v1/analyses", "analyses"
	switch r.class {
	case classDelta:
		path = "/v1/analyses/" + r.miss.jobID + "/delta"
	case classAttack:
		path, kind = "/v1/attacks", "attacks"
	}
	rec := w.call(rc, parent, op, "serve.submit", http.MethodPost, path, r.body)
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	polls := 0
	for !st.State.Finished() {
		time.Sleep(pollInterval)
		polls++
		rec = w.call(rc, parent, op, "serve.poll", http.MethodGet, "/v1/"+kind+"/"+st.ID, nil)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status: HTTP %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return fmt.Errorf("status: %w", err)
		}
	}
	if polls > 0 {
		rc.count("serve.polls", float64(polls))
		rc.count("serve.polled_jobs", 1)
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	w.jobTimes(rc, r.class, st)
	rec = w.call(rc, parent, op, "serve.report", http.MethodGet, "/v1/"+kind+"/"+st.ID+"/report", nil)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("report: HTTP %d", rec.Code)
	}
	doc := rec.Body.Bytes()
	cache := rec.Header().Get("X-Cache")
	rc.count("serve.reports", 1)
	if cache == "hit" {
		rc.count("serve.hits", 1)
	}
	return w.checkReply(rc, r, st, cache, doc)
}

// jobTimes records a scheduled job's queue wait and run time, and adds
// the run time to its class's share of daemon worker time.
func (w *served) jobTimes(rc *roundCtx, class string, st serve.JobStatus) {
	enq, err1 := time.Parse(time.RFC3339Nano, st.EnqueuedAt)
	start, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err1 != nil || err2 != nil || err3 != nil || class == classHit {
		return
	}
	run := float64(fin.Sub(start)) / float64(time.Millisecond)
	rc.sample("serve.queue_wait_ms", float64(start.Sub(enq))/float64(time.Millisecond))
	rc.sample("serve.run_ms."+class, run)
	rc.count("serve.busy_ms."+class, run)
}

// checkReply is the served output oracle's part that needs the reply
// only; check recomputes the counts of misses and deltas.
func (w *served) checkReply(rc *roundCtx, r *request, st serve.JobStatus, cache string, doc []byte) error {
	switch r.class {
	case classMiss:
		if cache != "miss" {
			return fmt.Errorf("fresh submission answered with cache %q", cache)
		}
		rep, err := obs.ReadReport(bytes.NewReader(doc))
		if err != nil {
			return fmt.Errorf("miss report: %w", err)
		}
		if len(rep.Benchmarks) != 1 {
			return fmt.Errorf("miss report has %d rows, want 1", len(rep.Benchmarks))
		}
		r.got = reportCounts(rep.Benchmarks[0])
		r.newMiss.report = append([]byte(nil), doc...)
		r.newMiss.jobID = st.ID
	case classHit:
		if cache != "hit" {
			return fmt.Errorf("resubmission answered with cache %q", cache)
		}
		if !bytes.Equal(doc, r.miss.report) {
			return fmt.Errorf("hit document differs from the miss's document")
		}
	case classDelta:
		d, err := reportdiff.ReadDeltaDoc(bytes.NewReader(doc))
		if err != nil {
			return fmt.Errorf("delta document: %w", err)
		}
		if len(d.Report.Benchmarks) != 1 {
			return fmt.Errorf("delta report has %d rows, want 1", len(d.Report.Benchmarks))
		}
		r.got = reportCounts(d.Report.Benchmarks[0])
	case classAttack:
		var rep obfus.Report
		if err := json.Unmarshal(doc, &rep); err != nil {
			return fmt.Errorf("attack report: %w", err)
		}
		if rep.SAT == nil || rep.SAT.Outcome != obfus.OutcomeRecovered || !rep.SAT.Verified {
			return fmt.Errorf("attack did not recover a verified key")
		}
		if rep.SAT.RecoveredKey != r.key {
			return fmt.Errorf("recovered key %s, overlay key %s", rep.SAT.RecoveredKey, r.key)
		}
		rc.count("attack.jobs", 1)
		rc.count("attack.sat_iterations", float64(rep.SAT.Iterations))
		rc.count("attack.sat_conflicts", float64(rep.SAT.Conflicts))
	}
	return nil
}

// check recomputes every answered miss and delta of the run with the
// benchmark's own pipeline, after the measured phase: the daemon's
// reported counts must match. The API returns counts, not the secured
// network, so there is no daemon output for verify.Check to re-check;
// the batch workloads run verify.Check on the same pipeline's output.
func (w *served) check() []string {
	byEntry := make([][]*missCheck, len(w.pool))
	for _, mc := range w.checks {
		byEntry[mc.entry] = append(byEntry[mc.entry], mc)
	}
	fails := append([]string(nil), w.mismatch...)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < maxWorkers(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e := int(next.Add(1) - 1)
				if e >= len(byEntry) {
					return
				}
				msgs := w.recheck(e, byEntry[e])
				mu.Lock()
				fails = append(fails, msgs...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return fails
}

// recheck recomputes pool entry e and the deltas sent against it, and
// compares them with the daemon's replies, returning one message per
// mismatch.
func (w *served) recheck(e int, mcs []*missCheck) []string {
	if len(mcs) == 0 {
		return nil
	}
	in := w.pool[e]
	an, err := hybrid.NewAnalysisOpts(in.nw, in.att.Circuit, in.att.Internal, in.spec, dep.Exact, engine.Options{Workers: 1})
	if err != nil {
		return []string{fmt.Sprintf("entry %d: dependency analysis: %v", e, err)}
	}
	secure := func(base *rsn.Network) (resultCounts, error) {
		out, err := securePair(&roundCtx{}, 0, nil, an, base.Clone())
		return outcomeCounts(out), err
	}
	var fails []string
	want, err := secure(in.nw)
	if err != nil {
		return []string{fmt.Sprintf("entry %d: %v", e, err)}
	}
	deltaWant := map[string]resultCounts{}
	for _, mc := range mcs {
		if mc.got != want {
			fails = append(fails, fmt.Sprintf("entry %d: daemon reported %+v, recomputed %+v", e, mc.got, want))
		}
		for _, d := range mc.deltas {
			dw, ok := deltaWant[string(d.script)]
			if !ok {
				script, err := rsn.ParseEditScript(d.script)
				var derived *rsn.Network
				if err == nil {
					derived, err = script.Apply(in.nw)
				}
				if err == nil {
					dw, err = secure(derived)
				}
				if err != nil {
					fails = append(fails, fmt.Sprintf("entry %d delta %s: %v", e, d.script, err))
					continue
				}
				deltaWant[string(d.script)] = dw
			}
			if d.got != dw {
				fails = append(fails, fmt.Sprintf("entry %d delta %s: daemon reported %+v, recomputed %+v", e, d.script, d.got, dw))
			}
		}
	}
	return fails
}
