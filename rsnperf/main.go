// Command rsnperf is the repository's benchmark: it runs one named
// workload against the secure-data-flow pipeline for a fixed time,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
//
//	bash rsnperf/run.sh --workload protocol-flexscan --seed 1 --seconds 30 --trace 0
//
// A run repeats a fixed round of work until --seconds have passed and
// reports medians over rounds. See README.md for the workloads and the
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// setup generates the inputs (and boots the daemon, where there is
	// one). It may be called several times; the last call's state is
	// the one measured. t is the run's tracer, nil when untraced.
	setup(t *obs.Tracer) error
	// round runs one fixed unit of work.
	round(rc *roundCtx) error
	// check runs the output checks that need the whole run, returning
	// one message per failure.
	check() []string
	// close releases what setup acquired.
	close()
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tiny selects the small inputs of the smoke tests.
	tiny     bool
	traceOut string
}

// A run sets up at least minSetupReps times, and more (up to
// maxSetupReps) while the set-ups so far took less than setupBudget:
// a set-up of a few milliseconds needs more samples for a steady
// median. setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = time.Second
)

// minRounds is the fewest rounds a run measures, whatever --seconds says.
const minRounds = 2

// maxWorkers bounds engine workers and clients: the reference machine
// has two CPUs, and a fixed bound keeps the load the same elsewhere.
func maxWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func newWorkload(c config) (workload, error) {
	switch c.workload {
	case "protocol-flexscan":
		return newProtocol(c.tiny), nil
	case "scale-sib":
		return newScale(c.tiny), nil
	case "served-mix":
		return newServed(c.seed, c.tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want protocol-flexscan, scale-sib or served-mix)", c.workload)
}

// roundCtx carries one round's instrumentation. In an untraced round
// tr and stats are nil and every hook is a no-op.
type roundCtx struct {
	rng   *rand.Rand
	tr    *obs.Tracer
	stats *engine.Stats

	mu         sync.Mutex
	ops        []opSample
	counts     map[string]float64
	samples    map[string][]float64
	mem        map[string]memSample
	pausedWall time.Duration
	pausedCPU  time.Duration
}

// opSample is one operation's outcome.
type opSample struct {
	ms float64
	ok bool
}

func (rc *roundCtx) traced() bool { return rc.tr != nil }

// engine returns the engine options of a call in this round; the
// program's spans nest under parent.
func (rc *roundCtx) engine(parent *obs.Span) engine.Options {
	return engine.Options{Workers: maxWorkers(), Stats: rc.stats, Tracer: rc.tr, TraceParent: parent}
}

// start opens a span of the named layer for op under parent (nil in an
// untraced round).
func (rc *roundCtx) start(parent *obs.Span, name string, op int64) *obs.Span {
	if rc.tr == nil {
		return nil
	}
	return rc.tr.Start(parent, name, obs.Int("op", op))
}

// allocLayers are the layers whose calls get allocation deltas.
var allocLayers = map[string]bool{"hybrid.resolve": true, "pure.resolve": true, "analysis.build": true}

// call runs fn as one span of the named layer under parent; fn gets
// the span, under which the program's own spans nest. In a traced
// round it also takes the allocation delta of allocLayers.
func (rc *roundCtx) call(parent *obs.Span, name string, op int64, fn func(sp *obs.Span)) {
	if !rc.traced() {
		fn(nil)
		return
	}
	alloc := allocLayers[name]
	var m0 memSample
	if alloc {
		m0 = readMem()
	}
	sp := rc.start(parent, name, op)
	fn(sp)
	sp.End()
	if alloc {
		d := readMem().sub(m0)
		rc.mu.Lock()
		rc.mem[name] = rc.mem[name].add(d)
		rc.mu.Unlock()
	}
}

// untimed runs fn outside the round's measured time (output checks).
func (rc *roundCtx) untimed(fn func()) {
	t0, c0 := time.Now(), cpuTime()
	fn()
	rc.mu.Lock()
	rc.pausedWall += time.Since(t0)
	rc.pausedCPU += cpuTime() - c0
	rc.mu.Unlock()
}

// op records one operation's latency and outcome.
func (rc *roundCtx) op(d time.Duration, ok bool) {
	rc.mu.Lock()
	rc.ops = append(rc.ops, opSample{float64(d) / float64(time.Millisecond), ok})
	rc.mu.Unlock()
}

// count adds v to a per-layer counter (traced rounds only).
func (rc *roundCtx) count(name string, v float64) {
	if !rc.traced() {
		return
	}
	rc.mu.Lock()
	rc.counts[name] += v
	rc.mu.Unlock()
}

// sample records one per-layer latency sample (traced rounds only).
func (rc *roundCtx) sample(name string, v float64) {
	if !rc.traced() {
		return
	}
	rc.mu.Lock()
	rc.samples[name] = append(rc.samples[name], v)
	rc.mu.Unlock()
}

// opFailed reports why an operation failed; the failure itself is
// counted through roundCtx.op.
func opFailed(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rsnperf: op failed: "+format+"\n", args...)
}

// roundResult is one measured round.
type roundResult struct {
	traced    bool
	wall, cpu time.Duration
	mem       memSample
	rc        *roundCtx
}

// result is everything a run measured.
type result struct {
	setup     []float64
	rounds    []roundResult
	events    []obs.Event
	rssMB     float64
	failures  []string
	attempted int
	failed    int
	// checkSeconds is the time of the end-of-run output checks.
	checkSeconds float64
}

func run(c config, w workload) (*result, error) {
	defer w.close()
	res := &result{}
	var t *obs.Tracer
	var sink *traceSink
	if c.trace {
		t, sink = newRunTracer()
	}
	var setupTime time.Duration
	for i := 0; i < minSetupReps || (i < maxSetupReps && setupTime < setupBudget); i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(t); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setupTime += d
		res.setup = append(res.setup, d.Seconds())
	}
	rng := rand.New(rand.NewSource(c.seed))
	start := time.Now()
	var last time.Duration
	for r := 0; r < minRounds || time.Since(start)+last <= c.seconds; r++ {
		rc := &roundCtx{rng: rng, counts: map[string]float64{}, samples: map[string][]float64{}, mem: map[string]memSample{}}
		traced := c.trace && r%2 == 1
		if traced {
			rc.tr = t
			rc.stats = engine.NewStats()
		}
		runtime.GC()
		if traced {
			sink.on.Store(true)
		}
		t0, c0, m0 := time.Now(), cpuTime(), readMem()
		err := w.round(rc)
		last = time.Since(t0)
		if sink != nil {
			sink.on.Store(false)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		res.rounds = append(res.rounds, roundResult{
			traced: traced,
			wall:   last - rc.pausedWall,
			cpu:    cpuTime() - c0 - rc.pausedCPU,
			mem:    readMem().sub(m0),
			rc:     rc,
		})
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.rssMB = rss
	for _, rr := range res.rounds {
		for _, o := range rr.rc.ops {
			res.attempted++
			if !o.ok {
				res.failed++
			}
		}
	}
	t0 := time.Now()
	res.failures = w.check()
	res.checkSeconds = time.Since(t0).Seconds()
	res.failed += len(res.failures)
	if sink != nil {
		res.events = sink.Events()
		if c.traceOut != "" {
			if err := writeJSONL(c.traceOut, res.events); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	return res, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(res *result) (map[string]metric, string) {
	var walls, cpus, lat []float64
	var ops int // completed ops
	var measured time.Duration
	for _, rr := range res.rounds {
		walls = append(walls, rr.wall.Seconds())
		cpus = append(cpus, rr.cpu.Seconds())
		measured += rr.wall
		for _, o := range rr.rc.ops {
			lat = append(lat, o.ms)
			if o.ok {
				ops++
			}
		}
	}
	q10, ok := tailPercentile(len(lat))
	if !ok {
		q10 = 500
	}
	m := map[string]metric{
		"setup_s":     {median(res.setup), "s"},
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"ops_per_s":   {float64(ops) / measured.Seconds(), "1/s"},
		"op_p50_ms":   {median(lat), "ms"},
		"op_tail_ms":  {percentile(lat, float64(q10)/10), "ms"},
		"peak_rss_mb": {res.rssMB, "MB"},
	}
	note := fmt.Sprintf("op_tail_ms is p%g of %d ops (%d beyond it)", float64(q10)/10, len(lat), beyond(len(lat), q10))
	if !ok {
		note = fmt.Sprintf("op_tail_ms is p50: %d ops are too few for a percentile with %d beyond it", len(lat), minBeyond)
	}
	return m, note
}

// perLayer derives the per-layer metrics of a traced run, per traced
// round.
func perLayer(res *result) map[string]metric {
	var traced, untraced []float64
	counts := map[string]float64{}
	samples := map[string][]float64{}
	mem := map[string]memSample{}
	var round memSample
	var tracedWall float64
	for _, rr := range res.rounds {
		if !rr.traced {
			untraced = append(untraced, rr.wall.Seconds())
			continue
		}
		traced = append(traced, rr.wall.Seconds())
		tracedWall += rr.wall.Seconds()
		round = round.add(rr.mem)
		for k, v := range rr.rc.counts {
			counts[k] += v
		}
		for k, v := range rr.rc.samples {
			samples[k] = append(samples[k], v...)
		}
		for k, v := range rr.rc.mem {
			mem[k] = mem[k].add(v)
		}
	}
	n := float64(len(traced))
	self := layerSelfTimes(res.events)
	var all []interval
	for _, ivs := range selfIntervals(res.events) {
		all = append(all, ivs...)
	}
	covered := length(union(all))
	sec := func(name string) float64 { return float64(self[name]) / 1e6 / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	busy := counts["serve.busy_ms.miss"] + counts["serve.busy_ms.delta"] + counts["serve.busy_ms.attack"]
	m := map[string]metric{
		"hybrid.resolve_s":             {sec("hybrid.resolve"), "s"},
		"hybrid.census_s":              {sec("hybrid.census"), "s"},
		"hybrid.candidates":            {counts["hybrid.candidates"] / n, "count"},
		"hybrid.changes_per_candidate": {ratio(counts["hybrid.changes"], counts["hybrid.candidates"]), "ratio"},
		"hybrid.propagate_items":       {counts["hybrid.propagate_items"] / n, "count"},
		"hybrid.alloc_bytes":           {float64(mem["hybrid.resolve"].allocBytes) / n, "bytes"},
		"hybrid.allocs":                {float64(mem["hybrid.resolve"].allocs) / n, "count"},
		"pure.resolve_s":               {sec("pure.resolve"), "s"},
		"pure.alloc_bytes":             {float64(mem["pure.resolve"].allocBytes) / n, "bytes"},
		"pure.allocs":                  {float64(mem["pure.resolve"].allocs) / n, "count"},
		"analysis.build_s":             {sec("analysis.build"), "s"},
		"analysis.alloc_bytes":         {float64(mem["analysis.build"].allocBytes) / n, "bytes"},
		"analysis.allocs":              {float64(mem["analysis.build"].allocs) / n, "count"},
		"dep.closure_s":                {sec("dep.closure"), "s"},
		"dep.closure_deps":             {counts["dep.closure_deps"] / n, "count"},
		"dep.one_cycle_s":              {sec("dep.one_cycle"), "s"},
		"dep.sat_queries":              {counts["dep.sat_queries"] / n, "count"},
		"dep.sim_resolved_ratio":       {ratio(counts["dep.sim_resolved"], counts["dep.sim_resolved"]+counts["dep.sat_queries"]), "ratio"},
		"icl.parse_s":                  {sec("icl.parse"), "s"},
		"icl.bytes_per_s":              {ratio(counts["icl.bytes"], float64(self["icl.parse"])/1e6), "B/s"},
		"serve.submit_ms":              {median(samples["serve.submit_ms"]), "ms"},
		"serve.report_ms":              {median(samples["serve.report_ms"]), "ms"},
		"serve.hit_ratio":              {ratio(counts["serve.hits"], counts["serve.reports"]), "ratio"},
		"serve.polls_per_job":          {ratio(counts["serve.polls"], counts["serve.polled_jobs"]), "count"},
		"serve.queue_wait_ms":          {median(samples["serve.queue_wait_ms"]), "ms"},
		"serve.run_ms.miss":            {median(samples["serve.run_ms.miss"]), "ms"},
		"serve.run_ms.delta":           {median(samples["serve.run_ms.delta"]), "ms"},
		"serve.run_ms.attack":          {median(samples["serve.run_ms.attack"]), "ms"},
		"serve.worker_share.miss":      {ratio(counts["serve.busy_ms.miss"], busy), "ratio"},
		"serve.worker_share.delta":     {ratio(counts["serve.busy_ms.delta"], busy), "ratio"},
		"serve.worker_share.attack":    {ratio(counts["serve.busy_ms.attack"], busy), "ratio"},
		"attack.run_ms":                {ratio(counts["attack.wall_ns"], counts["attack.jobs"]) / 1e6, "ms"},
		"attack.sat_iterations":        {ratio(counts["attack.sat_iterations"], counts["attack.jobs"]), "count"},
		"attack.sat_conflicts":         {ratio(counts["attack.sat_conflicts"], counts["attack.jobs"]), "count"},
		"go.alloc_bytes":               {float64(round.allocBytes) / n, "bytes"},
		"go.gc_cycles":                 {float64(round.gcCycles) / n, "count"},
		"trace.overhead_s":             {median(traced) - median(untraced), "s"},
		"trace.unattributed_s":         {(tracedWall - float64(covered)/1e6) / n, "s"},
	}
	return m
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func main() {
	var c config
	var seconds int
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: protocol-flexscan, scale-sib or served-mix")
	flag.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs and order derive from")
	flag.IntVar(&seconds, "seconds", 30, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "rsnperf: --trace must be 0 or 1")
		os.Exit(2)
	}
	if seconds < 1 {
		fmt.Fprintln(os.Stderr, "rsnperf: --seconds must be at least 1")
		os.Exit(2)
	}
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	if c.trace {
		c.traceOut = filepath.Join(".bench_build", fmt.Sprintf("rsnperf-trace-%s-%d.jsonl", c.workload, c.seed))
		if err := os.MkdirAll(filepath.Dir(c.traceOut), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "rsnperf:", err)
			os.Exit(1)
		}
	}
	w, err := newWorkload(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsnperf:", err)
		os.Exit(2)
	}
	res, err := run(c, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsnperf:", err)
		os.Exit(1)
	}
	if code := printReport(c, res); code != 0 {
		os.Exit(code)
	}
}

// printReport prints the human-readable summary and the result line,
// and returns the exit code.
func printReport(c config, res *result) int {
	fmt.Printf("rsnperf %s seed=%d rounds=%d ops=%d failed=%d fail_ratio=%g\n",
		c.workload, c.seed, len(res.rounds), res.attempted, res.failed,
		float64(res.failed)/float64(max(res.attempted, 1)))
	for _, f := range res.failures {
		fmt.Println("  FAIL:", f)
	}
	fmt.Printf("  end-of-run output checks: %.1f s\n", res.checkSeconds)
	fmt.Print("  round wall/cpu s:")
	for _, rr := range res.rounds {
		fmt.Printf(" %.3f/%.3f", rr.wall.Seconds(), rr.cpu.Seconds())
	}
	fmt.Println()
	var m map[string]metric
	if c.trace {
		m = perLayer(res)
		fmt.Printf("  span JSONL: %s\n", c.traceOut)
	} else {
		var note string
		m, note = endToEnd(res)
		fmt.Println("  " + note)
	}
	printMetrics(m)
	rep := report{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsnperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
