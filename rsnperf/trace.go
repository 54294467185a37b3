package main

import (
	"os"
	"sync/atomic"

	"repro/internal/obs"
)

// A traced run records its spans on one obs.Tracer: the benchmark's
// spans around each public call, and the spans the program's engine
// already emits when the same tracer goes into engine.Options or
// serve.Config. Benchmark spans carry the op id as the "op" attribute.

// benchLayers are the names of the benchmark's own spans.
var benchLayers = map[string]bool{
	"op": true, "icl.parse": true, "analysis.build": true,
	"hybrid.census": true, "pure.resolve": true, "hybrid.resolve": true,
	"serve.submit": true, "serve.poll": true, "serve.report": true,
}

// progSpanNames maps the spans the program's own tracer emits to the
// benchmark's layer names.
var progSpanNames = map[string]string{
	"one-cycle":    "dep.one_cycle",
	"closure":      "dep.closure",
	"pure-resolve": "pure.resolve",
	"resolve":      "hybrid.resolve",
	"attack-sat":   "attack.sat",
	"attack-flush": "attack.flush",
}

// newRunTracer returns the tracer of a traced run and the sink it
// collects into. Per-query spans are sampled away: they are many and
// map to no layer.
func newRunTracer() (*obs.Tracer, *traceSink) {
	sink := &traceSink{}
	t := obs.NewTracer(sink)
	t.SampleEvery("query", 1<<30)
	return t, sink
}

// traceSink collects the events of traced rounds. It keeps benchmark
// spans and the program spans of progSpanNames, renamed to their
// layer; other program spans (job, secure, propagate, ...) are
// dropped, and their children become roots. Events that end while the
// sink is off (set-up, untraced rounds) are dropped too.
type traceSink struct {
	on atomic.Bool
	obs.CollectorSink
}

func (s *traceSink) Emit(ev obs.Event) {
	if !s.on.Load() {
		return
	}
	if layer, ok := progSpanNames[ev.Name]; ok {
		ev.Name = layer
	} else if !benchLayers[ev.Name] {
		return
	}
	s.CollectorSink.Emit(ev)
}

// writeJSONL writes events, one JSON object per line.
func writeJSONL(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewBufferedJSONLSink(f)
	for _, ev := range events {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func eventInterval(ev obs.Event) interval { return interval{ev.StartU, ev.StartU + ev.DurU} }

// selfIntervals returns, per span id, the parts of the span's interval
// that none of its children cover. Children running in parallel
// overlap; their union is removed once.
func selfIntervals(events []obs.Event) map[uint64][]interval {
	kids := map[uint64][]interval{}
	for _, ev := range events {
		if ev.Parent != 0 {
			kids[ev.Parent] = append(kids[ev.Parent], eventInterval(ev))
		}
	}
	out := make(map[uint64][]interval, len(events))
	for _, ev := range events {
		out[ev.Span] = subtract(eventInterval(ev), union(kids[ev.Span]))
	}
	return out
}

// layerSelfTimes returns per span name the wall time (µs) of the union
// of its spans' self intervals: a layer busy on two goroutines at once
// counts that stretch of time once.
func layerSelfTimes(events []obs.Event) map[string]int64 {
	self := selfIntervals(events)
	byName := map[string][]interval{}
	for _, ev := range events {
		byName[ev.Name] = append(byName[ev.Name], self[ev.Span]...)
	}
	out := make(map[string]int64, len(byName))
	for name, ivs := range byName {
		out[name] = length(union(ivs))
	}
	return out
}
