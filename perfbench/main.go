// Command viaperf is the repository's end-to-end and per-layer benchmark.
// It drives three workloads, each inside this one process:
//
//   - replay: the trace-driven simulator behind Figs. 12a and 16
//     (trace, netsim, sim, core, tomo, stats);
//   - control: a durable controller behind loopback HTTP serving
//     choose+report pairs (transport JSON wire, controller, wal, core);
//   - media: a loopback deployment of a controller, three relays and four
//     agents streaming G.711-sized media with NACK repair (transport
//     frames, relay, client, rtp, wan).
//
// Every workload prints the same end-to-end metrics (read per workload as
// README.md describes) with --trace 0, and the per-layer metrics with
// --trace 1. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Output checks run on every invocation; a failed check prints
// "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports with tracing off. What
// each one reads on each workload is documented in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced-run metrics. A workload that does not run a
// layer reports 0 for it.
var perLayer = []metricDef{
	// replay
	{"trace.generate_s", "s"},
	{"sim.prepare_s", "s"},
	{"netsim.options_ns_per_call", "ns"},
	{"netsim.sample_call_ns", "ns"},
	{"sim.harness_ns_per_call", "ns"},
	{"core.via_ns_per_call", "ns"},
	{"core.budget_ns_per_call", "ns"},
	{"sim.allocs_per_call", "count"},
	{"sim.alloc_bytes_per_call", "B"},
	{"sim.gc_cycles", "count"},
	// control
	{"controller.handler_p50_us", "us"},
	{"controller.handler_p99_us", "us"},
	{"controller.client_overhead_p50_us", "us"},
	{"controller.generator_lag_us", "us"},
	{"core.choose_ns", "ns"},
	{"core.observe_ns", "ns"},
	{"wal.fsync_p50_ms", "ms"},
	{"wal.fsync_p99_ms", "ms"},
	{"wal.bytes_per_decision", "B"},
	{"proc.allocs_per_decision", "count"},
	{"proc.cpu_us_per_decision", "us"},
	// media
	{"client.generator_lag_us", "us"},
	{"client.choose_rpc_p50_us", "us"},
	{"client.call_setup_p50_us", "us"},
	{"client.call_setup_p99_us", "us"},
	{"relay.busy_ns_per_pkt", "ns"},
	{"relay.pkts_per_call", "count"},
	{"relay.dropped", "count"},
	{"client.send_ns_per_pkt", "ns"},
	{"client.recv_busy_ns_per_pkt", "ns"},
	{"transport.wire_bytes_per_media_pkt", "B"},
	{"rtp.nacks_per_call", "count"},
	{"rtp.repaired_fraction", "ratio"},
	{"wan.loss_drops", "count"},
	{"proc.allocs_per_pkt", "count"},
	{"proc.gc_cycles", "count"},
	// every workload
	{"bench.latency_p90_us", "us"},
	{"bench.latency_p99_us", "us"},
	{"bench.tracing_overhead_pct", "%"},
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for span files and temporary WALs
	tiny     bool   // smoke-test sizes
}

// outcome is what one pass of a workload measured.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	checks    []check
	spans     *tracer
	headline  string // the end-to-end metric the tracing overhead is taken on
}

// check is one output check: a property the method must have.
type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"replay", runReplay},
	{"control", runControl},
	{"media", runMedia},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "replay, control or media")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics, spans, tracing overhead")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for span files and temporary data")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	res, err := execute(o)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "viaperf: "+format+"\n", args...)
	os.Exit(2)
}

// execute runs one invocation. Untraced, it is one pass reporting the
// end-to-end metrics. Traced, it is an untraced pass followed by a traced
// pass of the same seed and length: the per-layer metrics come from the
// traced pass, and the difference between the two passes' end-to-end
// figures is the tracing overhead.
func execute(o options) (*result, error) {
	w, ok := lookup(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want replay, control or media)", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, fmt.Errorf("output directory: %w", err)
	}
	plain := o
	plain.trace = false
	base, err := w.run(plain)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	passes := []*outcome{base}
	if !o.trace {
		for _, m := range endToEnd {
			v, ok := base.e2e[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s: end-to-end metric %s not measured", o.workload, m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		traced, err := w.run(o)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", o.workload, err)
		}
		passes = append(passes, traced)
		reportOverhead(base, traced)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{traced.layers[m.Name], m.Unit}
		}
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := traced.spans.writeJSONL(path); err != nil {
			return nil, err
		}
		traced.spans.printLayers(os.Stderr, traced.e2e[traced.headline], traced.headline)
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, c := range p.checks {
			status := "ok  "
			if !c.ok {
				status = "FAIL"
				res.Correct = false
			}
			fmt.Fprintf(os.Stderr, "check %s %-28s %s\n", status, c.name, c.detail)
		}
	}
	printSummary(o.workload, passes)
	return res, nil
}

// reportOverhead stores the tracing overhead of the headline metric as a
// per-layer metric and prints it for every end-to-end metric.
func reportOverhead(base, traced *outcome) {
	for _, m := range endToEnd {
		b, t := base.e2e[m.Name], traced.e2e[m.Name]
		if b != 0 {
			fmt.Fprintf(os.Stderr, "tracing overhead %-16s untraced %.6g traced %.6g (%+.2f%%)\n",
				m.Name, b, t, 100*(t-b)/b)
		}
	}
	b, t := base.e2e[traced.headline], traced.e2e[traced.headline]
	if b != 0 {
		traced.layers["bench.tracing_overhead_pct"] = 100 * (t - b) / b
	}
}

func printSummary(name string, passes []*outcome) {
	for i, p := range passes {
		label := "untraced"
		if i > 0 {
			label = "traced"
		}
		var keys []string
		for k := range p.e2e {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.6g", k, p.e2e[k])
		}
		fmt.Fprintf(os.Stderr, "%s %s attempted=%d failed=%d%s\n", name, label, p.attempted, p.failed, b.String())
	}
}
