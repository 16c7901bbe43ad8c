package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Replay sizes. At 60k calls about a quarter of the trace passes the
// §5.1 eligibility filter and Via beats default on every metric, while a
// round of the 16 strategies takes a few seconds on two cores (at 20k
// calls only 5% are eligible and Via does not yet beat default on RTT).
// The prefix bounds the Workers=1 vs Workers=nproc identity check.
const (
	replayCalls       = 60000
	replayPrefix      = 3000
	replaySetups      = 3
	replaySampleEvery = 64 // one Choose in 64 is timed
)

// replayWorldSeed fixes the world (150 ASes, 24 relays) across runs, as
// the paper evaluates one network against its traces; --seed varies the
// trace and the simulator's draws. A world per seed moved replay cost per
// decision by a third between seeds.
const replayWorldSeed = 1

// replayBudgets are the §4.6 budgets of the budget-aware Via runs, and
// budgetSlack the tolerance on the share of Via's decisions that relay:
// room for the P² benefit-percentile gate's warm-up.
var replayBudgets = []float64{0.1, 0.3, 0.5}

const budgetSlack = 0.01

// replayEnv mirrors experiments.NewEnv with Workers pinned to nproc.
type replayEnv struct {
	world  *netsim.World
	recs   []trace.CallRecord
	runner *sim.Runner
	seed   uint64
}

func buildReplayEnv(seed uint64, calls, workers int, tr *tracer, id uint64) (*replayEnv, [3]time.Duration) {
	t0 := time.Now()
	w := netsim.New(netsim.DefaultConfig(replayWorldSeed))
	t1 := time.Now()
	recs := trace.NewGenerator(w, trace.DefaultConfig(seed+1, calls)).GenerateSlice()
	t2 := time.Now()
	cfg := sim.DefaultConfig(seed + 2)
	cfg.Workers = workers
	r := sim.NewRunner(w, cfg)
	r.Prepare(recs)
	t3 := time.Now()
	tr.add(id, "replay.setup", "", t0, t3)
	tr.add(id, "netsim.new", "replay.setup", t0, t1)
	tr.add(id, "trace.generate", "replay.setup", t1, t2)
	tr.add(id, "sim.prepare", "replay.setup", t2, t3)
	return &replayEnv{world: w, recs: recs, runner: r, seed: seed},
		[3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
}

// family is one strategy of the Figs. 12a/16 set.
type family struct {
	kind   string // default, oracle, via, strawman-I, strawman-II, via-budget
	metric quality.Metric
	budget float64
}

func replayFamilies() []family {
	fs := []family{{kind: "default"}}
	for _, m := range quality.AllMetrics() {
		fs = append(fs,
			family{kind: "oracle", metric: m},
			family{kind: "via", metric: m},
			family{kind: "strawman-I", metric: m},
			family{kind: "strawman-II", metric: m})
	}
	for _, b := range replayBudgets {
		fs = append(fs, family{kind: "via-budget", metric: quality.RTT, budget: b})
	}
	return fs
}

func (f family) build(e *replayEnv) core.Strategy {
	switch f.kind {
	case "oracle":
		return core.NewOracle(e.world, f.metric)
	case "via":
		return core.NewVia(core.DefaultViaConfig(f.metric), e.world)
	case "strawman-I":
		return core.NewPredictOnly(f.metric, e.world)
	case "strawman-II":
		return core.NewExploreOnly(f.metric, 0.10, e.seed+77)
	case "via-budget":
		cfg := core.DefaultViaConfig(f.metric)
		cfg.Budget = f.budget
		cfg.BudgetAware = true
		return core.NewVia(cfg, e.world)
	default:
		return core.DefaultStrategy{}
	}
}

// timedStrategy wraps a strategy from outside the simulator: it counts
// the calls the runner replays through it, samples Choose latency, and
// stamps the first and last call of the replay. Only Name, Choose and
// Observe pass through; sim.Runner asks for nothing else here (active
// probing is off in the evaluation config).
type timedStrategy struct {
	core.Strategy
	chooses, observes int
	relayed           int // Choose answers that relay the call
	want              int // records in the trace
	lat               []float64
	start, end        time.Time
}

func (s *timedStrategy) Choose(c core.Call, cands []netsim.Option) netsim.Option {
	if s.start.IsZero() {
		s.start = time.Now()
	}
	s.chooses++
	var opt netsim.Option
	if s.chooses%replaySampleEvery != 0 {
		opt = s.Strategy.Choose(c, cands)
	} else {
		t := time.Now()
		opt = s.Strategy.Choose(c, cands)
		s.lat = append(s.lat, float64(time.Since(t))/1e3)
	}
	if opt.IsRelayed() {
		s.relayed++
	}
	return opt
}

func (s *timedStrategy) Observe(c core.Call, o netsim.Option, m quality.Metrics) {
	if s.start.IsZero() {
		s.start = time.Now()
	}
	s.Strategy.Observe(c, o, m)
	s.observes++
	if s.observes == s.want {
		s.end = time.Now()
	}
}

func runReplay(o options) (*outcome, error) {
	calls, prefix, setups := replayCalls, replayPrefix, replaySetups
	if o.tiny {
		calls, prefix, setups = 30000, 1000, 1
	}
	workers := runtime.GOMAXPROCS(0)
	out := newOutcome()
	out.headline = "ops_per_s"
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out.spans = tr

	var env *replayEnv
	var setupS, genS, prepS []float64
	for i := 0; i < setups; i++ {
		env = nil
		runtime.GC()
		var parts [3]time.Duration
		env, parts = buildReplayEnv(o.seed, calls, workers, tr, uint64(1_000_000+i))
		setupS = append(setupS, (parts[0] + parts[1] + parts[2]).Seconds())
		genS = append(genS, parts[1].Seconds())
		prepS = append(prepS, parts[2].Seconds())
	}
	out.e2e["setup_s"] = median(setupS)
	out.layers["trace.generate_s"] = median(genS)
	out.layers["sim.prepare_s"] = median(prepS)
	eligible := env.runner.EligibleCalls()
	if eligible == 0 {
		return nil, fmt.Errorf("trace has no eligible calls")
	}

	fams := replayFamilies()
	var lat []float64
	var first []*sim.Result
	var firstTimed []*timedStrategy
	eligibleOK, replayedOK := true, true
	rounds := 0
	var rates, cpus []float64
	perRound := float64(len(fams) * eligible)
	mem0, t0 := readMem(), time.Now()
	for {
		c0 := cpuTime()
		timed := make([]*timedStrategy, len(fams))
		strats := make([]core.Strategy, len(fams))
		for i, f := range fams {
			timed[i] = &timedStrategy{Strategy: f.build(env), want: len(env.recs)}
			strats[i] = timed[i]
		}
		rs := time.Now()
		res := env.runner.Run(strats, env.recs)
		re := time.Now()
		rates = append(rates, perRound/re.Sub(rs).Seconds())
		cpus = append(cpus, micros(cpuTime()-c0)/perRound)
		tr.add(uint64(rounds), "replay.round", "", rs, re)
		for i, ts := range timed {
			lat = append(lat, ts.lat...)
			if res[i].Eligible != int64(eligible) {
				eligibleOK = false
			}
			if ts.observes != len(env.recs) {
				replayedOK = false
			}
			tr.add(uint64(rounds), "sim.run/"+fams[i].kind, "replay.round", ts.start, ts.end)
		}
		if first == nil {
			first, firstTimed = res, timed
		}
		rounds++
		if time.Since(t0).Seconds() >= o.seconds {
			break
		}
	}
	mem := readMem().since(mem0)
	decisions := float64(rounds) * perRound
	out.attempted = int64(rounds * len(fams))
	out.e2e["ops_per_s"] = median(rates)
	out.e2e["cpu_us_per_op"] = median(cpus)
	out.e2e["latency_p50_us"] = quantile(lat, 0.50)
	out.layers["bench.latency_p90_us"] = quantile(lat, 0.90)
	out.layers["bench.latency_p99_us"] = quantile(lat, 0.99)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.layers["sim.allocs_per_call"] = float64(mem.mallocs) / decisions
	out.layers["sim.alloc_bytes_per_call"] = float64(mem.bytes) / decisions
	out.layers["sim.gc_cycles"] = float64(mem.gcs)

	out.check("replay.eligible", eligibleOK,
		"every strategy run counted EligibleCalls()=%d calls (%d runs)", eligible, out.attempted)
	out.check("replay.replayed", replayedOK,
		"every strategy run replayed all %d trace records", len(env.recs))
	checkReplayQuality(out, fams, first, firstTimed)
	checkReplayParallel(out, env, fams, prefix, workers)

	if o.trace {
		replayLayers(out, env, eligible)
	}
	return out, nil
}

// checkReplayQuality: oracle and Via beat default on the metric they
// optimize, and budget-aware Via relays no more of the calls it decides
// than its budget allows (§4.6). The budget counts Via's own decisions;
// the simulator's seeded connectivity-relayed calls never reach Choose,
// and the relayed share of eligible calls alone may exceed the budget
// because eligible pairs are the ones with predictions to act on.
func checkReplayQuality(out *outcome, fams []family, res []*sim.Result, timed []*timedStrategy) {
	def := res[0]
	for i, f := range fams {
		r := res[i]
		switch f.kind {
		case "oracle", "via":
			d, v := def.PNR.Rate(f.metric), r.PNR.Rate(f.metric)
			out.check("replay."+f.kind+"-beats-default", v < d,
				"%s PNR(%s) %.4f < default %.4f", f.kind, f.metric, v, d)
		case "via-budget":
			rf := float64(timed[i].relayed) / float64(timed[i].chooses)
			out.check("replay.budget", rf <= f.budget+budgetSlack,
				"budget %.2f: Via relayed %.4f of its %d decisions (<= budget+%.2f); %.4f of eligible calls",
				f.budget, rf, timed[i].chooses, budgetSlack, r.RelayedFraction())
		}
	}
}

// checkReplayParallel replays a prefix of the trace with Workers=nproc and
// Workers=1 on fresh runners and requires identical results.
func checkReplayParallel(out *outcome, env *replayEnv, fams []family, prefix, workers int) {
	if prefix > len(env.recs) {
		prefix = len(env.recs)
	}
	recs := env.recs[:prefix]
	run := func(n int) []*sim.Result {
		cfg := sim.DefaultConfig(env.seed + 2)
		cfg.Workers = n
		r := sim.NewRunner(env.world, cfg)
		r.Prepare(recs)
		strats := make([]core.Strategy, len(fams))
		for i, f := range fams {
			strats[i] = f.build(env)
		}
		return r.Run(strats, recs)
	}
	par, seq := run(workers), run(1)
	same := reflect.DeepEqual(par, seq)
	out.check("replay.parallel-identical", same,
		"Workers=%d and Workers=1 agree on a %d-call prefix over %d strategies", workers, prefix, len(fams))
}

// layerSink keeps the timed calls' results live.
var layerSink int

// replayLayers times single layers over the trace's call sequence, one
// goroutine, after the measured rounds.
func replayLayers(out *outcome, env *replayEnv, eligible int) {
	n := float64(len(env.recs))
	t := time.Now()
	for _, r := range env.recs {
		layerSink += len(env.world.Options(r.Src, r.Dst))
	}
	out.layers["netsim.options_ns_per_call"] = float64(time.Since(t)) / n

	rng := stats.NewRNG(env.seed).Split("perfbench-sample")
	t = time.Now()
	for _, r := range env.recs {
		m := env.world.SampleCall(r.Src, r.Dst, netsim.DirectOption(), r.THours, rng)
		layerSink += int(m.RTTMs)
	}
	out.layers["netsim.sample_call_ns"] = float64(time.Since(t)) / n

	runOne := func(f family) float64 {
		s := f.build(env)
		t := time.Now()
		env.runner.RunOne(s, env.recs)
		return float64(time.Since(t)) / float64(eligible)
	}
	def := runOne(family{kind: "default"})
	var via, budget []float64
	for _, m := range quality.AllMetrics() {
		via = append(via, runOne(family{kind: "via", metric: m}))
	}
	for _, b := range replayBudgets {
		budget = append(budget, runOne(family{kind: "via-budget", metric: quality.RTT, budget: b}))
	}
	out.layers["sim.harness_ns_per_call"] = def
	out.layers["core.via_ns_per_call"] = mean(via) - def
	out.layers["core.budget_ns_per_call"] = mean(budget) - def

	total := mean(via)
	fmt.Fprintf(os.Stderr, "replay layers, one Via run on one goroutine: %.0f ns per eligible call\n", total)
	// The harness figure includes the options and sampling calls made for
	// every record of the trace; they are listed under it.
	for _, l := range []struct {
		name string
		ns   float64
	}{
		{"sim harness (a default run)", def},
		{"  of which netsim.options", out.layers["netsim.options_ns_per_call"] * n / float64(eligible)},
		{"  of which netsim.sample_call", out.layers["netsim.sample_call_ns"] * n / float64(eligible)},
		{"core (via minus default)", mean(via) - def},
	} {
		fmt.Fprintf(os.Stderr, "  %-34s %10.0f ns %6.1f%%\n", l.name, l.ns, 100*l.ns/total)
	}
}
