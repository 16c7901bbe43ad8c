package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Control workload inputs. The pair universe is zipf-skewed like a call
// floor; each pair offers direct, four bounce and two transit options
// over a 24-relay directory. The warm history spans two 24 h prediction
// epochs so the measured controller starts in epoch 2 with predictions
// built, the steady state the paper's controller serves in.
const (
	ctrlPairs        = 4096
	ctrlZipfS        = 1.1
	ctrlRelays       = 24
	ctrlHistoryPairs = 12000
	ctrlHistoryHours = 49.0
	ctrlOpenRate     = 1000.0 // offered choose+report pairs per second
	ctrlClosedRate   = 6000.0 // pairs per second the closed loop is sized for
	ctrlWarmup       = 2 * time.Second
	ctrlSlice        = time.Second // figures are medians over slices this wide
	// ctrlWALSync is the group-commit window (viactl serve -wal-sync).
	// The log mutex is held across each fsync, and fsync on a shared
	// virtual disk takes 0.4-15 ms and drifts tenfold over minutes: at the
	// 2 ms default the decision figures measure the disk, not the code
	// (choose p90 went from 0.45 to 10 ms between runs of the same seed).
	// At 1 s the stall still shows in bench.latency_p99_us and the
	// wal.fsync metrics.
	ctrlWALSync = time.Second
	ctrlSetups  = 3
	ctrlCoreOps = 20000
)

// ctrlRepairOffer is the repair-scheme candidate list every choose offers.
var ctrlRepairOffer = []string{"none", "nack"}

// ctrlUniverse is the generated request stream: pairs, their candidate
// sets and a ground-truth RTT, plus the zipf sequence of pair indices.
type ctrlUniverse struct {
	src, dst []int32
	cands    [][]netsim.Option
	baseRTT  []float64
	seq      []int32 // power-of-two ring of pair indices
}

func newCtrlUniverse(seed uint64, pairs int) *ctrlUniverse {
	rng := stats.NewRNG(seed).Split("perfbench-control")
	u := &ctrlUniverse{
		src: make([]int32, pairs), dst: make([]int32, pairs),
		cands: make([][]netsim.Option, pairs), baseRTT: make([]float64, pairs),
	}
	for i := 0; i < pairs; i++ {
		u.src[i], u.dst[i] = int32(2*i), int32(2*i+1)
		c := []netsim.Option{netsim.DirectOption()}
		first := rng.IntN(ctrlRelays)
		for k := 0; k < 4; k++ {
			c = append(c, netsim.BounceOption(netsim.RelayID((first+5*k)%ctrlRelays)))
		}
		a, b := netsim.RelayID(first), netsim.RelayID((first+7)%ctrlRelays)
		c = append(c, netsim.TransitOption(a, b), netsim.TransitOption(b, a))
		u.cands[i] = c
		u.baseRTT[i] = 60 + 300*rng.Float64()
	}
	u.seq = make([]int32, 1<<16)
	z := stats.NewZipf(rng.Split("zipf"), pairs, ctrlZipfS)
	for i := range u.seq {
		u.seq[i] = int32(z.Sample())
	}
	return u
}

// pair returns the pair index of request i.
func (u *ctrlUniverse) pair(i uint64) int { return int(u.seq[i&uint64(len(u.seq)-1)]) }

// report synthesizes request i's measurement for the option chosen: a
// relayed option shaves a per-relay fraction off the pair's RTT, and a
// per-request hash adds noise, so learning has something to find.
func (u *ctrlUniverse) report(i uint64, p int, opt netsim.Option) (quality.Metrics, float64) {
	h := (i + 1) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	noise := float64(h%1000) / 1000
	rtt := u.baseRTT[p]
	if opt.IsRelayed() {
		rtt *= 0.6 + 0.03*float64((int(opt.R1)+p)%16)
	}
	m := quality.Metrics{
		RTTMs:    rtt * (0.9 + 0.2*noise),
		LossRate: 0.002 + 0.02*noise*noise,
		JitterMs: 2 + 10*noise,
	}
	return m, 60 + 240*noise
}

func offered(cands []netsim.Option, o netsim.Option) bool {
	for _, c := range cands {
		if c == o {
			return true
		}
	}
	return false
}

// newControlVia is the controller's strategy: Via optimizing RTT with the
// decision counters on a registry, as viactl serve builds it.
func newControlVia(reg *obs.Registry) *core.Via {
	cfg := core.DefaultViaConfig(quality.RTT)
	cfg.Metrics = reg
	return core.NewVia(cfg, nil)
}

// buildHistory writes the warm history into dir through an in-process
// controller whose virtual clock advances one step per request, so the
// records span ctrlHistoryHours whatever the machine's speed.
func buildHistory(dir string, u *ctrlUniverse, n int) error {
	var tick atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	step := time.Duration(ctrlHistoryHours * float64(time.Hour) / float64(2*n))
	clock := func() time.Time { return base.Add(time.Duration(tick.Add(1)) * step) }
	srv, err := controller.Open(controller.Config{
		Strategy: newControlVia(nil), WALDir: dir, Clock: clock, TimeScale: 1.0 / 3600,
	})
	if err != nil {
		return fmt.Errorf("history controller: %w", err)
	}
	h := srv.Handler()
	post := func(path string, body any, resp any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("history %s: status %d", path, rec.Code)
		}
		return json.Unmarshal(rec.Body.Bytes(), resp)
	}
	for i := 0; i < n; i++ {
		p := u.pair(uint64(i) + 1<<40)
		req := transport.ChooseRequest{Src: u.src[p], Dst: u.dst[p], RepairCandidates: ctrlRepairOffer}
		for _, o := range u.cands[p] {
			req.Candidates = append(req.Candidates, transport.ToWireOption(o))
		}
		var cr transport.ChooseResponse
		if err := post("/v1/choose", req, &cr); err != nil {
			srv.Close()
			return err
		}
		opt := cr.Option.Option()
		m, dur := u.report(uint64(i)+1<<40, p, opt)
		var rr transport.ReportResponse
		if err := post("/v1/report", transport.ReportRequest{
			Src: u.src[p], Dst: u.dst[p], Option: transport.ToWireOption(opt),
			Metrics: transport.ToWireMetrics(m), Repair: cr.Repair, DurationSec: dur,
		}, &rr); err != nil {
			srv.Close()
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("history controller close: %w", err)
	}
	return nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// handlerTimer wraps Server.Handler(): it times each request and, keyed
// by the id the client's transport put in a header, records the handler
// span and duration for pairing with the client's round trip.
type handlerTimer struct {
	inner http.Handler
	tr    *tracer
	mu    sync.Mutex
	dur   map[uint64]time.Duration
}

const reqIDHeader = "X-Perfbench-Req"

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	end := time.Now()
	id, err := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
	if err != nil {
		return
	}
	var parent string
	switch r.URL.Path {
	case "/v1/choose":
		parent = "client.choose"
	case "/v1/report":
		parent = "client.report"
	default:
		return
	}
	h.tr.add(id, "controller.handler", parent, start, end)
	h.mu.Lock()
	h.dur[id] = end.Sub(start)
	h.mu.Unlock()
}

func (h *handlerTimer) take(id uint64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.dur[id]
	delete(h.dur, id)
	return d, ok
}

// idTagger is one caller's RoundTripper: it stamps the caller's current
// request id on the outgoing request (traced passes only).
type idTagger struct {
	base http.RoundTripper
	id   uint64
}

func (t *idTagger) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set(reqIDHeader, strconv.FormatUint(t.id, 10))
	return t.base.RoundTrip(r)
}

// ctrlCaller is one generator connection to the controller.
type ctrlCaller struct {
	c   *controller.Client
	tag *idTagger
}

// ctrlRun is the live state of one control pass.
type ctrlRun struct {
	u       *ctrlUniverse
	ht      *handlerTimer
	tr      *tracer
	nextID  atomic.Uint64
	okCh    atomic.Int64 // successful chooses
	okRp    atomic.Int64 // successful reports
	failed  atomic.Int64
	offPath atomic.Int64 // decisions outside the offered set
}

// sample is one timed choose of the open-loop phase.
type sample struct {
	at                time.Time // release
	lat, rtt, handler time.Duration
	paired            bool
}

// pair issues one choose+report pair for request i. ready is when the
// request became due (open loop) or zero (closed loop).
func (cr *ctrlRun) pair(cl *ctrlCaller, i uint64, ready time.Time) (sample, bool) {
	p := cr.u.pair(i)
	id := cr.nextID.Add(1)
	if cl.tag != nil {
		cl.tag.id = id
	}
	t0 := time.Now()
	opt, scheme, err := cl.c.ChooseWithRepair(cr.u.src[p], cr.u.dst[p], cr.u.cands[p], ctrlRepairOffer)
	t1 := time.Now()
	var s sample
	if err != nil {
		cr.failed.Add(1)
		return s, false
	}
	cr.okCh.Add(1)
	if !offered(cr.u.cands[p], opt) {
		cr.offPath.Add(1)
	}
	cr.tr.add(id, "client.choose", "", t0, t1)
	if !ready.IsZero() {
		s.at, s.lat = ready, t1.Sub(ready)
	}
	s.rtt = t1.Sub(t0)
	if cr.ht != nil {
		s.handler, s.paired = cr.ht.take(id)
	}
	m, dur := cr.u.report(i, p, opt)
	rid := cr.nextID.Add(1)
	if cl.tag != nil {
		cl.tag.id = rid
	}
	t2 := time.Now()
	err = cl.c.ReportRepair(cr.u.src[p], cr.u.dst[p], opt, scheme, dur, m)
	t3 := time.Now()
	if err != nil {
		cr.failed.Add(1)
		return s, false
	}
	cr.okRp.Add(1)
	cr.tr.add(rid, "client.report", "", t2, t3)
	if cr.ht != nil {
		cr.ht.take(rid)
	}
	return s, true
}

// closedLoop runs the callers back to back until n pairs have been
// issued and returns the pairs completed.
func (cr *ctrlRun) closedLoop(callers []*ctrlCaller, n int64, cursor *atomic.Uint64) int64 {
	var issued, done atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range callers {
		wg.Add(1)
		go func(cl *ctrlCaller) {
			defer wg.Done()
			for issued.Add(1) <= n {
				if _, ok := cr.pair(cl, cursor.Add(1), time.Time{}); ok {
					done.Add(1)
				}
			}
		}(cl)
	}
	wg.Wait()
	return done.Load()
}

// openLoop releases n requests at a fixed rate and returns one sample per
// completed pair plus the generator's lateness per release.
func (cr *ctrlRun) openLoop(callers []*ctrlCaller, rate float64, n int, cursor *atomic.Uint64) ([]sample, []float64) {
	type job struct {
		i     uint64
		ready time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the dispatcher never blocks
	results := make([][]sample, len(callers))
	var wg sync.WaitGroup
	for k, cl := range callers {
		wg.Add(1)
		go func(k int, cl *ctrlCaller) {
			defer wg.Done()
			for j := range jobs {
				if s, ok := cr.pair(cl, j.i, j.ready); ok {
					results[k] = append(results[k], s)
				}
			}
		}(k, cl)
	}
	lag := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		ready := time.Now()
		lag = append(lag, micros(ready.Sub(due)))
		jobs <- job{cursor.Add(1), ready}
	}
	close(jobs)
	wg.Wait()
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, lag
}

func runControl(o options) (*outcome, error) {
	pairs, history, coreOps, setups := ctrlPairs, ctrlHistoryPairs, ctrlCoreOps, ctrlSetups
	warm := int64(ctrlClosedRate * ctrlWarmup.Seconds())
	phase := o.seconds / 2
	if o.tiny {
		pairs, history, coreOps, setups, warm = 256, 600, 2000, 1, 500
	}
	openN := int(ctrlOpenRate * phase)
	closedN := int64(ctrlClosedRate * phase)
	if o.tiny {
		closedN = 1000
	}
	nproc := runtime.GOMAXPROCS(0)
	out := newOutcome()
	out.headline = "latency_p50_us"
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out.spans = tr

	u := newCtrlUniverse(o.seed, pairs)
	tmp, err := os.MkdirTemp(o.out, "control-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	histDir := filepath.Join(tmp, "history")
	if err := buildHistory(histDir, u, history); err != nil {
		return nil, err
	}

	// Set-up: open the durable controller on a copy of the history (WAL
	// recovery included), several times; the last one serves the run.
	var srv *controller.Server
	var reg *obs.Registry
	var walDir string
	var openS []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, fmt.Errorf("close controller: %w", err)
			}
		}
		walDir = filepath.Join(tmp, fmt.Sprintf("wal-%d", i))
		if err := copyDir(histDir, walDir); err != nil {
			return nil, fmt.Errorf("copy history: %w", err)
		}
		reg = obs.NewRegistry()
		t := time.Now()
		srv, err = controller.Open(controller.Config{
			Strategy: newControlVia(reg), WALDir: walDir, Metrics: reg, WALSyncInterval: ctrlWALSync,
		})
		if err != nil {
			return nil, fmt.Errorf("open controller: %w", err)
		}
		openS = append(openS, time.Since(t).Seconds())
	}
	out.e2e["setup_s"] = median(openS)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	cln := &countingListener{Listener: ln}
	var h http.Handler = srv.Handler()
	cr := &ctrlRun{u: u, tr: tr}
	if o.trace {
		cr.ht = &handlerTimer{inner: h, tr: tr, dur: map[uint64]time.Duration{}}
		h = cr.ht
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(cln) }()
	url := "http://" + ln.Addr().String()

	// nproc callers share one transport capped at nproc connections.
	rt := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	callers := make([]*ctrlCaller, nproc)
	for k := range callers {
		c := controller.NewClient(url)
		cl := &ctrlCaller{c: c}
		var base http.RoundTripper = rt
		if o.trace {
			cl.tag = &idTagger{base: rt}
			base = cl.tag
		}
		c.HTTP = &http.Client{Transport: base, Timeout: 30 * time.Second}
		callers[k] = cl
	}

	var cursor atomic.Uint64
	cr.closedLoop(callers, warm, &cursor)

	cpu0, openStart := cpuTime(), time.Now()
	samples, lag := cr.openLoop(callers, ctrlOpenRate, openN, &cursor)
	openCPU := cpuTime() - cpu0

	rpc0, acc0 := cr.okCh.Load()+cr.okRp.Load(), cln.accepts.Load()
	lsn0 := srv.AppliedLSN()
	mem1, t1 := readMem(), time.Now()
	smp := startSampler(ctrlSlice, cr.okRp.Load)
	done := cr.closedLoop(callers, closedN, &cursor)
	rate, cpuPer := smp.finish(ctrlSlice, time.Time{}, time.Time{})
	elapsed, mem := time.Since(t1), readMem().since(mem1)
	lsn1 := srv.AppliedLSN()
	rpcs, accepts := cr.okCh.Load()+cr.okRp.Load()-rpc0, cln.accepts.Load()-acc0

	st, statsErr := callers[0].c.Stats()
	state, stateErr := srv.StrategyState()
	snap := reg.Snapshot()
	if err := hs.Close(); err != nil {
		return nil, fmt.Errorf("http close: %w", err)
	}
	if err := <-served; err != nil && err != http.ErrServerClosed {
		return nil, fmt.Errorf("http serve: %w", err)
	}
	rt.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		return nil, fmt.Errorf("close controller: %w", err)
	}

	// End-to-end: open-loop choose latency from release, closed-loop rate,
	// each a median over one-second slices.
	lat := make([]float64, 0, len(samples))
	at := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		lat = append(lat, micros(s.lat))
		at = append(at, s.at.Sub(openStart))
	}
	minN := int(ctrlOpenRate * ctrlSlice.Seconds() / 2)
	if o.tiny {
		minN = 1
	}
	q := sliceQuantiles(at, lat, ctrlSlice, 0, 1<<62, minN, 0.50, 0.90, 0.99)
	out.e2e["latency_p50_us"] = q[0]
	out.layers["bench.latency_p90_us"] = q[1]
	out.layers["bench.latency_p99_us"] = q[2]
	out.e2e["ops_per_s"] = rate
	out.e2e["cpu_us_per_op"] = cpuPer
	out.e2e["peak_rss_mb"] = peakRSSMB()

	// Per-layer.
	if o.trace {
		var hd, ov []float64
		for _, s := range samples {
			if s.paired {
				hd = append(hd, micros(s.handler))
				ov = append(ov, micros(s.rtt-s.handler))
			}
		}
		out.layers["controller.handler_p50_us"] = quantile(hd, 0.50)
		out.layers["controller.handler_p99_us"] = quantile(hd, 0.99)
		out.layers["controller.client_overhead_p50_us"] = quantile(ov, 0.50)
		choose, observe := standaloneCore(u, history, coreOps)
		out.layers["core.choose_ns"] = choose
		out.layers["core.observe_ns"] = observe
	}
	out.layers["controller.generator_lag_us"] = quantile(lag, 0.50)
	out.layers["wal.fsync_p50_ms"] = 1000 * snap["via_wal_fsync_seconds_p50"]
	out.layers["wal.fsync_p99_ms"] = 1000 * snap["via_wal_fsync_seconds_p99"]
	out.layers["proc.allocs_per_decision"] = float64(mem.mallocs) / float64(done)
	out.layers["proc.cpu_us_per_decision"] = micros(openCPU) / float64(len(samples))
	frameBytes, err := meanFrameBytes(walDir)
	if err != nil {
		return nil, err
	}
	if done > 0 {
		out.layers["wal.bytes_per_decision"] = frameBytes * float64(lsn1-lsn0) / float64(done)
	}

	// Operations: every choose and report, plus reopening the WAL after
	// the run.
	reopenFailed, replayOK, detail := reopenCheck(walDir, tmp, state, stateErr)
	out.attempted = cr.okCh.Load() + cr.okRp.Load() + cr.failed.Load() + 1
	out.failed = cr.failed.Load()
	if reopenFailed {
		out.failed++
	}

	fmt.Fprintf(os.Stderr, "control: wal fsync p50 %.3f ms p99 %.3f ms over %.0f fsyncs; closed loop %d pairs in %.1fs\n",
		1000*snap["via_wal_fsync_seconds_p50"], 1000*snap["via_wal_fsync_seconds_p99"],
		snap["via_wal_fsync_seconds_count"], done, elapsed.Seconds())
	// Output checks.
	out.check("control.offered", cr.offPath.Load() == 0,
		"%d of %d decisions outside the offered candidates", cr.offPath.Load(), cr.okCh.Load())
	statsOK := statsErr == nil && st.Chooses == cr.okCh.Load() && st.Reports == cr.okRp.Load()
	out.check("control.stats", statsOK,
		"/v1/stats chooses=%d reports=%d vs generator %d/%d (err %v)",
		st.Chooses, st.Reports, cr.okCh.Load(), cr.okRp.Load(), statsErr)
	out.check("control.wal-replay", replayOK, "%s", detail)
	out.check("control.phases", len(samples) == openN && done == closedN,
		"%d/%d open-loop pairs at %.0f/s, %d/%d closed-loop pairs in %.1fs, %.3f conns per 1k RPCs",
		len(samples), openN, ctrlOpenRate, done, closedN, elapsed.Seconds(), 1000*float64(accepts)/float64(rpcs))
	return out, nil
}

// reopenCheck reopens the run's WAL with a fresh strategy and compares
// the recovered state with the state captured before the run's
// controller closed; ok is true only if they are byte-identical.
//
// Reopening the directory as it stands is one operation, and it fails on
// every full run: wal.Open demands that the first segment start at LSN 1,
// but the snapshots' TruncateBefore has deleted the segments they cover
// (see CHANGES.md). That failure, and no other, is counted in opFailed;
// any other reopen error fails the check. The states are then compared
// on a copy whose truncated prefix is filled with placeholder records up
// to the first surviving segment. The latest snapshot covers every
// placeholder, so recovery replays none of them; they carry a record
// type the controller does not know, so replaying one fails the reopen.
func reopenCheck(dir, scratch string, want []byte, wantErr error) (opFailed, ok bool, detail string) {
	if wantErr != nil {
		return false, false, "capture state: " + wantErr.Error()
	}
	got, err := reopenState(dir)
	if err == nil {
		ok = bytes.Equal(got, want)
		return false, ok, fmt.Sprintf("reopened WAL state %d bytes, live state %d bytes, identical=%v",
			len(got), len(want), ok)
	}
	first, snapLSN, known := truncatedPrefix(dir, err)
	if !known {
		return true, false, "reopen failed: " + err.Error()
	}
	padded := filepath.Join(scratch, "wal-padded")
	if perr := copyDir(dir, padded); perr != nil {
		return true, false, "copy wal: " + perr.Error()
	}
	if perr := writePlaceholders(padded, first-1); perr != nil {
		return true, false, "pad wal: " + perr.Error()
	}
	got, perr := reopenState(padded)
	if perr != nil {
		return true, false, fmt.Sprintf("reopen failed (%v); reopen with LSNs 1-%d padded failed too: %v", err, first-1, perr)
	}
	ok = bytes.Equal(got, want)
	return true, ok, fmt.Sprintf("reopen failed on the truncated prefix (counted as a failed operation: %v); "+
		"with LSNs 1-%d padded under snapshot %d, reopened state %d bytes, live state %d bytes, identical=%v",
		err, first-1, snapLSN, len(got), len(want), ok)
}

// reopenState opens a durable controller on dir with a fresh strategy
// and returns its strategy state.
func reopenState(dir string) ([]byte, error) {
	srv, err := controller.Open(controller.Config{Strategy: newControlVia(nil), WALDir: dir, WALSyncInterval: ctrlWALSync})
	if err != nil {
		return nil, err
	}
	got, err := srv.StrategyState()
	if cerr := srv.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close reopened controller: %w", cerr)
	}
	return got, err
}

// truncatedPrefix reports whether a reopen error is the one a truncated
// WAL prefix causes: wal.Open's contiguity error, a first segment that
// starts after LSN 1, and a snapshot (in the controller's "snapshots"
// subdirectory) that covers every record before it.
func truncatedPrefix(dir string, reopenErr error) (first, snapLSN uint64, known bool) {
	if !strings.Contains(reopenErr.Error(), "gap or overlap") {
		return 0, 0, false
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		return 0, 0, false
	}
	sort.Strings(segs) // names are fixed-width hex first LSNs
	first, err = strconv.ParseUint(strings.TrimSuffix(filepath.Base(segs[0]), ".wal"), 16, 64)
	if err != nil || first <= 1 {
		return 0, 0, false
	}
	snapLSN, _, ok, err := wal.LatestSnapshot(filepath.Join(dir, "snapshots"))
	if err != nil || !ok || snapLSN+1 < first {
		return 0, 0, false
	}
	return first, snapLSN, true
}

// placeholderType is a WAL record type the controller does not apply.
const placeholderType wal.Type = 0xff

// writePlaceholders writes a segment holding LSNs 1..n, each a
// placeholder record.
func writePlaceholders(dir string, n uint64) error {
	var buf []byte
	for i := uint64(0); i < n; i++ {
		buf = wal.EncodeFrame(buf, wal.Record{Type: placeholderType})
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x.wal", 1)), buf, 0o644)
}

// meanFrameBytes is the mean encoded size of the records in a WAL
// directory's segments, read straight from the files.
func meanFrameBytes(dir string) (float64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return 0, fmt.Errorf("list wal segments: %w", err)
	}
	var n, sum int
	for _, path := range segs {
		buf, err := os.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("read wal segment: %w", err)
		}
		for off := 0; off < len(buf); {
			_, adv, err := wal.DecodeFrame(buf[off:])
			if err != nil {
				break
			}
			off += adv
			sum += adv
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(sum) / float64(n), nil
}

// standaloneCore feeds a fresh Via the same request stream in-process: the
// warm history over two epochs, then timed decisions in epoch 2. It
// returns ns per Choose (+ChooseRepair) and per Observe (+ObserveRepair).
func standaloneCore(u *ctrlUniverse, history, ops int) (float64, float64) {
	v := newControlVia(nil)
	step := ctrlHistoryHours / float64(history)
	for i := 0; i < history; i++ {
		p := u.pair(uint64(i) + 1<<40)
		c := core.Call{Src: netsim.ASID(u.src[p]), Dst: netsim.ASID(u.dst[p]), THours: float64(i) * step}
		opt := v.Choose(c, u.cands[p])
		scheme := v.ChooseRepair(c, opt, ctrlRepairOffer)
		m, dur := u.report(uint64(i)+1<<40, p, opt)
		c.DurationSec = dur
		v.Observe(c, opt, m)
		v.ObserveRepair(c, opt, scheme, m)
	}
	var tc, to time.Duration
	for i := 0; i < ops; i++ {
		p := u.pair(uint64(i))
		c := core.Call{Src: netsim.ASID(u.src[p]), Dst: netsim.ASID(u.dst[p]), THours: ctrlHistoryHours + 0.5}
		t0 := time.Now()
		opt := v.Choose(c, u.cands[p])
		scheme := v.ChooseRepair(c, opt, ctrlRepairOffer)
		t1 := time.Now()
		m, dur := u.report(uint64(i), p, opt)
		c.DurationSec = dur
		t2 := time.Now()
		v.Observe(c, opt, m)
		v.ObserveRepair(c, opt, scheme, m)
		t3 := time.Now()
		tc += t1.Sub(t0)
		to += t3.Sub(t2)
	}
	return float64(tc) / float64(ops), float64(to) / float64(ops)
}
