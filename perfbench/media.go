package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/relay"
	"repro/internal/rtp"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wan"
)

// Media workload inputs: calls arrive on a jittered grid, one at a
// uniform offset inside each 1/rate slot, so the number of calls in
// flight stays at rate × duration (a Poisson process would swing it by
// ±√150 with the seed and move every media figure with it). Each call is
// one G.711 call of 50
// packets per second × 160 B for three seconds with NACK repair, over
// shapers that drop 1% of every node's datagrams and add no delay. At 50
// calls/s this keeps about 150 calls in flight with the CPU well below
// saturation on two cores.
const (
	mediaRelays    = 3
	mediaAgents    = 4
	mediaRate      = 50.0 // call arrivals per second
	mediaCallDur   = 3 * time.Second
	mediaPPS       = 50
	mediaPayload   = 160
	mediaLoss      = 0.01
	mediaTail      = 4 * time.Second        // arrivals stop this long before the window ends
	mediaSlice     = 250 * time.Millisecond // steady-state figures are medians over slices this wide
	mediaSetups    = 101                    // a deployment starts in about a millisecond
	mediaSpanEvery = 16                     // one media frame in 16 gets a traced span
	// mediaNATShare of calls have no direct path, so the controller must
	// pick a relayed option for them. A fresh controller has no history
	// and keeps nearly every call with a direct path on it; without this
	// share the relays would carry only the ε-exploration calls.
	mediaNATShare = 0.6
)

// mediaScheme is the repair scheme every call offers the controller.
var mediaOffer = []string{"nack"}

// mediaLedger is the benchmark's record of what the socket wrappers saw.
type mediaLedger struct {
	tr   *tracer   // nil unless traced
	base time.Time // monotonic origin for per-packet stamps

	calls     sync.Map // session id -> *callRec
	unclaimed atomic.Int64
	delivered atomic.Int64 // media frames that reached their callee (first copies)

	mediaWrites, hdrBytes atomic.Int64 // caller media frames and their header bytes
	sendNs, sendN         atomic.Int64 // traced: time inside agent WriteTo
	recvBusyNs, recvN     atomic.Int64 // traced: agent read loop busy time
	relayBusyNs, relayN   atomic.Int64 // traced: relay busy time between reads
}

func (l *mediaLedger) now() int64 { return int64(time.Since(l.base)) }

// callRec is one call's wire-level accounting, keyed by its session.
type callRec struct {
	mu      sync.Mutex
	claimed bool
	writeAt []int64 // last write time per RTP seq
	writes  []uint8 // writes per seq (originals plus retransmits)
	firstW  []uint8 // writes seen when the seq first arrived; 0 = never
	written int     // media frames the caller wrote
	read    int     // media frames the callee read
	lat     []float64
	latAt   []int64 // arrival stamp of each lat sample
	reports []rtp.ReceiverReport
}

func newCallRec(n int) *callRec {
	return &callRec{writeAt: make([]int64, n), writes: make([]uint8, n), firstW: make([]uint8, n),
		lat: make([]float64, 0, n), latAt: make([]int64, 0, n)}
}

var framePool = sync.Pool{New: func() any { return new(transport.Frame) }}

// rtpSeq reads the sequence number of an RTP packet (RFC 3550 bytes 2-3).
func rtpSeq(pkt []byte) (int, bool) {
	if len(pkt) < 12 {
		return 0, false
	}
	return int(pkt[2])<<8 | int(pkt[3]), true
}

// pktConn wraps the net.PacketConn (a wan.Shaper) handed to a relay or an
// agent. It counts datagrams and, for agents, attributes media frames to
// calls so latency and loss can be matched on (session, RTP seq).
type pktConn struct {
	net.PacketConn
	led   *mediaLedger
	relay bool
	claim chan *callRec // agents: the call that is about to send its first frame

	reads, writes atomic.Int64
	lastRet       int64  // read loop only: when the previous ReadFrom returned
	pendID        uint64 // relay, traced: frame span awaiting its busy end
	readF         transport.Frame
}

func (c *pktConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.writes.Add(1)
	if !c.relay {
		c.noteWrite(b)
	}
	if c.led.tr == nil || c.relay {
		return c.PacketConn.WriteTo(b, addr)
	}
	t := time.Now()
	n, err := c.PacketConn.WriteTo(b, addr)
	c.led.sendNs.Add(int64(time.Since(t)))
	c.led.sendN.Add(1)
	return n, err
}

// noteWrite attributes a caller-side frame to its call: the first frame of
// an unknown session takes the call waiting in the agent's claim slot.
func (c *pktConn) noteWrite(b []byte) {
	f := framePool.Get().(*transport.Frame)
	defer framePool.Put(f)
	if f.Unmarshal(b) != nil || (f.Kind != transport.KindMedia && f.Kind != transport.KindKeepalive) {
		return
	}
	v, ok := c.led.calls.Load(f.Session)
	if !ok {
		select {
		case rec := <-c.claim:
			rec.mu.Lock()
			rec.claimed = true
			rec.mu.Unlock()
			c.led.calls.Store(f.Session, rec)
			v = rec
		default:
			c.led.unclaimed.Add(1)
			return
		}
	}
	if f.Kind != transport.KindMedia {
		return
	}
	seq, ok := rtpSeq(f.Payload)
	if !ok {
		return
	}
	c.led.mediaWrites.Add(1)
	c.led.hdrBytes.Add(int64(len(b) - len(f.Payload)))
	rec := v.(*callRec)
	now := c.led.now()
	rec.mu.Lock()
	rec.written++
	if seq < len(rec.writes) {
		rec.writes[seq]++
		rec.writeAt[seq] = now
	}
	rec.mu.Unlock()
}

func (c *pktConn) ReadFrom(b []byte) (int, net.Addr, error) {
	if c.led.tr != nil && c.lastRet != 0 {
		busy := c.led.now() - c.lastRet
		if c.relay {
			c.led.relayBusyNs.Add(busy)
			c.led.relayN.Add(1)
			if c.pendID != 0 {
				c.led.tr.add(c.pendID, "relay.busy", "media.frame",
					c.led.base.Add(time.Duration(c.lastRet)), c.led.base.Add(time.Duration(c.lastRet+busy)))
				c.pendID = 0
			}
		} else {
			c.led.recvBusyNs.Add(busy)
			c.led.recvN.Add(1)
		}
	}
	n, addr, err := c.PacketConn.ReadFrom(b)
	if err != nil {
		return n, addr, err
	}
	c.reads.Add(1)
	c.lastRet = c.led.now()
	if c.relay {
		if c.led.tr != nil {
			c.notePassing(b[:n])
		}
	} else {
		c.noteRead(b[:n], c.lastRet)
	}
	return n, addr, err
}

// notePassing remembers a sampled media frame crossing a relay so its
// busy interval becomes a child span of the frame.
func (c *pktConn) notePassing(b []byte) {
	f := &c.readF
	if f.Unmarshal(b) != nil || f.Kind != transport.KindMedia {
		return
	}
	if seq, ok := rtpSeq(f.Payload); ok && seq%mediaSpanEvery == 0 {
		c.pendID = frameID(f.Session, seq)
	}
}

func frameID(session uint64, seq int) uint64 { return session*65599 + uint64(seq) + 1 }

// noteRead matches a media frame arriving at its callee with its write,
// and keeps the receiver reports arriving at the caller.
func (c *pktConn) noteRead(b []byte, now int64) {
	f := &c.readF
	if f.Unmarshal(b) != nil || f.NextHop() != nil {
		return
	}
	v, ok := c.led.calls.Load(f.Session)
	if !ok {
		return
	}
	rec := v.(*callRec)
	switch f.Kind {
	case transport.KindMedia:
		seq, ok := rtpSeq(f.Payload)
		if !ok {
			return
		}
		rec.mu.Lock()
		rec.read++
		var sent int64 = -1
		if seq < len(rec.writes) && rec.firstW[seq] == 0 && rec.writes[seq] > 0 {
			rec.firstW[seq] = rec.writes[seq]
			sent = rec.writeAt[seq]
			rec.lat = append(rec.lat, float64(now-sent)/1e3)
			rec.latAt = append(rec.latAt, now)
		}
		rec.mu.Unlock()
		if sent >= 0 {
			c.led.delivered.Add(1)
		}
		if sent >= 0 && c.led.tr != nil && seq%mediaSpanEvery == 0 {
			c.led.tr.add(frameID(f.Session, seq), "media.frame", "",
				c.led.base.Add(time.Duration(sent)), c.led.base.Add(time.Duration(now)))
		}
	case transport.KindReport:
		var rr rtp.ReceiverReport
		if rr.Unmarshal(f.Payload) != nil {
			return
		}
		rec.mu.Lock()
		rec.reports = append(rec.reports, rr)
		rec.mu.Unlock()
	}
}

// mediaDeploy is one loopback deployment built from public parts.
type mediaDeploy struct {
	reg     *obs.Registry
	srv     *controller.Server
	hs      *http.Server
	served  chan error
	rt      *http.Transport
	ctl     *controller.Client
	relays  []*relay.Node
	rconns  []*pktConn
	rwg     sync.WaitGroup
	agents  []*client.Agent
	aconns  []*pktConn
	shapers []*wan.Shaper
}

func startMedia(seed uint64, led *mediaLedger) (*mediaDeploy, error) {
	d := &mediaDeploy{reg: obs.NewRegistry(), served: make(chan error, 1)}
	cfg := core.DefaultViaConfig(quality.RTT)
	cfg.Metrics = d.reg
	d.srv = controller.New(controller.Config{Strategy: core.NewVia(cfg, nil), Metrics: d.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	nproc := runtime.GOMAXPROCS(0)
	d.rt = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	d.ctl = controller.NewClient("http://" + ln.Addr().String())
	d.ctl.HTTP = &http.Client{Transport: d.rt, Timeout: 30 * time.Second}

	shaped := func(salt uint64) (*wan.Shaper, error) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen udp: %w", err)
		}
		sh := wan.Wrap(pc, seed^salt)
		sh.SetDefault(wan.LinkParams{LossRate: mediaLoss})
		d.shapers = append(d.shapers, sh)
		return sh, nil
	}
	for i := 0; i < mediaRelays; i++ {
		sh, err := shaped(uint64(i+1) << 8)
		if err != nil {
			d.close()
			return nil, err
		}
		pc := &pktConn{PacketConn: sh, led: led, relay: true}
		node := relay.New(netsim.RelayID(i), pc)
		node.RegisterMetrics(d.reg)
		d.relays = append(d.relays, node)
		d.rconns = append(d.rconns, pc)
		d.rwg.Add(1)
		go func() {
			defer d.rwg.Done()
			//vialint:ignore errwrap Serve returns nil on Close; an early error shows up as missing forwarding in the checks
			_ = node.Serve()
		}()
		if err := d.ctl.RegisterRelay(node.ID(), node.Addr().String()); err != nil {
			d.close()
			return nil, fmt.Errorf("register relay: %w", err)
		}
	}
	for i := 0; i < mediaAgents; i++ {
		sh, err := shaped(uint64(i+1) << 16)
		if err != nil {
			d.close()
			return nil, err
		}
		pc := &pktConn{PacketConn: sh, led: led, claim: make(chan *callRec, 1)}
		ag := client.New(int32(i+1), pc, seed+uint64(i)*7919)
		ag.RegisterMetrics(d.reg, strconv.Itoa(i+1))
		d.agents = append(d.agents, ag)
		d.aconns = append(d.aconns, pc)
	}
	dir, err := d.ctl.Relays()
	if err != nil {
		d.close()
		return nil, fmt.Errorf("relay directory: %w", err)
	}
	for _, ag := range d.agents {
		if err := ag.SetRelays(dir); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// close stops every component and waits for the relay loops and the HTTP
// server to return.
func (d *mediaDeploy) close() {
	for _, ag := range d.agents {
		//vialint:ignore errwrap teardown; the socket close error has no consequence here
		_ = ag.Close()
	}
	for _, r := range d.relays {
		//vialint:ignore errwrap teardown; the socket close error has no consequence here
		_ = r.Close()
	}
	d.rwg.Wait()
	if d.hs != nil {
		//vialint:ignore errwrap teardown of a loopback listener
		_ = d.hs.Close()
		<-d.served
	}
	if d.rt != nil {
		d.rt.CloseIdleConnections()
	}
	if d.srv != nil {
		//vialint:ignore errwrap in-memory controller: Close has nothing to flush
		_ = d.srv.Close()
	}
}

// callPlan is one generated call.
type callPlan struct {
	at       time.Duration // arrival offset
	from, to int
	natted   bool // no direct path: only relayed candidates are offered
}

func planCalls(seed uint64, n int, window time.Duration) []callPlan {
	rng := stats.NewRNG(seed).Split("perfbench-media")
	slot := window / time.Duration(n)
	plans := make([]callPlan, n)
	for i := range plans {
		from := rng.IntN(mediaAgents)
		to := (from + 1 + rng.IntN(mediaAgents-1)) % mediaAgents
		at := time.Duration(i)*slot + time.Duration(rng.Float64()*float64(slot))
		plans[i] = callPlan{at: at, from: from, to: to, natted: rng.Float64() < mediaNATShare}
	}
	return plans
}

func mediaCandidates(natted bool) []netsim.Option {
	relayed := []netsim.Option{
		netsim.BounceOption(0), netsim.BounceOption(1), netsim.BounceOption(2),
		netsim.TransitOption(0, 1), netsim.TransitOption(1, 2),
	}
	if natted {
		return relayed
	}
	return append([]netsim.Option{netsim.DirectOption()}, relayed...)
}

// callResult is what one call's goroutine measured.
type callResult struct {
	rec        *callRec
	ok         bool // decision, stream with feedback, and report all succeeded
	noFeedback bool
	loss       float64
	lag        time.Duration // release − due
	setup, rpc time.Duration // release → decision; choose round trip
	end        time.Time
}

func (d *mediaDeploy) call(k int, p callPlan, due, ready time.Time, led *mediaLedger, frames int) callResult {
	r := callResult{lag: ready.Sub(due)}
	cands := mediaCandidates(p.natted)
	src, dst := int32(p.from+1), int32(p.to+1)
	id := uint64(k) | 1<<62
	t0 := time.Now()
	opt, scheme, err := d.ctl.ChooseWithRepair(src, dst, cands, mediaOffer)
	t1 := time.Now()
	r.setup, r.rpc = t1.Sub(ready), t1.Sub(t0)
	led.tr.add(id, "client.choose_rpc", "call", t0, t1)
	if err != nil || !offered(cands, opt) {
		r.end = time.Now()
		return r
	}
	sch := rtp.SchemeNone
	if scheme != "" {
		if sch, err = rtp.ParseScheme(scheme); err != nil {
			r.end = time.Now()
			return r
		}
	}
	rec := newCallRec(frames)
	r.rec = rec
	caller := d.aconns[p.from]
	caller.claim <- rec
	out, err := d.agents[p.from].CallResilient(client.CallSpec{
		Peer: d.agents[p.to].Addr(), Option: opt, Duration: mediaCallDur,
		PPS: mediaPPS, PayloadBytes: mediaPayload, Repair: sch,
	})
	rec.mu.Lock()
	claimed := rec.claimed
	rec.mu.Unlock()
	if !claimed {
		<-caller.claim // the call never sent a frame: its record still holds the slot
	}
	t2 := time.Now()
	led.tr.add(id, "client.stream", "call", t1, t2)
	if err != nil {
		r.noFeedback = errors.Is(err, client.ErrNoFeedback)
		r.end = t2
		return r
	}
	r.loss = out.Metrics.LossRate
	err = d.ctl.ReportRepair(src, dst, out.Used, scheme, mediaCallDur.Seconds(), out.Metrics)
	r.end = time.Now()
	led.tr.add(id, "client.report_rpc", "call", t2, r.end)
	led.tr.add(id, "call", "", ready, r.end)
	r.ok = err == nil
	return r
}

func runMedia(o options) (*outcome, error) {
	setups := mediaSetups
	window := time.Duration(o.seconds*float64(time.Second)) - mediaTail
	if o.tiny {
		setups = 1
	}
	if window < time.Second {
		window = time.Second
	}
	n := int(mediaRate * window.Seconds())
	if o.tiny {
		n = 10
	}
	frames := int(mediaCallDur / (time.Second / mediaPPS))
	out := newOutcome()
	out.headline = "latency_p50_us"
	led := &mediaLedger{base: time.Now()}
	if o.trace {
		led.tr = newTracer()
	}
	out.spans = led.tr

	var d *mediaDeploy
	var startS []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		// Collect the previous deployments' garbage first: a collection
		// that lands inside a millisecond-long start would time the
		// collector, not the start.
		runtime.GC()
		t := time.Now()
		var err error
		if d, err = startMedia(o.seed, led); err != nil {
			return nil, err
		}
		startS = append(startS, time.Since(t).Seconds())
	}
	out.e2e["setup_s"] = median(startS)

	plans := planCalls(o.seed, n, window)
	results := make([]callResult, n)
	var wg sync.WaitGroup
	mem0, cpu0, start := readMem(), cpuTime(), time.Now()
	smp := startSampler(mediaSlice, led.delivered.Load)
	for k, p := range plans {
		due := start.Add(p.at)
		sleepUntil(due)
		ready := time.Now()
		wg.Add(1)
		go func(k int, p callPlan) {
			defer wg.Done()
			results[k] = d.call(k, p, due, ready, led, frames)
		}(k, p)
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond) // let the last datagrams in flight land
	end := start
	for _, r := range results {
		if r.end.After(end) {
			end = r.end
		}
	}
	// Steady state: from the first call's end to the last arrival, the
	// calls in flight stay near rate × duration.
	steadyFrom, steadyTo := mediaCallDur, window
	if o.tiny || steadyTo <= steadyFrom {
		steadyFrom, steadyTo = 0, end.Sub(start) // a run too short to settle
	}
	frameRate, cpuPerFrame := smp.finish(mediaSlice, start.Add(steadyFrom), start.Add(steadyTo))
	elapsed, cpu, mem := end.Sub(start), cpuTime()-cpu0, readMem().since(mem0)
	snap := d.reg.Snapshot()
	var nacks int64
	for _, ag := range d.agents {
		nacks += ag.NacksSent()
	}
	d.close()

	// Per-call accounting.
	var lat, lag, setup, rpc []float64
	var latAt []time.Duration
	offset := start.Sub(led.base)
	var delivered, completed, noFeedback, overLoss, unmatched int
	var repaired, residual int
	for _, r := range results {
		lag = append(lag, micros(r.lag))
		if r.rpc > 0 {
			setup = append(setup, micros(r.setup))
			rpc = append(rpc, micros(r.rpc))
		}
		if r.noFeedback {
			noFeedback++
		}
		if r.ok {
			completed++
		}
		if r.rec == nil {
			continue
		}
		rec := r.rec
		rec.mu.Lock()
		lat = append(lat, rec.lat...)
		for _, t := range rec.latAt {
			latAt = append(latAt, time.Duration(t)-offset)
		}
		for s, fw := range rec.firstW {
			switch {
			case fw > 1:
				repaired++
				delivered++
			case fw == 1:
				delivered++
			case rec.writes[s] > 0:
				residual++
			}
		}
		if r.ok {
			drops := rec.written - rec.read
			found := false
			for _, rr := range rec.reports {
				if lossOf(rr) == r.loss {
					found = true
					if int(rr.CumLost) > drops {
						overLoss++
					}
				}
			}
			if !found {
				unmatched++
			}
		}
		rec.mu.Unlock()
	}
	failed := int64(n - completed)
	out.attempted = int64(n)
	out.failed = failed

	minN := 500
	if o.tiny {
		minN = 50
	}
	q := sliceQuantiles(latAt, lat, mediaSlice, steadyFrom, steadyTo, minN, 0.50, 0.90, 0.99)
	out.e2e["ops_per_s"] = frameRate
	out.e2e["latency_p50_us"] = q[0]
	out.layers["bench.latency_p90_us"] = q[1]
	out.layers["bench.latency_p99_us"] = q[2]
	out.e2e["cpu_us_per_op"] = cpuPerFrame * float64(frames)
	out.e2e["peak_rss_mb"] = peakRSSMB()

	var forwarded, dropped, relayReads int64
	relayOK := true
	var relayDetail string
	for i, node := range d.relays {
		pk, _, dr := node.Stats()
		id := strconv.Itoa(i)
		consumed := int64(snap[obs.L("via_relay_keepalives_total", "relay", id)] +
			snap[obs.L("via_path_validation_successes_total", "relay", id)] +
			snap[obs.L("via_path_validation_failures_total", "relay", id)] +
			snap[obs.L("via_relay_drain_rejected_total", "relay", id)])
		reads := d.rconns[i].reads.Load()
		if reads != pk+dr+consumed {
			relayOK = false
		}
		relayDetail += fmt.Sprintf(" r%d read=%d fwd=%d drop=%d consumed=%d;", i, reads, pk, dr, consumed)
		forwarded += pk
		dropped += dr
		relayReads += reads
	}
	var writes, drops int64
	lossOK := true
	for i, sh := range d.shapers {
		var w int64
		if i < mediaRelays {
			w = d.rconns[i].writes.Load()
		} else {
			w = d.aconns[i-mediaRelays].writes.Load()
		}
		if !binomialOK(sh.LossDrops(), w, mediaLoss) {
			lossOK = false
		}
		writes += w
		drops += sh.LossDrops()
	}

	if o.trace {
		if led.relayN.Load() > 0 {
			out.layers["relay.busy_ns_per_pkt"] = float64(led.relayBusyNs.Load()) / float64(led.relayN.Load())
		}
		if led.sendN.Load() > 0 {
			out.layers["client.send_ns_per_pkt"] = float64(led.sendNs.Load()) / float64(led.sendN.Load())
		}
		if led.recvN.Load() > 0 {
			out.layers["client.recv_busy_ns_per_pkt"] = float64(led.recvBusyNs.Load()) / float64(led.recvN.Load())
		}
	}
	out.layers["client.generator_lag_us"] = quantile(lag, 0.50)
	out.layers["client.choose_rpc_p50_us"] = quantile(rpc, 0.50)
	out.layers["client.call_setup_p50_us"] = quantile(setup, 0.50)
	out.layers["client.call_setup_p99_us"] = quantile(setup, 0.99)
	if completed > 0 {
		out.layers["relay.pkts_per_call"] = float64(forwarded) / float64(completed)
		out.layers["rtp.nacks_per_call"] = float64(nacks) / float64(completed)
	}
	out.layers["relay.dropped"] = float64(dropped)
	if w := led.mediaWrites.Load(); w > 0 {
		out.layers["transport.wire_bytes_per_media_pkt"] = float64(led.hdrBytes.Load()) / float64(w)
		out.layers["proc.allocs_per_pkt"] = float64(mem.mallocs) / float64(w)
	}
	if repaired+residual > 0 {
		out.layers["rtp.repaired_fraction"] = float64(repaired) / float64(repaired+residual)
	}
	out.layers["wan.loss_drops"] = float64(drops)
	out.layers["proc.gc_cycles"] = float64(mem.gcs)

	out.check("media.feedback", noFeedback == 0,
		"%d of %d calls ended without receiver feedback", noFeedback, n)
	out.check("media.relay-accounting", relayOK,
		"relay reads = forwarded + dropped + consumed:%s", relayDetail)
	out.check("media.injected-loss", lossOK,
		"shapers dropped %d of %d datagrams (%.4f; configured %.2f, 5-sigma binomial bound per shaper)",
		drops, writes, float64(drops)/float64(writes), mediaLoss)
	out.check("media.loss-after-nack", overLoss == 0 && unmatched == 0 && led.unclaimed.Load() == 0,
		"%d calls reported more loss than their path dropped; %d calls' loss matched no receiver report; %d frames unattributed",
		overLoss, unmatched, led.unclaimed.Load())
	fmt.Fprintf(os.Stderr, "media: %d calls in %.1fs, %d completed, %d frames delivered, repaired %d of %d injected media losses; whole-run CPU %.0f us per call\n",
		n, elapsed.Seconds(), completed, delivered, repaired, repaired+residual, micros(cpu)/float64(max(completed, 1)))
	return out, nil
}

// lossOf is the loss rate client.Agent derives from a receiver report.
func lossOf(rr rtp.ReceiverReport) float64 {
	l := float64(rr.CumLost) / float64(uint64(rr.HighestSeq)+1)
	return math.Min(l, 1)
}

// binomialOK reports whether drops out of n trials is within five
// standard deviations of a Binomial(n, p) mean.
func binomialOK(drops, n int64, p float64) bool {
	mu := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	return math.Abs(float64(drops)-mu) <= 5*sd+1
}
