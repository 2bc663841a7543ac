package main

import (
	"runtime"
	"time"

	"ocularone/internal/chaos"
	"ocularone/internal/device"
	"ocularone/internal/serve"
)

// serveHorizonMS is the simulated time one serve-knee simulation
// offers arrivals for; about 1.8M requests at the knee. serveWindowMS
// is one AdvanceTo step, about 50 ms of wall time.
const (
	serveHorizonMS = 2_000_000
	serveWindowMS  = 50_000
)

// serveConfig is the serve-knee configuration: the default serving
// study at rho = 1.0 of its capacity, with every chaos process (the
// union of chaos.Combined and chaos.IntegrityRegime), adaptive
// precision, retry and hedge with the ext-integrity policies, and the
// temporal ladder all live.
func serveConfig(seed uint64) serve.Config {
	cfg := serve.DefaultConfig(serveHorizonMS, seed)
	cfg.Traffic.RatePerSec = serve.Capacity(cfg)
	faults := chaos.Combined(seed)
	integ := chaos.IntegrityRegime(seed)
	faults.SDC, faults.Straggler = integ.SDC, integ.Straggler
	cfg.Disrupt = chaos.New(faults)
	cfg.Adapt.Enabled = true
	cfg.Integrity = serve.IntegrityConfig{
		Retry: serve.RetryPolicy{MaxAttempts: 3, BackoffMS: 5},
		Hedge: serve.HedgePolicy{Enabled: true, Device: device.RTX4090},
	}
	cfg.Temporal.Enabled = true
	return cfg
}

// simRun is one complete simulation: NewServer, one AdvanceTo per
// window, Drain.
type simRun struct {
	res         serve.Result
	fingerprint uint64
	p99MS       float64
	windowMS    []float64 // wall ms per AdvanceTo
	drainMS     float64
	wall        time.Duration
}

func simulate(seed uint64, tr *tracer, id *int64) simRun {
	var sr simRun
	cfg := serveConfig(seed)
	root := tr.begin("sim", *id, -1)
	t0 := time.Now()
	sp := tr.begin("serve.NewServer", *id, root)
	s := serve.NewServer(cfg)
	tr.end(sp)
	for w, t := 0, float64(serveWindowMS); t <= serveHorizonMS; w, t = w+1, t+serveWindowMS {
		*id++
		st := tr.on(w)
		w0 := time.Now()
		sp := st.begin("serve.Server.AdvanceTo", *id, root)
		s.AdvanceTo(t)
		st.end(sp)
		sr.windowMS = append(sr.windowMS, msSince(w0))
	}
	*id++
	d0 := time.Now()
	sp = tr.begin("serve.Server.Drain", *id, root)
	s.Drain()
	tr.end(sp)
	sr.drainMS = msSince(d0)
	sr.wall = time.Since(t0)
	tr.end(root)
	sr.res = s.Result()
	sr.fingerprint = s.Fingerprint()
	sr.p99MS = s.LatencyQuantileMS(0.99)
	return sr
}

// runServe is the serve-knee workload. Each simulation replays the same
// seed, so every one must reproduce the first one's fingerprint.
func runServe(seed uint64, budget time.Duration, tr *tracer) *outcome {
	o := &outcome{layer: map[string]float64{}}
	// Set-up is the process's first NewServer with its configuration:
	// both derive every model's cost statistics (models.ComputeStats,
	// cached per process), which dwarfs the server's own allocation.
	// Later servers reuse the cache, so set-up is measured once.
	t0 := time.Now()
	serve.NewServer(serveConfig(seed))
	o.setupS = []float64{time.Since(t0).Seconds()}
	runtime.GC() // the statistics' build garbage is not the simulator's
	var first simRun
	var reqPerS []float64
	var windowMS [][]float64 // per window, its wall ms in every simulation
	var advanceMS, drainMS float64
	var id int64
	deadline := time.Now().Add(budget)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		sr := simulate(seed, tr, &id)
		if windowMS == nil {
			windowMS = make([][]float64, len(sr.windowMS))
		}
		for w, ms := range sr.windowMS {
			windowMS[w] = append(windowMS[w], ms)
			o.splitStep(w, ms, tr)
			advanceMS += ms
		}
		drainMS += sr.drainMS
		reqPerS = append(reqPerS, float64(sr.res.Offered)/sr.wall.Seconds())
		o.attempted++
		if err := sr.res.CheckInvariants(); err != nil {
			o.fail("simulation %d: %v", n, err)
		}
		if n == 0 {
			first = sr
		} else if sr.fingerprint != first.fingerprint {
			o.fail("simulation %d: fingerprint %016x, first run %016x", n, sr.fingerprint, first.fingerprint)
		}
	}
	// Every simulation replays the same work window by window, so a
	// window's step time is its median over the simulations: a stall of
	// the host that hits a minority of them does not move it.
	for _, ms := range windowMS {
		o.stepMS = append(o.stepMS, median(ms))
	}
	o.throughput = median(reqPerS)
	r := first.res
	o.note("simulations", float64(len(reqPerS)), "count")
	o.note("sim_req_per_wall_s", o.throughput, "1/s")
	o.note("goodput_per_s", r.GoodputPerSec, "1/s")
	o.note("latency_ms_p99", first.p99MS, "ms")
	o.note("requests_offered", float64(r.Offered), "count")
	o.note("requests_missed_slo", float64(r.Offered-r.SLOMet), "count")
	if tr != nil {
		sims := float64(len(reqPerS))
		serveLayers(o.layer, r, first.p99MS, advanceMS/1e3/sims, drainMS/1e3/sims)
	}
	return o
}

// serveLayers fills the serve, chaos and temporal per-layer metrics from
// one simulation's Result and the mean seconds a simulation spent in
// AdvanceTo and in Drain.
func serveLayers(l map[string]float64, r serve.Result, p99, advance, drain float64) {
	pct := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	l["serve.advance_s"] = advance
	l["serve.drain_s"] = drain
	l["serve.ns_per_event"] = (advance + drain) * 1e9 / float64(r.Events)
	l["serve.events_per_req"] = float64(r.Events) / float64(r.Offered)
	l["serve.goodput_per_s"] = r.GoodputPerSec
	l["serve.latency_ms_p99"] = p99
	l["serve.shed_pct"] = pct(r.Shed, r.Offered)
	l["serve.expired_pct"] = pct(r.Expired, r.Admitted)
	l["serve.mean_batch"] = r.MeanBatch
	l["serve.utilization"] = r.Utilization
	for _, c := range r.Classes {
		l["serve.latency_ms_p99."+c.Class] = c.P99MS
	}
	l["serve.retries"] = float64(r.Retries)
	l["serve.hedge_win_pct"] = pct(r.HedgeWins, r.Hedges)
	l["serve.sdc_coverage_pct"] = pct(r.CorruptDetected, r.SDCInjected)
	l["chaos.fault_episodes"] = float64(r.FaultEpisodes)
	l["chaos.recovered_pct"] = pct(r.Recovered, r.FaultEpisodes)
	l["chaos.mean_recovery_ms"] = r.MeanRecoveryMS
	l["chaos.lost_pct"] = pct(r.Lost, r.Offered)
	l["temporal.bridged_pct"] = pct(r.BridgedReqs, r.Completed)
	l["temporal.roi_pct"] = pct(r.ROIReqs, r.Completed)
	l["temporal.early_exit_pct"] = pct(r.EarlyExitReqs, r.Completed)
	l["temporal.stale_ms_max"] = r.StaleMaxMS
}
