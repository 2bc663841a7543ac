package serve

// Temporal degradation ladder: the serve-side embedding of
// internal/temporal. Under pressure the dispatcher walks full-frame
// inference down to ROI-cropped and early-exit passes (cheaper device
// jobs at the same rng draws — Job.CostScale rescales the drawn service
// time, so the jitter stream is untouched), and admission converts
// would-be sheds into tracker-bridged responses: a live track's
// predicted box answers the request instantly, inside an explicit
// staleness budget (max consecutive bridges per tenant, geometric
// confidence decay with a floor, forced full-frame refresh).
//
// Per-tenant bridge state (one temporal.Track per tenant) models one
// tracked stream per tenant — the drone-feed deployment this simulator
// serves, where each tenant is one camera whose MultiTracker state
// lives server-side. A real completion re-anchors the tenant's track
// at the completed rung's confidence; each bridge decays it and
// lengthens the bridged run; the ladder refuses to bridge once either
// budget is spent, and the request sheds exactly as it would have
// without the ladder.
//
// Everything is deterministic: the ladder policy draws no randomness,
// bridged completions are computed inline from the arrival time, and
// the temporal counters join the fingerprint only when the ladder is
// enabled — the zero-knob configuration replays PR-9 serving
// fingerprints bit for bit (chaos.TestPR9ZeroKnobParity).

import "ocularone/internal/temporal"

// initTemporal materialises the ladder state when the layer is enabled.
// When disabled everything stays nil/zero and no serving path changes.
func (s *Server) initTemporal(nt int) {
	if !s.cfg.Temporal.Enabled {
		return
	}
	s.tpol = temporal.NewPolicy(s.cfg.Temporal)
	s.tracks = make([]temporal.Track, nt)
}

// tryBridge attempts to serve a would-be-shed arrival from tenant ti's
// track: if the ladder's staleness budget allows one more bridged frame
// (temporal.Policy.Bridge spends it), the request is admitted and
// completed inline at the bridge cost plus link transit, and the
// response's staleness (time since the tenant's last real inference) is
// recorded. Returns false — caller sheds as before — when the ladder is
// off or the budget is spent.
//
// Bridged completions charge no attained service: the device did no
// work, so charging fairness for it would penalise exactly the tenants
// the ladder is rescuing.
func (s *Server) tryBridge(ti int, c Class, now, deadline float64) bool {
	if s.tpol == nil {
		return false
	}
	stale, ok := s.tpol.Bridge(&s.tracks[ti], now)
	if !ok {
		return false
	}
	t := &s.tallies[c]
	t.admitted++
	t.completed++
	back := now + s.tpol.Config().BridgeMS + s.cfg.LinkRTTms + s.linkExtraMS
	missed := deadline > 0 && back > deadline
	if !missed {
		t.sloMet++
	}
	t.lat.Add(back - now)
	s.tenantCompleted[ti]++
	s.bridgedReqs++
	s.staleHist.Add(stale)
	// A bridged response is a degraded completion: stale-by-one-frame
	// accuracy, fed to both controllers as detection-failure pressure.
	s.observe(missed, true)
	return true
}

// selectRung picks the ladder rung for the batch being dispatched. The
// deadline-pressure signal is the admission predictor's own estimate of
// the queue's drain time (Executor.AdmissionDelayMS is zero by
// construction at dispatch — the device is free — so the queued work of
// every class, batching-corrected, is the delay the next arrival would
// see); slack is the lead request's deadline headroom.
func (s *Server) selectRung(leadDeadline, now float64) temporal.Rung {
	ahead := s.retryPendingMS
	for c := Class(0); c < NumClasses; c++ {
		ahead += s.classEstMS[c]
	}
	eff := s.batchEff
	if s.degraded {
		eff = s.batchEffDeg
	}
	slack := 0.0
	if leadDeadline > 0 {
		slack = leadDeadline - now
	}
	return s.tpol.Select(temporal.Signals{
		QueueDelayMS:  s.ex.AdmissionDelayMS(now) + ahead*eff,
		SlackMS:       slack,
		Outage:        s.faultDepth > 0 || s.pendingRecovery,
		ThermalStress: s.ex.ThermalStress(),
	})
}
