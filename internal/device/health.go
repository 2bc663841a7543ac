package device

// Device health tracking: every executor in a Cluster carries a health
// score — an exponential moving average over per-request outcomes
// (deadline kept or missed) and integrity events (silent corruption
// detected, recovered or not) — and a three-state machine driven by it:
//
//	Healthy ──score < QuarantineBelow──▶ Quarantined
//	Quarantined ──hold expires (Advance)──▶ Probation
//	Probation ──score ≥ ReadmitAbove──▶ Healthy
//	Probation ──score < QuarantineBelow──▶ Quarantined (hold restarts)
//
// Quarantined devices are excluded from placement and hedging target
// selection (DevicesIn); probation readmits them gradually — the score
// restarts at a sub-healthy value, so a device must string together
// clean outcomes before it serves critical traffic again. Everything
// is deterministic: no clocks, no randomness — state advances only
// through the observations schedulers already make, so a simulation
// that never observes anything never changes state and replays
// health-free schedules bit for bit.

// HealthState is one device's standing in the quarantine machine.
type HealthState int

const (
	// Healthy devices serve normally.
	Healthy HealthState = iota
	// Probation devices serve, but are not preferred: a quarantined
	// device readmits through probation, and one more bad stretch sends
	// it straight back.
	Probation
	// Quarantined devices are excluded from placement until their hold
	// expires.
	Quarantined
)

// String returns the short state name.
func (h HealthState) String() string {
	switch h {
	case Probation:
		return "probation"
	case Quarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

// Health-machine constants. Outcome weights grade how damning each
// observation is (1 = clean, 0 = worst); the EWMA step is small enough
// that one bad request never quarantines a device, while a burst of
// integrity events does.
const (
	healthAlpha     = 0.15 // EWMA step per observation
	outcomeMet      = 1.0  // served, deadline kept
	outcomeMissed   = 0.4  // served, deadline missed
	outcomeRecover  = 0.3  // silent corruption detected, recovered
	outcomeCorrupt  = 0.0  // silent corruption detected, NOT recovered
	QuarantineBelow = 0.55 // Healthy/Probation → Quarantined threshold
	ReadmitAbove    = 0.85 // Probation → Healthy threshold
	probationScore  = 0.70 // score a device re-enters service with
	// DefaultQuarantineMS is the hold MarkDown and score-driven
	// quarantines apply when the caller has no better estimate (an
	// outage with a known restore passes its own).
	DefaultQuarantineMS = 1000.0
)

// healthRec is one device's health state.
type healthRec struct {
	state       HealthState
	score       float64
	holdUntilMS float64
	quarantines int64
}

// healthFor returns (creating if needed) the device's health record.
// Devices start Healthy with a perfect score.
func (c *Cluster) healthFor(d ID) *healthRec {
	if r, ok := c.health[d]; ok {
		return r
	}
	r := &healthRec{score: 1}
	c.health[d] = r
	return r
}

// Health reports the device's current health state.
func (c *Cluster) Health(d ID) HealthState { return c.healthFor(d).state }

// HealthScore reports the device's EWMA health score in [0, 1].
func (c *Cluster) HealthScore(d ID) float64 { return c.healthFor(d).score }

// Quarantines reports how many times the device has been quarantined.
func (c *Cluster) Quarantines(d ID) int64 { return c.healthFor(d).quarantines }

// observe folds one graded outcome into the device's score and runs
// the state machine. Quarantined devices ignore observations (they
// receive no scheduled work; stray results from cancelled hedges must
// not extend or shorten the hold).
func (c *Cluster) observe(d ID, nowMS, outcome float64) {
	r := c.healthFor(d)
	if r.state == Quarantined {
		return
	}
	r.score += healthAlpha * (outcome - r.score)
	switch r.state {
	case Healthy, Probation:
		if r.score < QuarantineBelow {
			c.quarantine(r, nowMS+DefaultQuarantineMS)
		} else if r.state == Probation && r.score >= ReadmitAbove {
			r.state = Healthy
		}
	}
}

// quarantine moves a record into Quarantined until holdUntilMS.
func (c *Cluster) quarantine(r *healthRec, holdUntilMS float64) {
	r.state = Quarantined
	r.quarantines++
	if holdUntilMS > r.holdUntilMS {
		r.holdUntilMS = holdUntilMS
	}
}

// ObserveServed records one served request: met is whether it kept its
// deadline.
func (c *Cluster) ObserveServed(d ID, nowMS float64, met bool) {
	if met {
		c.observe(d, nowMS, outcomeMet)
	} else {
		c.observe(d, nowMS, outcomeMissed)
	}
}

// ObserveIntegrity records one silent-corruption detection on the
// device (an IntegrityEvent from the compute tier): recovered is
// whether re-execution produced a clean result.
func (c *Cluster) ObserveIntegrity(d ID, nowMS float64, recovered bool) {
	if recovered {
		c.observe(d, nowMS, outcomeRecover)
	} else {
		c.observe(d, nowMS, outcomeCorrupt)
	}
}

// MarkDown records a fail-stop outage on the device until restoreMS:
// the executor's stream is held to the restore (exactly what the
// pipeline's outage application did inline) and the device is
// quarantined until then — placement and hedging skip it for the
// duration, and it readmits through probation afterwards. This is how
// the PR-7 fail-stop surface composes with the health machine: one
// call imposes both the timing hold and the scheduling exclusion.
func (c *Cluster) MarkDown(d ID, restoreMS float64) {
	c.Executor(d).HoldUntil(restoreMS)
	r := c.healthFor(d)
	r.score = 0
	if r.state != Quarantined {
		c.quarantine(r, restoreMS)
	} else if restoreMS > r.holdUntilMS {
		r.holdUntilMS = restoreMS
	}
}

// Advance promotes quarantined devices whose hold has expired into
// Probation with a fresh sub-healthy score. Schedulers call it with
// their clock before selecting devices; calling it repeatedly at the
// same time is idempotent.
func (c *Cluster) Advance(nowMS float64) {
	for _, r := range c.health {
		if r.state == Quarantined && nowMS >= r.holdUntilMS {
			r.state = Probation
			r.score = probationScore
			r.holdUntilMS = 0
		}
	}
}

// DevicesIn returns the materialised devices currently in state st, in
// AllIDs order (deterministic regardless of map iteration).
func (c *Cluster) DevicesIn(st HealthState) []ID {
	return c.DevicesInto(nil, st)
}

// DevicesInto appends the materialised devices in state st to dst in
// AllIDs order — the allocation-free variant scheduler loops call with
// a recycled buffer. Devices never touched through Executor are not
// listed (they have no stream to schedule on).
func (c *Cluster) DevicesInto(dst []ID, st HealthState) []ID {
	for _, d := range AllIDs {
		if _, ok := c.ex[d]; !ok {
			continue
		}
		if c.healthFor(d).state == st {
			dst = append(dst, d)
		}
	}
	return dst
}
