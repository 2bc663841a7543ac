package pipeline

import "ocularone/internal/temporal"

// The session-level cross-frame degradation ladder (internal/temporal)
// on a session's root stages, configured by Session.Temporal. Under
// queue pressure the root inference steps down the ladder — ROI-cropped
// re-inference, then confidence-based early exit — by scaling the
// device job's service time; inside the staleness budget a tracker-
// bridged frame skips the device entirely and the motion-model
// prediction stands in at temporal.Config.BridgeMS. With Enabled false
// (whatever the other knobs) the scheduler takes the exact
// pre-temporal path and replays historic results bit for bit.
//
// The ladder's staleness clock is shared with the back-pressure layer:
// a bridged root advances the same forced-refresh clock Select
// maintains, and a StaleSkipPolicy skip downstream of a bridged root is
// counted loudly in StreamResult.DoubleSkips — the two layers cannot
// double-skip silently (see StaleSkipPolicy).

// initTemporal arms the env's ladder state when the session enables it.
func (e *execEnv) initTemporal() {
	if e.sess.Temporal.Enabled {
		e.tpol = temporal.NewPolicy(e.sess.Temporal)
	}
}

// tryBridgeRoot decides whether a root-stage frame ready at readyMS
// bridges: the executor cannot start it within one frame period, and
// the stream's bridging budget still allows coasting. On a bridge the
// caller charges temporal.Config.BridgeMS instead of offering a device
// job.
func (e *execEnv) tryBridgeRoot(readyMS, delayMS, periodMS float64) bool {
	if e.tpol == nil || delayMS <= periodMS {
		return false
	}
	stale, ok := e.tpol.Bridge(&e.track, readyMS)
	if !ok {
		return false
	}
	if stale > e.staleMaxMS {
		e.staleMaxMS = stale
	}
	e.bridged++
	return true
}

// rootRung selects the inference rung for a root-stage job that was not
// bridged. The deadline-slack signal is one frame period: situational
// awareness older than the camera period is stale by definition, the
// same clock every back-pressure policy here uses.
func (e *execEnv) rootRung(delayMS, periodMS, thermal float64) temporal.Rung {
	r := e.tpol.Select(temporal.Signals{
		QueueDelayMS:  delayMS,
		SlackMS:       periodMS,
		ThermalStress: thermal,
	})
	switch r {
	case temporal.ROI:
		e.roiFrames++
	case temporal.EarlyExit:
		e.earlyFrames++
	}
	return r
}
