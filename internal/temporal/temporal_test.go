package temporal

import "testing"

func TestLadderRungOrder(t *testing.T) {
	if Bridge >= EarlyExit || EarlyExit >= ROI || ROI >= FullFrame {
		t.Fatal("rungs must be ordered fastest to most-accurate")
	}
	if FullFrame.Level() != 0 || Bridge.Level() != 3 {
		t.Fatalf("levels: full=%d bridge=%d", FullFrame.Level(), Bridge.Level())
	}
	arms := Arms()
	if len(arms) != numRungs {
		t.Fatalf("got %d arms", len(arms))
	}
	for i := 1; i < len(arms); i++ {
		if arms[i].Accuracy <= arms[i-1].Accuracy {
			t.Fatalf("arm %d accuracy not increasing", i)
		}
	}
	for r := Bridge; r <= FullFrame; r++ {
		if arms[r].Name != r.String() {
			t.Fatalf("arm %d name %q != rung %q", r, arms[r].Name, r)
		}
	}
}

func TestLadderSelectNoPressure(t *testing.T) {
	p := NewPolicy(Config{})
	for i := 0; i < 100; i++ {
		if r := p.Select(Signals{SlackMS: 50}); r != FullFrame {
			t.Fatalf("frame %d: rung %s under no pressure", i, r)
		}
	}
	if p.ForcedRefreshes() != 0 {
		t.Fatalf("forced refreshes with nothing below full frame: %d", p.ForcedRefreshes())
	}
}

func TestLadderPressureOverrides(t *testing.T) {
	p := NewPolicy(Config{})
	// Queue delay above slack: early exit.
	if r := p.Select(Signals{QueueDelayMS: 60, SlackMS: 50}); r != EarlyExit {
		t.Fatalf("pressure > slack selected %s", r)
	}
	// Above half slack: ROI.
	if r := p.Select(Signals{QueueDelayMS: 30, SlackMS: 50}); r != ROI {
		t.Fatalf("pressure > slack/2 selected %s", r)
	}
	// Thermal throttle scales the pressure term.
	if r := p.Select(Signals{QueueDelayMS: 20, SlackMS: 50, ThermalStress: 0.6}); r != ROI {
		t.Fatalf("thermal-scaled pressure selected %s", r)
	}
	// Outage forces early exit regardless of queue state.
	if r := p.Select(Signals{SlackMS: 50, Outage: true}); r != EarlyExit {
		t.Fatalf("outage selected %s", r)
	}
	// No slack signal: no deadline-pressure descent.
	if r := p.Select(Signals{QueueDelayMS: 1000}); r != FullFrame {
		t.Fatalf("no-slack signal selected %s", r)
	}
}

func TestLadderForcedRefresh(t *testing.T) {
	p := NewPolicy(Config{RefreshEvery: 4})
	hot := Signals{QueueDelayMS: 100, SlackMS: 10}
	for i := 0; i < 4; i++ {
		if r := p.Select(hot); r != EarlyExit {
			t.Fatalf("frame %d: %s", i, r)
		}
	}
	// The fifth consecutive sub-full frame must be forced to full,
	// whatever the pressure says.
	if r := p.Select(hot); r != FullFrame {
		t.Fatalf("staleness clock did not force a refresh: %s", r)
	}
	if p.ForcedRefreshes() != 1 {
		t.Fatalf("forced = %d", p.ForcedRefreshes())
	}
	// Bridged frames advance the same clock.
	p2 := NewPolicy(Config{RefreshEvery: 3})
	var tr Track
	tr.Anchor(FullFrame, 0)
	for i := 0; i < 3; i++ {
		if _, ok := p2.Bridge(&tr, float64(i)); !ok {
			t.Fatalf("bridge %d refused inside the budget", i)
		}
	}
	if r := p2.Select(hot); r != FullFrame {
		t.Fatalf("bridges did not advance the refresh clock: %s", r)
	}
	if p2.Selected(Bridge) != 3 {
		t.Fatalf("bridge tally = %d", p2.Selected(Bridge))
	}
}

func TestLadderBridgeBudget(t *testing.T) {
	p := NewPolicy(Config{MaxBridged: 3, ConfDecay: 0.5, ConfFloor: 0.2})
	tr := Track{Conf: 1.0}
	for {
		before := tr
		now := 10 * float64(tr.Run+1)
		stale, ok := p.Bridge(&tr, now)
		if !ok {
			if tr != before {
				t.Fatalf("refused bridge mutated the track: %+v -> %+v", before, tr)
			}
			break
		}
		if stale != now-tr.LastMS {
			t.Fatalf("staleness %v, want now-LastMS = %v", stale, now-tr.LastMS)
		}
		if tr.Run != before.Run+1 || tr.Conf != before.Conf*0.5 {
			t.Fatalf("bridge did not spend the budget: %+v -> %+v", before, tr)
		}
		if tr.Run > 100 {
			t.Fatal("bridge budget never exhausted")
		}
	}
	// 1.0 -> 0.5 -> 0.25 would allow 3 by confidence, and MaxBridged
	// caps at 3; either bound stopping at 3 is the contract.
	if tr.Run != 3 {
		t.Fatalf("bridged %d frames, want 3", tr.Run)
	}
	if p.Selected(Bridge) != 3 {
		t.Fatalf("bridge tally = %d", p.Selected(Bridge))
	}
	// Confidence floor alone must also stop bridging.
	if _, ok := p.Bridge(&Track{Conf: 0.1}, 0); ok {
		t.Fatal("bridged below the confidence floor")
	}
	// The zero Track has no anchor and cannot bridge.
	if _, ok := p.Bridge(&Track{}, 0); ok {
		t.Fatal("bridged an unanchored track")
	}
	// Anchor resets the run, re-seeds the confidence at the rung's
	// strength and moves the staleness origin, for every rung.
	for r := Bridge; r <= FullFrame; r++ {
		tr := Track{Run: 3, Conf: 0.05, LastMS: 1}
		tr.Anchor(r, 40)
		if tr != (Track{Run: 0, Conf: r.Confidence(), LastMS: 40}) {
			t.Fatalf("anchor at %s: %+v", r, tr)
		}
		want := r.Confidence() >= 0.2 // only the Bridge rung anchors below the floor
		stale, ok := p.Bridge(&tr, 55)
		if ok != want {
			t.Fatalf("bridge after anchor at %s: ok=%v", r, ok)
		}
		if ok && stale != 15 {
			t.Fatalf("staleness after anchor at %s: %v, want 15", r, stale)
		}
	}
}

func TestLadderControllerDescentAndRecovery(t *testing.T) {
	p := NewPolicy(Config{Window: 8})
	calm := Signals{SlackMS: 50}
	// Sustained misses walk the windowed arm down below FullFrame.
	for i := 0; i < 8; i++ {
		p.Observe(true, false)
	}
	if p.Rung() != ROI {
		t.Fatalf("after miss window: arm %s", p.Rung())
	}
	if r := p.Select(calm); r != ROI {
		t.Fatalf("calm select ignores the windowed arm: %s", r)
	}
	// Two more windows reach the bottom; Select still never dispatches
	// a Bridge.
	for i := 0; i < 16; i++ {
		p.Observe(true, false)
	}
	if p.Rung() != Bridge {
		t.Fatalf("arm %s, want bridge", p.Rung())
	}
	if r := p.Select(calm); r != EarlyExit {
		t.Fatalf("bridge arm must dispatch as early-exit, got %s", r)
	}
	// Degraded completions with no misses walk back up.
	for i := 0; i < 32; i++ {
		p.Observe(false, true)
	}
	if p.Rung() <= Bridge {
		t.Fatalf("controller never recovered: %s", p.Rung())
	}
	if p.Switches() < 4 {
		t.Fatalf("switches = %d", p.Switches())
	}
}

func TestLadderDeterminismAndCostModel(t *testing.T) {
	sig := []Signals{{SlackMS: 50}, {QueueDelayMS: 60, SlackMS: 50},
		{QueueDelayMS: 30, SlackMS: 50}, {SlackMS: 50, Outage: true}}
	run := func() []Rung {
		p := NewPolicy(Config{})
		var out []Rung
		for i := 0; i < 64; i++ {
			out = append(out, p.Select(sig[i%len(sig)]))
			p.Observe(i%3 == 0, i%5 == 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: %s vs %s", i, a[i], b[i])
		}
	}

	p := NewPolicy(Config{})
	if p.CostScale(FullFrame) != 1 || p.CostScale(Bridge) != 0 {
		t.Fatal("cost scale endpoints")
	}
	if s := p.CostScale(ROI); s != 0.45 {
		t.Fatalf("roi cost %v", s)
	}
	if s := p.CostScale(EarlyExit); s != 0.70 {
		t.Fatalf("early-exit cost %v", s)
	}
	if FullFrame.Confidence() != 1 || ROI.Confidence() >= 1 ||
		EarlyExit.Confidence() >= ROI.Confidence() || Bridge.Confidence() != 0 {
		t.Fatal("rung confidences must decrease down the ladder")
	}
	// Defaults agree with the tracker's coasting decay.
	if c := p.Config(); c.ConfDecay != 0.8 || c.MaxBridged != 4 || c.RefreshEvery != 8 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestLadderSelectAllocFree(t *testing.T) {
	p := NewPolicy(Config{})
	sig := Signals{QueueDelayMS: 40, SlackMS: 50, ThermalStress: 0.2}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Select(sig)
		p.Observe(false, false)
	})
	if allocs != 0 {
		t.Fatalf("Select allocates %.1f/op", allocs)
	}
}
