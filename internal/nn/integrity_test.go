package nn_test

import (
	"math"
	"testing"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/tensor"
)

// fullIntegrity is the everything-on policy the clean-path tests use.
func fullIntegrity(events *[]nn.IntegrityEvent) nn.IntegrityPolicy {
	return nn.IntegrityPolicy{
		ABFT:  true,
		Guard: nn.GuardFull,
		OnEvent: func(e nn.IntegrityEvent) {
			if events != nil {
				*events = append(*events, e)
			}
		},
	}
}

// TestPlanIntegrityCleanParity pins the fault-free contract: with every
// detector live, Execute returns results bit-identical to the unchecked
// executor (the checked drivers replay the same kernel schedule), the
// ABFT checks actually ran, and nothing fired — the worst-case
// tolerance band means clean fp32 runs can never false-positive.
func TestPlanIntegrityCleanParity(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 23, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(77, 1, 3, 96, 96)

	for _, prec := range []nn.Precision{nn.FP32, nn.INT8} {
		want := clonePlanOuts(p.Execute(xs, nn.ExecOpts{Precision: prec}))

		var events []nn.IntegrityEvent
		p.ResetIntegrity()
		got := p.Execute(xs, nn.ExecOpts{Precision: prec, Integrity: fullIntegrity(&events)})
		for oi := range got[0] {
			if !got[0][oi].Equal(want[0][oi], 0) {
				t.Fatalf("%v output %d: checked execution diverges from unchecked", prec, oi)
			}
		}
		st := p.Integrity()
		if st.ABFTChecks == 0 {
			t.Fatalf("%v: no ABFT checks ran on a conv-heavy model", prec)
		}
		if st.GuardScans == 0 {
			t.Fatalf("%v: no guard scans ran", prec)
		}
		if st.ABFTDetected != 0 || st.GuardHits != 0 || len(events) != 0 {
			t.Fatalf("%v: clean run raised detections: %+v (%d events)", prec, st, len(events))
		}
	}
}

// clonePlanOuts deep-copies Execute results out of the plan arena so a
// later Execute cannot overwrite the comparison baseline.
func clonePlanOuts(outs [][]*tensor.Tensor) [][]*tensor.Tensor {
	cp := make([][]*tensor.Tensor, len(outs))
	for s, row := range outs {
		cp[s] = make([]*tensor.Tensor, len(row))
		for i, o := range row {
			c := tensor.New(o.Shape...)
			copy(c.Data, o.Data)
			cp[s][i] = c
		}
	}
	return cp
}

// TestPlanABFTRecoveryF32 injects one SDC perturbation into a packed
// conv GEMM via the kernel fault hook and asserts the full loop: the
// checksum catches it, the op re-executes through the reference kernel,
// and the final outputs match a fault-free run — bit-identical on
// non-FMA tiers (reference ≡ packed there), drift-bounded on FMA tiers
// where the recovered conv's separate-rounding chains feed rounding-
// level differences into the downstream packed layers (measured
// ~6e-8 at these shapes; the 1e-4 gate still catches the O(1) errors
// a real recovery bug produces).
func TestPlanABFTRecoveryF32(t *testing.T) {
	defer func() { tensor.ABFTFaultF32 = nil }()
	net := models.BuildYOLOv8(models.Nano, 2, 41)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(88, 1, 3, 96, 96)

	want := clonePlanOuts(p.Execute(xs, nn.ExecOpts{}))

	fired := false
	tensor.ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
		if fired {
			return
		}
		fired = true // one-shot: the reference re-execution must see clean math
		d[j0] += 1024
	}
	var events []nn.IntegrityEvent
	p.ResetIntegrity()
	got := p.Execute(xs, nn.ExecOpts{Integrity: fullIntegrity(&events)})

	if !fired {
		t.Fatal("fault hook never fired — checked path not taken")
	}
	st := p.Integrity()
	if st.ABFTDetected != 1 || st.Recovered != 1 {
		t.Fatalf("stats %+v, want exactly one detected+recovered ABFT event", st)
	}
	if len(events) != 1 || events[0].Kind != nn.KindABFT || !events[0].Recovered {
		t.Fatalf("events %+v, want one recovered ABFT event", events)
	}
	if events[0].Op == "" {
		t.Fatal("ABFT event did not name the faulted conv")
	}
	var tol float32
	if tensor.KernelTierFMA() {
		tol = 1e-4
	}
	for oi := range got[0] {
		if !got[0][oi].Equal(want[0][oi], tol) {
			t.Fatalf("output %d: recovered execution diverges from fault-free run", oi)
		}
	}
}

// TestPlanABFTRecoveryQ is the int8 twin: a flipped accumulator bit is
// caught by the exact integer checksum and the re-executed group
// matches the fault-free int8 run bit for bit.
func TestPlanABFTRecoveryQ(t *testing.T) {
	defer func() { tensor.ABFTFaultQ = nil }()
	net := models.BuildQuantized(models.V8Nano, 2, 29, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(89, 1, 3, 96, 96)

	want := clonePlanOuts(p.Execute(xs, nn.ExecOpts{Precision: nn.INT8}))

	fired := false
	tensor.ABFTFaultQ = func(acc []int32, i0, j0 int) {
		if fired {
			return
		}
		fired = true
		acc[0] ^= 1 << 17
	}
	var events []nn.IntegrityEvent
	p.ResetIntegrity()
	got := p.Execute(xs, nn.ExecOpts{Precision: nn.INT8, Integrity: fullIntegrity(&events)})

	if !fired {
		t.Fatal("int8 fault hook never fired — checked path not taken")
	}
	st := p.Integrity()
	if st.ABFTDetected != 1 || st.Recovered != 1 {
		t.Fatalf("stats %+v, want exactly one detected+recovered ABFT event", st)
	}
	for oi := range got[0] {
		if !got[0][oi].Equal(want[0][oi], 0) {
			t.Fatalf("output %d: recovered int8 execution diverges from fault-free run", oi)
		}
	}
}

// TestPlanGuardDetectsNaN feeds a NaN-poisoned frame through the plan
// with only the sentinels on. The guard must fire on the first op that
// consumes the poison, and — since re-executing on the same poisoned
// input reproduces the NaN — must honestly report the event as
// unrecovered (request-level retry territory, not compute-level).
func TestPlanGuardDetectsNaN(t *testing.T) {
	net := models.BuildYOLOv8(models.Nano, 2, 43)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(90, 1, 3, 96, 96)
	xs[0].Data[17] = float32(math.NaN())

	var events []nn.IntegrityEvent
	p.ResetIntegrity()
	p.Execute(xs, nn.ExecOpts{Integrity: nn.IntegrityPolicy{
		Guard:   nn.GuardFull,
		OnEvent: func(e nn.IntegrityEvent) { events = append(events, e) },
	}})

	st := p.Integrity()
	if st.GuardHits == 0 || len(events) == 0 {
		t.Fatalf("guard missed NaN poisoning: stats %+v", st)
	}
	for _, e := range events {
		if e.Kind != nn.KindGuard {
			t.Fatalf("unexpected event kind %v with ABFT off", e.Kind)
		}
		if e.Recovered {
			t.Fatal("guard claimed recovery while the input itself is poisoned")
		}
	}
}

// TestPlanGuardMaxAbs pins the range sentinel: activations past MaxAbs
// are flagged even though they are finite.
func TestPlanGuardMaxAbs(t *testing.T) {
	net := models.BuildTRTPose(7)
	p := net.PlanFor(3, 64, 64)
	xs := randFrames(91, 1, 3, 64, 64)
	xs[0].Data[0] = 1e9 // finite, but far outside any plausible activation range

	p.ResetIntegrity()
	p.Execute(xs, nn.ExecOpts{Integrity: nn.IntegrityPolicy{Guard: nn.GuardFull, MaxAbs: 1e6}})
	if st := p.Integrity(); st.GuardHits == 0 {
		t.Fatalf("MaxAbs sentinel missed a 1e9 activation: stats %+v", st)
	}

	p.ResetIntegrity()
	p.Execute(randFrames(92, 1, 3, 64, 64), nn.ExecOpts{Integrity: nn.IntegrityPolicy{Guard: nn.GuardFull, MaxAbs: 1e6}})
	if st := p.Integrity(); st.GuardHits != 0 {
		t.Fatalf("MaxAbs sentinel false-positived on a clean frame: stats %+v", st)
	}
}

// TestPlanIntegrityZeroAlloc is the steady-state cost gate: with ABFT
// and sampled guards both live (and no faults), Execute still performs
// zero heap allocations per frame at every GOMAXPROCS — only
// detections may allocate.
func TestPlanIntegrityZeroAlloc(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 37, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	xs := randFrames(93, 1, 3, 96, 96)
	pol := nn.IntegrityPolicy{ABFT: true, Guard: nn.GuardSampled}
	cases := []struct {
		name string
		run  func()
	}{
		{"fp32", func() { p.Execute(xs, nn.ExecOpts{Integrity: pol}) }},
		{"int8", func() { p.Execute(xs, nn.ExecOpts{Precision: nn.INT8, Integrity: pol}) }},
	}
	for _, tc := range cases {
		tc.run()
		for _, procs := range zeroAllocProcs {
			if allocs := allocsAt(procs, 3, tc.run); allocs != 0 {
				t.Errorf("%s: %.0f allocations per checked Execute at GOMAXPROCS=%d, want 0", tc.name, allocs, procs)
			}
		}
	}
}
