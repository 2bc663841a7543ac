package nn_test

import (
	"runtime"
	"testing"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// planGoldenCase is one Table-2 model pinned by the golden parity
// suite. Inputs are reduced (the architectures are input-size
// agnostic) but every model of the paper's benchmark runs: both YOLO
// generations at all three scales plus the two ResNet-18 substrates.
type planGoldenCase struct {
	name  string
	build func() *nn.Network
	h, w  int
	batch int
}

func planGoldenCases() []planGoldenCase {
	return []planGoldenCase{
		{"yolov8n", func() *nn.Network { return models.BuildYOLOv8(models.Nano, 2, 11) }, 96, 96, 3},
		{"yolov8m", func() *nn.Network { return models.BuildYOLOv8(models.Medium, 2, 11) }, 64, 64, 2},
		{"yolov8x", func() *nn.Network { return models.BuildYOLOv8(models.XLarge, 2, 11) }, 64, 64, 2},
		{"yolov11n", func() *nn.Network { return models.BuildYOLOv11(models.Nano, 2, 12) }, 96, 96, 3},
		{"yolov11m", func() *nn.Network { return models.BuildYOLOv11(models.Medium, 2, 12) }, 64, 64, 2},
		{"yolov11x", func() *nn.Network { return models.BuildYOLOv11(models.XLarge, 2, 12) }, 64, 64, 2},
		{"bodypose", func() *nn.Network { return models.BuildTRTPose(13) }, 64, 64, 3},
		{"monodepth2", func() *nn.Network { return models.BuildMonodepth2(14) }, 64, 64, 3},
	}
}

func randFrames(seed uint64, n, c, h, w int) []*tensor.Tensor {
	r := rng.New(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		x := tensor.New(c, h, w)
		for j := range x.Data {
			x.Data[j] = r.Float32()
		}
		out[i] = x
	}
	return out
}

// zeroAllocProcs are the GOMAXPROCS settings every zero-alloc gate
// runs at: the single-core pin, and a multi-core scheduler.
var zeroAllocProcs = []int{1, 4}

// allocsAt is testing.AllocsPerRun measured at GOMAXPROCS=procs.
// AllocsPerRun pins GOMAXPROCS to 1 while it counts, so it cannot see
// allocations that only happen under a multi-core scheduler; this
// counts the same Mallocs delta (warm-up call, integer average per
// run) without that pin. The runtime.GC first lets the runtime start
// the GC worker goroutines and threads for the new Ps, whose one-time
// heap records would otherwise land in the window when a cycle begins
// there.
func allocsAt(procs, runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	runtime.GC()
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestPlanGoldenParity pins Plan.Execute bit-exact against the
// node-walking interpreter for every Table-2 model, at batch width 1
// (the direct GEMM path) and at the case's batch width (the staged
// batched path). This is the contract that lets the plan replace all
// four forward paths.
func TestPlanGoldenParity(t *testing.T) {
	for _, tc := range planGoldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			net := tc.build()
			xs := randFrames(99, tc.batch, 3, tc.h, tc.w)
			p := net.PlanFor(3, tc.h, tc.w)

			// Reference outputs from the retained interpreter, computed
			// first so the comparison cannot alias plan arena storage.
			want := make([][]*tensor.Tensor, tc.batch)
			for b, x := range xs {
				want[b] = net.ForwardInterp(x)
			}

			for b, x := range xs {
				got := p.Execute([]*tensor.Tensor{x}, nn.ExecOpts{})[0]
				if len(got) != len(want[b]) {
					t.Fatalf("sample %d: %d outputs, want %d", b, len(got), len(want[b]))
				}
				for oi := range got {
					if !got[oi].SameShape(want[b][oi]) {
						t.Fatalf("sample %d output %d: shape %v, want %v", b, oi, got[oi].Shape, want[b][oi].Shape)
					}
					if !got[oi].Equal(want[b][oi], 0) {
						t.Fatalf("sample %d output %d: planned forward diverges from interpreter", b, oi)
					}
				}
			}

			batched := p.Execute(xs, nn.ExecOpts{Batch: tc.batch})
			for b := range xs {
				for oi := range batched[b] {
					if !batched[b][oi].Equal(want[b][oi], 0) {
						t.Fatalf("sample %d output %d: batched plan diverges from interpreter", b, oi)
					}
				}
			}
		})
	}
}

// TestPlanQuantParity pins the plan's int8 path bit-exact against the
// interpreted quantized path (the fused requant epilogue performs the
// identical float32 op sequence), and bounds its drift from fp32 the
// way the original quantized engine was bounded.
func TestPlanQuantParity(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 17, 3, 96, 96)
	xs := randFrames(4, 2, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)

	wantQ := make([][]*tensor.Tensor, len(xs))
	wantF := make([][]*tensor.Tensor, len(xs))
	for b, x := range xs {
		wantQ[b] = net.ForwardQuantInterp(x)
		wantF[b] = net.ForwardInterp(x)
	}

	for b, x := range xs {
		got := p.Execute([]*tensor.Tensor{x}, nn.ExecOpts{Precision: nn.INT8})[0]
		for oi := range got {
			if !got[oi].Equal(wantQ[b][oi], 0) {
				t.Fatalf("sample %d output %d: planned int8 diverges from interpreted int8", b, oi)
			}
			// Drift versus fp32 stays bounded — the quantization error,
			// not a kernel bug (which produces O(1) errors).
			if !got[oi].Equal(wantF[b][oi], 0.25) {
				t.Fatalf("sample %d output %d: int8 drift from fp32 exceeds bound", b, oi)
			}
		}
	}

	batched := p.Execute(xs, nn.ExecOpts{Precision: nn.INT8})
	for b := range xs {
		for oi := range batched[b] {
			if !batched[b][oi].Equal(wantQ[b][oi], 0) {
				t.Fatalf("sample %d output %d: batched planned int8 diverges", b, oi)
			}
		}
	}
}

// TestPlanZeroAllocSteadyState is the acceptance gate of the arena
// executor: once an instance is bound (and the int8 scratch warmed),
// Execute performs zero heap allocations per frame at batch 1 and at
// batch 4, fp32 and int8 — at every GOMAXPROCS, since the kernels run
// on the caller's goroutine.
func TestPlanZeroAllocSteadyState(t *testing.T) {
	net := models.BuildQuantized(models.V8Nano, 2, 31, 3, 96, 96)
	p := net.PlanFor(3, 96, 96)
	x1 := randFrames(5, 1, 3, 96, 96)
	x4 := randFrames(6, 4, 3, 96, 96)
	cases := []struct {
		name string
		run  func()
	}{
		{"batch1-fp32", func() { p.Execute(x1, nn.ExecOpts{}) }},
		{"batch4-fp32", func() { p.Execute(x4, nn.ExecOpts{}) }},
		{"batch1-int8", func() { p.Execute(x1, nn.ExecOpts{Precision: nn.INT8}) }},
		{"batch4-int8", func() { p.Execute(x4, nn.ExecOpts{Precision: nn.INT8}) }},
	}
	for _, tc := range cases {
		tc.run() // bind instance / int8 scratch
		for _, procs := range zeroAllocProcs {
			if allocs := allocsAt(procs, 3, tc.run); allocs != 0 {
				t.Errorf("%s: %.0f allocations per steady-state Execute at GOMAXPROCS=%d, want 0", tc.name, allocs, procs)
			}
		}
	}
}

// TestPlanSlotReuse asserts lifetime analysis actually shares arena
// slots: a YOLO graph has far more intermediate values than
// concurrently-live activations.
func TestPlanSlotReuse(t *testing.T) {
	net := models.BuildYOLOv8(models.Nano, 2, 7)
	p := net.PlanFor(3, 96, 96)
	slots, _ := p.Slots()
	if ops := p.Ops(); slots >= ops {
		t.Fatalf("no slot reuse: %d slots for %d ops", slots, ops)
	}
	if slots > 40 {
		t.Fatalf("lifetime analysis kept %d slots live; expected well under 40 for yolov8n", slots)
	}
}

// TestPlanBatchOptMismatch pins the ExecOpts.Batch assertion.
func TestPlanBatchOptMismatch(t *testing.T) {
	net := models.BuildTRTPose(3)
	p := net.PlanFor(3, 64, 64)
	xs := randFrames(8, 2, 3, 64, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Execute with mismatched ExecOpts.Batch did not panic")
		}
	}()
	p.Execute(xs, nn.ExecOpts{Batch: 3})
}

// TestPlanInstanceReuse asserts repeated Execute calls at one batch
// width reuse the same bound instance and arena (outputs alias the
// same storage run to run).
func TestPlanInstanceReuse(t *testing.T) {
	net := models.BuildMonodepth2(9)
	p := net.PlanFor(3, 64, 64)
	xs := randFrames(10, 1, 3, 64, 64)
	a := p.Execute(xs, nn.ExecOpts{})[0][0]
	b := p.Execute(xs, nn.ExecOpts{})[0][0]
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("plan rebound its instance between identical Execute calls")
	}
}
