package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"ocularone/internal/rng"
)

// TestPackedGEMMParity pins the packed register-blocked kernel against
// the reference ikj kernel at adversarial shapes: m/n/k off the tile
// grid, k below and above the kc block, single tiles, and single-row
// edges. Non-FMA tiers must match bit for bit; FMA tiers are held to
// the per-element γ_k drift bound (gemmTolerances).
func TestPackedGEMMParity(t *testing.T) {
	shapes := [][3]int{
		{4, 16, 8},    // exactly one tile
		{5, 16, 9},    // +1 edges on m and n
		{7, 33, 23},   // everything ragged
		{4, 256, 8},   // k == kc exactly
		{4, 257, 8},   // k one past the kc block
		{12, 600, 40}, // multiple kc blocks, ragged k tail
		{64, 576, 100},
		{129, 31, 257},
		{6, 1000, 8},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randTensor(rng.New(uint64(m*k+n)), m, k)
			b := randTensor(rng.New(uint64(k*n+m)), k, n)
			want := New(m, n)
			matMulRefInto(want, a, b)
			got := New(m, n)
			for i := range got.Data {
				got.Data[i] = 99 // packed path must fully overwrite
			}
			matMulPackedInto(got, a, b, Epilogue{}, 0)
			cmpTol(t, "packed vs reference", got.Data, want.Data, gemmTolerances(a, b))
		})
	}
}

// TestPackedGEMMEpilogueParity pins the packed kernel's fused epilogue
// (per column stripe) bit-exact against the same packed GEMM followed
// by the row-wise epilogue at ragged shapes, for each activation —
// fusing must not change the epilogue's op chain on any tier.
func TestPackedGEMMEpilogueParity(t *testing.T) {
	const m, k, n = 13, 300, 43
	a := randTensor(rng.New(3), m, k)
	b := randTensor(rng.New(4), k, n)
	scale := make([]float32, m)
	shift := make([]float32, m)
	r := rng.New(5)
	for i := range scale {
		scale[i] = r.Float32() + 0.5
		shift[i] = r.Float32() - 0.5
	}
	for _, act := range []EpAct{EpActNone, EpActSiLU, EpActReLU, EpActSigmoid} {
		ep := Epilogue{Scale: scale, Shift: shift, Act: act}
		want := New(m, n)
		matMulPackedInto(want, a, b, Epilogue{}, 0)
		ep.apply(want.Data, 0, m, n, 0)
		got := New(m, n)
		matMulPackedInto(got, a, b, ep, 0)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("act %d elem %d: fused %v != reference %v", act, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPackedGEMMInt8Parity pins the PMADDWD-pair int8 kernel exactly
// against the reference int8 tiles: odd k (pair padding), ragged rows
// and columns, and k past the fp32 kc block (the int8 driver is
// unblocked). Integer accumulation is exact, so equality is strict.
func TestPackedGEMMInt8Parity(t *testing.T) {
	shapes := [][3]int{
		{4, 16, 8},
		{5, 17, 9},  // odd k: zero-padded pair tail
		{7, 33, 23}, // everything ragged
		{12, 577, 40},
		{64, 576, 100},
		{6, 999, 8},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := QuantizePerChannel(randTensor(rng.New(uint64(m+k)), m, k))
			b := QuantizeSymmetric(randTensor(rng.New(uint64(n+k)), k, n))
			rowScale := make([]float32, m)
			for i := range rowScale {
				rowScale[i] = a.ScaleFor(i) * b.Scales[0]
			}
			want := New(m, n)
			refInt8Into(want, a, b, rowScale)
			got := New(m, n)
			matMulInt8PackedInto(got, a, b, rowScale, Epilogue{}, 0)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("elem %d: packed int8 %v != reference %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// refInt8Into runs the retained reference int8 tile kernel regardless
// of shape (the packed-threshold check in MatMulInt8Into would route
// large shapes away from it).
func refInt8Into(dst *Tensor, a, b *QTensor, rowScale []float32) {
	m := a.Shape[0]
	var acc [4 * qnBlock]int32
	int8EpilogueRange(dst, a, b, rowScale, Epilogue{}, 0, acc[:], 0, m)
}

// convPackedForce runs the implicit-im2col fp32 path regardless of the
// UsePackedGEMM threshold, so every adversarial case exercises the
// packed kernel (the public entry would route tiny shapes away).
func convPackedForce(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k := icg * spec.KH * spec.KW
	oh, ow := spec.OutSize(x.Shape[1], x.Shape[2])
	plane := oh * ow
	out := New(spec.OutC, oh, ow)
	for g := 0; g < groups; g++ {
		wp := PackWeights(FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k))
		dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
		ConvPackedInto(dst, wp, x, spec, g*icg, oh, ow, Epilogue{}, 0)
	}
	addBias(out.Data, bias, spec.OutC, plane)
	return out
}

// convPackedQForce is the int8 twin of convPackedForce.
func convPackedQForce(x *Tensor, w *QTensor, spec ConvSpec, xScale float32) *Tensor {
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k := icg * spec.KH * spec.KW
	oh, ow := spec.OutSize(x.Shape[1], x.Shape[2])
	plane := oh * ow
	out := New(spec.OutC, oh, ow)
	for g := 0; g < groups; g++ {
		qp := PackWeightsQ(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
		dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
		ConvPackedQInto(dst, qp, x, spec, g*icg, oh, ow, 1/xScale, convQScales(w, xScale, g, ocg), Epilogue{}, 0)
	}
	return out
}

// convParityCase is one adversarial convolution shape for the
// implicit-im2col parity suite.
type convParityCase struct {
	name string
	spec ConvSpec
	h, w int
}

func convParityCases() []convParityCase {
	return []convParityCase{
		{"3x3 dense", ConvSpec{InC: 16, OutC: 24, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 20, 20},
		{"1x1", ConvSpec{InC: 32, OutC: 16, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 13, 17},
		{"stride 2", ConvSpec{InC: 16, OutC: 20, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 23, 19},
		{"grouped", ConvSpec{InC: 16, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}, 15, 15},
		{"dilated", ConvSpec{InC: 8, OutC: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilationH: 2, DilationW: 2}, 21, 21},
		{"no pad", ConvSpec{InC: 12, OutC: 8, KH: 5, KW: 5, StrideH: 1, StrideW: 1}, 24, 24},
		{"asymmetric stride", ConvSpec{InC: 16, OutC: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}, 17, 31},
		{"deep k", ConvSpec{InC: 64, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 12, 12}, // k=576 > kc
		{"ow 7 sliver wrap", ConvSpec{InC: 16, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 9, 7},
	}
}

// TestConvImplicitParity pins the implicit-im2col packed convolution
// against the materialised-cols reference at adversarial specs (1×1,
// grouped, stride, dilation, pad edges, k spanning the kc block,
// output widths that wrap mid-sliver), with and without bias:
// bit-exact on non-FMA tiers, drift-bounded on FMA tiers (the
// reference may route below the packed threshold to the scalar
// kernel, which rounds differently from fused chains).
func TestConvImplicitParity(t *testing.T) {
	for ci, tc := range convParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(100 + ci))
			x := randTensor(r, tc.spec.InC, tc.h, tc.w)
			groups := tc.spec.Groups
			if groups <= 0 {
				groups = 1
			}
			w := randTensor(r, tc.spec.OutC, tc.spec.InC/groups, tc.spec.KH, tc.spec.KW)
			bias := randTensor(r, tc.spec.OutC)
			for _, b := range []*Tensor{nil, bias} {
				got := convPackedForce(x, w, b, tc.spec)
				want := conv2DRef(x, w, b, tc.spec)
				if !got.SameShape(want) {
					t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
				}
				cmpTol(t, fmt.Sprintf("bias=%v", b != nil), got.Data, want.Data,
					convTolerances(x, w, b, tc.spec))
			}
		})
	}
}

// TestConvImplicitQParity is the int8 twin: the implicit, quantizing
// im2col path against the materialised reference, bit for bit.
func TestConvImplicitQParity(t *testing.T) {
	for ci, tc := range convParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(200 + ci))
			x := randTensor(r, tc.spec.InC, tc.h, tc.w)
			groups := tc.spec.Groups
			if groups <= 0 {
				groups = 1
			}
			w := randTensor(r, tc.spec.OutC, tc.spec.InC/groups, tc.spec.KH, tc.spec.KW)
			qw := QuantizePerChannel(w)
			const xScale = 1.0 / 127
			got := convPackedQForce(x, qw, tc.spec, xScale)
			want := conv2DQRef(x, qw, nil, tc.spec, xScale)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("elem %d: implicit int8 %v != reference %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
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

// assertZeroAllocs fails t unless fn performs zero heap allocations
// per steady-state call at every zeroAllocProcs setting.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	for _, procs := range zeroAllocProcs {
		if a := allocsAt(procs, 10, fn); a != 0 {
			t.Errorf("%s: %.0f allocs per steady-state call at GOMAXPROCS=%d, want 0", name, a, procs)
		}
	}
}

// TestPackedConvZeroAlloc asserts the steady-state implicit-im2col
// paths (fp32 and int8, with cached packed weights) perform zero heap
// allocations per call at every GOMAXPROCS — the contract the plan
// executor's zero-alloc frame loop builds on.
func TestPackedConvZeroAlloc(t *testing.T) {
	spec := ConvSpec{InC: 16, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := rng.New(11)
	x := randTensor(r, 16, 24, 24)
	w := randTensor(r, 32, 16, 3, 3)
	k, plane := 16*9, 24*24
	wp := PackWeights(FromSlice(w.Data, 32, k))
	qw := QuantizePerChannel(w)
	qp := PackWeightsQ(qw.Data, 32, k)
	rowScale := make([]float32, 32)
	for i := range rowScale {
		rowScale[i] = qw.ScaleFor(i) * (1.0 / 127)
	}
	dst := New(32, plane)
	ep := Epilogue{Act: EpActSiLU}
	runF := func() { ConvPackedInto(dst, wp, x, spec, 0, 24, 24, ep, 0) }
	runQ := func() { ConvPackedQInto(dst, qp, x, spec, 0, 24, 24, 127, rowScale, ep, 0) }
	runF()
	runQ()
	assertZeroAllocs(t, "ConvPackedInto", runF)
	assertZeroAllocs(t, "ConvPackedQInto", runQ)
}

// TestPoolAlignment property-tests the 64-byte alignment guarantee of
// both scratch pools: fresh allocations, recycled buffers, and buffers
// re-entering the pool misaligned must all come back out aligned.
func TestPoolAlignment(t *testing.T) {
	aligned := func(p unsafe.Pointer) bool { return uintptr(p)%poolAlign == 0 }
	r := rng.New(31)
	p := NewPool()
	bp := NewBytePool()
	for trial := 0; trial < 300; trial++ {
		n := 1 + int(r.Uint64()%10000)
		f := p.GetRaw(n)
		if !aligned(unsafe.Pointer(unsafe.SliceData(f))) {
			t.Fatalf("GetRaw(%d): misaligned buffer", n)
		}
		tt := p.Get(n)
		if !aligned(unsafe.Pointer(unsafe.SliceData(tt.Data))) {
			t.Fatalf("Get(%d): misaligned tensor backing", n)
		}
		b := bp.Get(n)
		if !aligned(unsafe.Pointer(unsafe.SliceData(b))) {
			t.Fatalf("BytePool.Get(%d): misaligned buffer", n)
		}
		// Poison the pools with deliberately misaligned views; the next
		// Gets must still hand out aligned starts.
		off := 1 + int(r.Uint64()%7)
		if len(f) > off {
			p.PutRaw(f[off:])
		} else {
			p.PutRaw(f)
		}
		p.Put(tt)
		if len(b) > off {
			bp.Put(b[off:])
		} else {
			bp.Put(b)
		}
	}
}

// TestPoolRawConcurrentStress hammers GetRaw/PutRaw (the packed-GEMM
// panel scratch entry points) from many goroutines; under -race this
// validates the locking discipline of the pack scratch pools, and the
// marker check that no buffer is ever shared.
func TestPoolRawConcurrentStress(t *testing.T) {
	p := NewPool()
	bp := NewBytePool()
	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 77)
			marker := float32(w + 1)
			bmark := int8(w + 1)
			for i := 0; i < rounds; i++ {
				n := 1 + int(r.Uint64()%4096)
				f := p.GetRaw(n)
				b := bp.Get(n)
				for j := range f {
					f[j] = marker
				}
				for j := range b {
					b[j] = bmark
				}
				for j := range f {
					if f[j] != marker {
						errs <- "float buffer shared between goroutines"
						return
					}
				}
				for j := range b {
					if b[j] != bmark {
						errs <- "byte buffer shared between goroutines"
						return
					}
				}
				p.PutRaw(f)
				bp.Put(b)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkPackedMatMul512(b *testing.B) {
	a := randTensor(rng.New(1), 512, 512)
	c := randTensor(rng.New(2), 512, 512)
	dst := New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulPackedInto(dst, a, c, Epilogue{}, 0)
	}
}

// BenchmarkRefMatMul512 is the retained reference kernel at the same
// shape — the denominator of the PR-5 speedup claims in BENCHMARKS.md.
func BenchmarkRefMatMul512(b *testing.B) {
	a := randTensor(rng.New(1), 512, 512)
	c := randTensor(rng.New(2), 512, 512)
	dst := New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulRefInto(dst, a, c)
	}
}
