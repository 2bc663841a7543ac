package tensor

import (
	"fmt"
	"math"
	"testing"

	"ocularone/internal/rng"
)

// Per-tier golden parity battery: every dispatch tier available on the
// host CPU is forced in turn (SetKernelTier) and run through the
// adversarial GEMM/conv shapes, the fused-epilogue comparison, and the
// ABFT property checks. CI additionally forces each tier for the whole
// package via OCULARONE_KERNEL_TIER, so the full suite — not just this
// battery — runs per tier; this battery guarantees coverage even in a
// single default-tier run.

// absLike returns a copy of t with every element replaced by |v| — the
// magnitude operand for evaluating FMA drift bounds.
func absLike(t *Tensor) *Tensor {
	out := New(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = float32(math.Abs(float64(v)))
	}
	return out
}

// gemmTolerances returns per-element tolerances for comparing a packed
// fp32 result against the separate-rounding scalar reference: zero on
// non-FMA tiers (the bit-exact contract), and the ascending-k summation
// bound abftTol(k, Σ|a||b|) on FMA tiers, whose fused chains round
// strictly fewer times than the bound assumes.
func gemmTolerances(a, b *Tensor) []float64 {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	tol := make([]float64, m*n)
	if !KernelTierFMA() {
		return tol
	}
	mag := New(m, n)
	matMulRefInto(mag, absLike(a), absLike(b))
	for i := range tol {
		tol[i] = abftTol(k, float64(mag.Data[i]))
	}
	return tol
}

// convTolerances is gemmTolerances for a convolution: the magnitude
// product is the same conv evaluated on |x|, |w|, |bias|, and the bound
// gains two rounding steps of headroom for the bias add.
func convTolerances(x, w, bias *Tensor, spec ConvSpec) []float64 {
	var absBias *Tensor
	if bias != nil {
		absBias = absLike(bias)
	}
	mag := conv2DRef(absLike(x), absLike(w), absBias, spec)
	tol := make([]float64, len(mag.Data))
	if !KernelTierFMA() {
		return tol
	}
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	k := spec.InC / groups * spec.KH * spec.KW
	for i := range tol {
		tol[i] = abftTol(k+2, float64(mag.Data[i]))
	}
	return tol
}

// cmpTol fails the test at the first element where |got-want| exceeds
// its tolerance (0 ⇒ bit-exact).
func cmpTol(t *testing.T, what string, got, want []float32, tol []float64) {
	t.Helper()
	for i := range want {
		d := math.Abs(float64(got[i]) - float64(want[i]))
		if d > tol[i] {
			t.Fatalf("%s elem %d: got %v want %v (|diff| %g > tol %g)",
				what, i, got[i], want[i], d, tol[i])
		}
	}
}

// forEachTier runs fn once per tier available on this CPU, with that
// tier forced, restoring the entry tier afterwards.
func forEachTier(t *testing.T, fn func(t *testing.T, tier string)) {
	orig := KernelTier()
	defer func() {
		if err := SetKernelTier(orig); err != nil {
			panic(err)
		}
	}()
	for _, tier := range KernelTiers() {
		t.Run(tier, func(t *testing.T) {
			if err := SetKernelTier(tier); err != nil {
				t.Fatalf("SetKernelTier(%q): %v", tier, err)
			}
			fn(t, tier)
		})
	}
}

// TestKernelTierRegistry sanity-checks the dispatch table: the generic
// tier is always present and first, the selected tier is listed, and
// the geometry the getters report matches the live driver parameters.
func TestKernelTierRegistry(t *testing.T) {
	tiers := KernelTiers()
	if len(tiers) == 0 || tiers[0] != TierGeneric {
		t.Fatalf("tier table %v: generic must be first", tiers)
	}
	found := false
	for _, tier := range tiers {
		if tier == KernelTier() {
			found = true
		}
	}
	if !found {
		t.Fatalf("selected tier %q not in table %v", KernelTier(), tiers)
	}
	if err := SetKernelTier("no-such-tier"); err == nil {
		t.Fatal("SetKernelTier accepted an unknown tier")
	}
	desc := KernelTierDesc()
	want := fmt.Sprintf("%s (fp32 %dx%d kc=%d, int8 4x%d)",
		KernelTier(), gemmMR, gemmNR, gemmKC, qNR)
	if desc != want {
		t.Fatalf("KernelTierDesc %q, want %q", desc, want)
	}
}

// TestTierGEMMParity runs the fp32 packed-vs-reference comparison at
// the PR-5 adversarial shapes on every available tier: bit-exact on
// non-FMA tiers, drift-bounded on FMA tiers.
func TestTierGEMMParity(t *testing.T) {
	shapes := [][3]int{
		{4, 16, 8}, {5, 16, 9}, {7, 33, 23}, {4, 256, 8}, {4, 257, 8},
		{12, 600, 40}, {64, 576, 100}, {129, 31, 257}, {6, 1000, 8},
		{4, 192, 24}, {4, 193, 25}, // kc and nr boundaries of the AVX tiers
	}
	forEachTier(t, func(t *testing.T, tier string) {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a := randTensor(rng.New(uint64(m*k+n)), m, k)
			b := randTensor(rng.New(uint64(k*n+m)), k, n)
			want := New(m, n)
			matMulRefInto(want, a, b)
			got := New(m, n)
			matMulPackedInto(got, a, b, Epilogue{}, 0)
			cmpTol(t, fmt.Sprintf("%dx%dx%d", m, k, n), got.Data, want.Data, gemmTolerances(a, b))
		}
	})
}

// TestTierGEMMInt8Parity pins the int8 kernels bit-exact against the
// reference tiles on every tier — integer accumulation admits no
// drift anywhere, including the VNNI fused path.
func TestTierGEMMInt8Parity(t *testing.T) {
	shapes := [][3]int{
		{4, 16, 8}, {5, 17, 9}, {7, 33, 23}, {12, 577, 40}, {64, 576, 100},
		{6, 999, 8}, {4, 64, 16}, {4, 65, 33}, // qNR boundaries of the AVX tiers
	}
	forEachTier(t, func(t *testing.T, tier string) {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
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
					t.Fatalf("%dx%dx%d elem %d: packed int8 %v != reference %v",
						m, k, n, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

// TestTierConvParity runs the implicit-im2col convolutions (fp32 and
// int8) against the materialised references on every tier at the
// adversarial conv specs: 1×1, grouped, strided, dilated, kc-spanning
// k, and mid-sliver output wrap.
func TestTierConvParity(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		for ci, tc := range convParityCases() {
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
				cmpTol(t, tc.name, got.Data, want.Data, convTolerances(x, w, b, tc.spec))
			}
			qw := QuantizePerChannel(w)
			const xScale = 1.0 / 127
			gotQ := convPackedQForce(x, qw, tc.spec, xScale)
			wantQ := conv2DQRef(x, qw, nil, tc.spec, xScale)
			for i := range gotQ.Data {
				if gotQ.Data[i] != wantQ.Data[i] {
					t.Fatalf("%s elem %d: implicit int8 %v != reference %v",
						tc.name, i, gotQ.Data[i], wantQ.Data[i])
				}
			}
		}
	})
}

// TestTierFusedEpilogueParity pins the fused per-stripe epilogue
// bit-exact against the same packed GEMM followed by the row-wise
// epilogue, on every tier and activation — fusion must not change the
// epilogue's op chain regardless of tile width.
func TestTierFusedEpilogueParity(t *testing.T) {
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
	forEachTier(t, func(t *testing.T, tier string) {
		for _, act := range []EpAct{EpActNone, EpActSiLU, EpActReLU, EpActSigmoid} {
			ep := Epilogue{Scale: scale, Shift: shift, Act: act}
			want := New(m, n)
			matMulPackedInto(want, a, b, Epilogue{}, 0)
			ep.apply(want.Data, 0, m, n, 0)
			got := New(m, n)
			matMulPackedInto(got, a, b, ep, 0)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("act %d elem %d: fused %v != separate %v", act, i, got.Data[i], want.Data[i])
				}
			}
		}
	})
}

// TestTierCrossConsistency pins the cross-tier relationships directly:
// int8 results are bit-identical across ALL tiers, and the two FMA
// tiers (which share the fp32 kernel) are bit-identical to each other,
// as are the two non-FMA tiers.
func TestTierCrossConsistency(t *testing.T) {
	const m, k, n = 12, 600, 48
	a := randTensor(rng.New(21), m, k)
	b := randTensor(rng.New(22), k, n)
	qa := QuantizePerChannel(a)
	qb := QuantizeSymmetric(b)
	rowScale := make([]float32, m)
	for i := range rowScale {
		rowScale[i] = qa.ScaleFor(i) * qb.Scales[0]
	}
	type res struct {
		fma  bool
		f, q *Tensor
	}
	results := map[string]res{}
	forEachTier(t, func(t *testing.T, tier string) {
		f := New(m, n)
		matMulPackedInto(f, a, b, Epilogue{}, 0)
		q := New(m, n)
		matMulInt8PackedInto(q, qa, qb, rowScale, Epilogue{}, 0)
		results[tier] = res{fma: KernelTierFMA(), f: f, q: q}
	})
	for t1, r1 := range results {
		for t2, r2 := range results {
			if t1 >= t2 {
				continue
			}
			for i := range r1.q.Data {
				if r1.q.Data[i] != r2.q.Data[i] {
					t.Fatalf("int8 elem %d: %s %v != %s %v", i, t1, r1.q.Data[i], t2, r2.q.Data[i])
				}
			}
			if r1.fma != r2.fma {
				continue
			}
			for i := range r1.f.Data {
				if r1.f.Data[i] != r2.f.Data[i] {
					t.Fatalf("fp32 elem %d: %s %v != %s %v (same rounding regime)",
						i, t1, r1.f.Data[i], t2, r2.f.Data[i])
				}
			}
		}
	}
}

// TestTierABFTProperties runs the ABFT property checks per tier: clean
// checked runs never false-positive under the FMA-valid tolerance, a
// sign flip on the largest stripe element is always detected, and int8
// detection is exact.
func TestTierABFTProperties(t *testing.T) {
	defer func() { ABFTFaultF32, ABFTFaultQ = nil, nil }()
	forEachTier(t, func(t *testing.T, tier string) {
		ep := Epilogue{Act: EpActSiLU}
		for trial := 0; trial < 120; trial++ {
			s := abftShapes()[trial%len(abftShapes())]
			m, k, n := s[0], s[1], s[2]
			r := rng.New(uint64(17000 + trial))
			a := randTensor(r, m, k)
			b := randTensor(r, k, n)
			e := Epilogue{}
			if trial%2 == 1 {
				e = ep
			}
			got := New(m, n)
			if trial%4 == 3 {
				qa := QuantizePerChannel(a)
				qb := QuantizeSymmetric(b)
				rowScale := make([]float32, m)
				for i := range rowScale {
					rowScale[i] = qa.ScaleFor(i) * qb.Scales[0]
				}
				if !MatMulInt8EpilogueCheckInto(got, qa, qb, rowScale, e, 0) {
					t.Fatalf("trial %d (%dx%dx%d int8): clean run flagged", trial, m, k, n)
				}
				continue
			}
			if !MatMulEpilogueCheckInto(got, a, b, e, 0) {
				t.Fatalf("trial %d (%dx%dx%d fp32): clean run flagged", trial, m, k, n)
			}
		}
		// Detection smoke per tier: sign flip in the first stripe.
		m, k, n := 16, 255, 33
		a := randTensor(rng.New(5), m, k)
		b := randTensor(rng.New(6), k, n)
		hit := false
		ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
			if hit || j0 != 0 {
				return
			}
			flipTopAbs(d, dn, m, 0, 1<<31)
			hit = true
		}
		got := New(m, n)
		if MatMulEpilogueCheckInto(got, a, b, Epilogue{}, 0) {
			t.Fatal("fp32 sign-flip corruption not detected")
		}
		ABFTFaultF32 = nil
		if !hit {
			t.Fatal("fp32 fault hook never fired")
		}
		qa := QuantizePerChannel(a)
		qb := QuantizeSymmetric(b)
		rowScale := make([]float32, m)
		for i := range rowScale {
			rowScale[i] = qa.ScaleFor(i) * qb.Scales[0]
		}
		qhit := false
		ABFTFaultQ = func(acc []int32, i0, j0 int) {
			if qhit || i0 != 0 || j0 != 0 {
				return
			}
			acc[0] ^= 1 // LSB: below any fp32 noise floor, still exact int8
			qhit = true
		}
		if MatMulInt8EpilogueCheckInto(got, qa, qb, rowScale, Epilogue{}, 0) {
			t.Fatal("int8 LSB corruption not detected")
		}
		ABFTFaultQ = nil
		if !qhit {
			t.Fatal("int8 fault hook never fired")
		}
	})
}

// TestTierZeroAlloc pins the steady-state packed conv paths at zero
// heap allocations on every tier and at every GOMAXPROCS — widening
// the tile must not cost the frame loop its allocation contract.
func TestTierZeroAlloc(t *testing.T) {
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
	forEachTier(t, func(t *testing.T, tier string) {
		runF := func() { ConvPackedInto(dst, wp, x, spec, 0, 24, 24, ep, 0) }
		runQ := func() { ConvPackedQInto(dst, qp, x, spec, 0, 24, 24, 127, rowScale, ep, 0) }
		runF()
		runQ()
		assertZeroAllocs(t, "ConvPackedInto", runF)
		assertZeroAllocs(t, "ConvPackedQInto", runQ)
	})
}
