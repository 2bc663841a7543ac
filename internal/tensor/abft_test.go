package tensor

import (
	"fmt"
	"math"
	"testing"

	"ocularone/internal/rng"
)

// abftShapes are the adversarial GEMM shapes of the ABFT property
// suite: ragged m/n/k, k straddling the kc block boundary, and wide
// edge stripes. All pass UsePackedGEMM so the checked driver actually
// runs the packed kernel.
func abftShapes() [][3]int {
	return [][3]int{
		{4, 256, 128},  // k == kc exactly
		{7, 257, 80},   // k one past the block, ragged m
		{16, 255, 33},  // k one short of the block, ragged n
		{12, 600, 48},  // multiple kc blocks, ragged tail
		{64, 576, 100}, // the YOLO trunk shape
		{129, 31, 257}, // shallow k, everything ragged
		{4, 1000, 128}, // four blocks, minimum m
	}
}

// flipTopAbs flips the given bit of the largest-magnitude element in
// column j of rows [0, m) — a single-bit SDC on the element where
// detection is hardest to confuse with roundoff yet guaranteed above
// the tolerance band for these shapes (sign and exponent bits move the
// column sum by ≥ |v|, orders of magnitude over γ_k·mag).
func flipTopAbs(d []float32, n, m, j int, mask uint32) {
	best, bi := float32(-1), 0
	for i := 0; i < m; i++ {
		v := d[i*n+j]
		if v < 0 {
			v = -v
		}
		if v > best {
			best, bi = v, i
		}
	}
	d[bi*n+j] = math.Float32frombits(math.Float32bits(d[bi*n+j]) ^ mask)
}

// TestABFTDetectsPerturbationF32 injects single-bit perturbations
// (sign flip and exponent flip of the largest column element) into
// every stripe position class at adversarial shapes and asserts the
// fp32 checksum verification always detects them, and that reference
// re-execution recovers the bit-exact clean result.
func TestABFTDetectsPerturbationF32(t *testing.T) {
	defer func() { ABFTFaultF32 = nil }()
	for _, s := range abftShapes() {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randTensor(rng.New(uint64(7*m+k+n)), m, k)
			b := randTensor(rng.New(uint64(m+3*k+n)), k, n)
			clean := New(m, n)
			matMulPackedInto(clean, a, b, Epilogue{}, 0)
			nSliv := (n + gemmNR - 1) / gemmNR
			for _, mask := range []uint32{1 << 31, 1 << 23} { // sign, exponent LSB
				for _, sliv := range []int{0, nSliv / 2, nSliv - 1} {
					target := sliv * gemmNR
					hit := false
					ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
						if j0 != target || hit {
							return
						}
						flipTopAbs(d, dn, m, j0+jw-1, mask)
						hit = true
					}
					got := New(m, n)
					if MatMulEpilogueCheckInto(got, a, b, Epilogue{}, 0) {
						t.Fatalf("mask %#x stripe %d: corruption not detected", mask, sliv)
					}
					if !hit {
						t.Fatalf("mask %#x stripe %d: fault hook never fired", mask, sliv)
					}
					ABFTFaultF32 = nil
					// On-detect recovery: the reference kernel reproduces the
					// clean packed result bit for bit on non-FMA tiers, and
					// within the drift bound on FMA tiers.
					MatMulRefEpilogueInto(got, a, b, Epilogue{}, 0)
					cmpTol(t, "recovery vs clean", got.Data, clean.Data, gemmTolerances(a, b))
				}
			}
		})
	}
}

// TestABFTDetectsPerturbationQ injects single-bit flips at every bit
// position of an int32 accumulator and asserts the exact int8
// verification detects all of them — integer checksums have no
// tolerance band, so even bit 0 is caught.
func TestABFTDetectsPerturbationQ(t *testing.T) {
	defer func() { ABFTFaultQ = nil }()
	for _, s := range [][3]int{{4, 256, 128}, {12, 577, 48}, {64, 576, 100}, {5, 999, 120}} {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := QuantizePerChannel(randTensor(rng.New(uint64(m+k)), m, k))
			b := QuantizeSymmetric(randTensor(rng.New(uint64(n+k)), k, n))
			rowScale := make([]float32, m)
			for i := range rowScale {
				rowScale[i] = a.ScaleFor(i) * b.Scales[0]
			}
			for bit := 0; bit < 32; bit++ {
				hit := false
				ABFTFaultQ = func(acc []int32, i0, j0 int) {
					if hit || i0 != 0 || j0 != 0 {
						return
					}
					acc[bit%len(acc)] ^= 1 << bit
					hit = true
				}
				got := New(m, n)
				if MatMulInt8EpilogueCheckInto(got, a, b, rowScale, Epilogue{}, 0) {
					t.Fatalf("bit %d: accumulator corruption not detected", bit)
				}
				if !hit {
					t.Fatalf("bit %d: fault hook never fired", bit)
				}
			}
			ABFTFaultQ = nil
		})
	}
}

// TestABFTConvDetectsPerturbation runs the checked implicit-im2col
// convolutions (fp32 and int8) across the adversarial conv specs —
// 1×1, strided, dilated, grouped, kc-spanning k — with an injected
// perturbation, asserting detection on every spec, and pins the clean
// checked paths bit-identical to the unchecked kernels.
func TestABFTConvDetectsPerturbation(t *testing.T) {
	defer func() { ABFTFaultF32, ABFTFaultQ = nil, nil }()
	for ci, tc := range convParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(300 + ci))
			x := randTensor(r, tc.spec.InC, tc.h, tc.w)
			groups := tc.spec.Groups
			if groups <= 0 {
				groups = 1
			}
			icg, ocg := tc.spec.InC/groups, tc.spec.OutC/groups
			k := icg * tc.spec.KH * tc.spec.KW
			w := randTensor(r, tc.spec.OutC, icg, tc.spec.KH, tc.spec.KW)
			oh, ow := tc.spec.OutSize(tc.h, tc.w)
			plane := oh * ow
			wp := PackWeights(FromSlice(w.Data[:ocg*k], ocg, k))
			clean := New(ocg, plane)
			ConvPackedInto(clean, wp, x, tc.spec, 0, oh, ow, Epilogue{}, 0)

			// Clean checked run: verified true, bit-identical output.
			got := New(ocg, plane)
			if !ConvPackedCheckInto(got, wp, x, tc.spec, 0, oh, ow, Epilogue{}, 0) {
				t.Fatal("clean fp32 conv flagged as corrupt")
			}
			for i := range got.Data {
				if got.Data[i] != clean.Data[i] {
					t.Fatalf("checked conv elem %d: %v != unchecked %v", i, got.Data[i], clean.Data[i])
				}
			}
			// Injected sign flip: always detected.
			hit := false
			ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
				if hit {
					return
				}
				flipTopAbs(d, dn, ocg, j0, 1<<31)
				hit = true
			}
			if ConvPackedCheckInto(got, wp, x, tc.spec, 0, oh, ow, Epilogue{}, 0) {
				t.Fatal("fp32 conv corruption not detected")
			}
			ABFTFaultF32 = nil

			// int8 twin.
			qw := QuantizePerChannel(w)
			const xScale = 1.0 / 127
			qp := PackWeightsQ(qw.Data[:ocg*k], ocg, k)
			rs := convQScales(qw, xScale, 0, ocg)
			cleanQ := New(ocg, plane)
			ConvPackedQInto(cleanQ, qp, x, tc.spec, 0, oh, ow, 1/xScale, rs, Epilogue{}, 0)
			if !ConvPackedQCheckInto(got, qp, x, tc.spec, 0, oh, ow, 1/xScale, rs, Epilogue{}, 0) {
				t.Fatal("clean int8 conv flagged as corrupt")
			}
			for i := range got.Data {
				if got.Data[i] != cleanQ.Data[i] {
					t.Fatalf("checked int8 conv elem %d: %v != unchecked %v", i, got.Data[i], cleanQ.Data[i])
				}
			}
			if ocg >= 4 && plane >= gemmNR { // the hook fires on full kernel tiles only
				hit = false
				ABFTFaultQ = func(acc []int32, i0, j0 int) {
					if hit {
						return
					}
					acc[0] ^= 1 << 13
					hit = true
				}
				detected := !ConvPackedQCheckInto(got, qp, x, tc.spec, 0, oh, ow, 1/xScale, rs, Epilogue{}, 0)
				ABFTFaultQ = nil
				if hit && !detected {
					t.Fatal("int8 conv accumulator corruption not detected")
				}
			}
		})
	}
}

// TestABFTCleanNoFalsePositive hammers the checked drivers with 1000
// seeded clean trials across fp32 and int8, mixed shapes and
// epilogues: the verification must never flag a clean run — the
// tolerance is the worst-case rounding bound, not a tuned margin.
func TestABFTCleanNoFalsePositive(t *testing.T) {
	shapes := abftShapes()
	ep := Epilogue{Act: EpActSiLU}
	for trial := 0; trial < 1000; trial++ {
		s := shapes[trial%len(shapes)]
		m, k, n := s[0], s[1], s[2]
		r := rng.New(uint64(9000 + trial))
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
				t.Fatalf("trial %d (%dx%dx%d int8): clean run flagged as corrupt", trial, m, k, n)
			}
			continue
		}
		if !MatMulEpilogueCheckInto(got, a, b, e, 0) {
			t.Fatalf("trial %d (%dx%dx%d fp32): clean run flagged as corrupt", trial, m, k, n)
		}
	}
}

// TestABFTCheckZeroAlloc pins the steady-state checked conv paths at
// zero heap allocations at every GOMAXPROCS — ABFT must not cost the
// plan executor its 0 allocs/frame contract.
func TestABFTCheckZeroAlloc(t *testing.T) {
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
	runF := func() {
		if !ConvPackedCheckInto(dst, wp, x, spec, 0, 24, 24, ep, 0) {
			t.Fatal("clean checked conv flagged")
		}
	}
	runQ := func() {
		if !ConvPackedQCheckInto(dst, qp, x, spec, 0, 24, 24, 127, rowScale, ep, 0) {
			t.Fatal("clean checked int8 conv flagged")
		}
	}
	runF()
	runQ()
	assertZeroAllocs(t, "ConvPackedCheckInto", runF)
	assertZeroAllocs(t, "ConvPackedQCheckInto", runQ)
}

// BenchmarkConvABFT measures the checked implicit-im2col conv against
// the unchecked kernel at the YOLO trunk shape — the ABFT overhead
// number reported in BENCHMARKS.md.
func BenchmarkConvABFT(b *testing.B) {
	spec := ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := rng.New(11)
	x := randTensor(r, 64, 48, 48)
	w := randTensor(r, 64, 64, 3, 3)
	k, plane := 64*9, 48*48
	wp := PackWeights(FromSlice(w.Data, 64, k))
	dst := New(64, plane)
	ep := Epilogue{Act: EpActSiLU}
	b.Run("unchecked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ConvPackedInto(dst, wp, x, spec, 0, 48, 48, ep, 0)
		}
	})
	b.Run("abft", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ConvPackedCheckInto(dst, wp, x, spec, 0, 48, 48, ep, 0)
		}
	})
}
