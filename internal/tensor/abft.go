package tensor

import "fmt"

// Algorithm-based fault tolerance (ABFT) for the packed GEMM core:
// Huang–Abraham column checksums verified per C stripe.
//
// For C = A×B the left operand carries a checksum row
//
//	csum[kk] = Σ_i A[i,kk]        (float64, exact enough vs fp32 data)
//
// so every output column satisfies Σ_i C[i,j] = Σ_kk csum[kk]·B[kk,j].
// The checked drivers below accumulate the right-hand side while the B
// panel is packed (the panel is already L1-resident, so the extra
// gemmNR multiply-adds per k step cost ~1/m of the kernel's work) and
// compare it with the column sums of the finished stripe before the
// epilogue runs. A silent corruption anywhere in the packed panels,
// the micro-kernel accumulators, or the C stripe shifts a column sum
// away from its prediction and is flagged; the caller then re-executes
// through the retained reference kernel (MatMulRefEpilogueInto /
// MatMulInt8RefEpilogueInto).
//
// fp32 verification is tolerance-banded: the kernel accumulates each
// element as an ascending-k fp32 chain, so the column sum may drift
// from the float64 prediction by up to γ_k·Σ|a||b| (the standard
// summation error bound). The checked driver therefore also carries an
// absolute checksum acsum[kk] = Σ_i |A[i,kk]| to evaluate that bound
// per column exactly; perturbations below the fp32 noise floor are
// mathematically indistinguishable from roundoff and stay undetected
// (the ext-integrity study reports measured coverage per flipped bit
// position). int8 accumulation is exact integer math, so the int8
// check is an equality test and every accumulator corruption is
// detected.
//
// Clean runs can never false-positive: the tolerance is the worst-case
// rounding bound, not an empirical margin. TestABFTCleanNoFalsePositive
// pins this across 1k seeded trials.

// abftEps is the fp32 unit roundoff (2^-24).
const abftEps = 1.0 / (1 << 24)

// abftTol returns the verification tolerance for one output column:
// the worst-case fp32 accumulation error of m length-k dot products
// sharing the absolute-value bound mag = Σ_i Σ_kk |a|·|b|, plus the
// (negligible) float64 checksum error folded into a 1% safety factor.
//
// The bound is derived for the separate multiply-then-add chain (two
// roundings per k step → γ_k with k error terms per product). The FMA
// tiers round once per step, strictly fewer roundings along the same
// ascending-k chain, so every FMA dot product satisfies the same γ_k
// bound — the tolerance holds across tiers and needs no per-tier
// re-derivation, merely losing a little tightness on FMA.
func abftTol(k int, mag float64) float64 {
	ku := float64(k) * abftEps
	return 1.01 * ku / (1 - ku) * mag
}

// Test hooks: when non-nil, the checked drivers invoke these after the
// kernel finishes a stripe (fp32: on the raw pre-epilogue C stripe;
// int8: on the pre-requant int32 accumulator tile) — the injection
// point of the ABFT property tests and the ext-integrity study. Always
// nil in production.
var (
	ABFTFaultF32 func(dst []float32, n, j0, jw int)
	ABFTFaultQ   func(acc []int32, i0, j0 int)
)

// scratchC recycles float64 checksum rows for the per-call checked
// MatMul entry points (compile-time packed weights carry their
// checksums instead and never touch it).
var scratchC = func() *rawPool[float64] { p := newRawPool[float64](); return &p }()

// colChecksumsF32 fills csum/acsum (length k) with the plain and
// absolute column sums of row-major a (m×k).
func colChecksumsF32(csum, acsum []float64, a []float32, m, k int) {
	for kk := 0; kk < k; kk++ {
		csum[kk], acsum[kk] = 0, 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		for kk, v := range arow {
			f := float64(v)
			csum[kk] += f
			if f < 0 {
				f = -f
			}
			acsum[kk] += f
		}
	}
}

// colChecksumsQ fills csum (pair-interleaved, length 2·⌈k/2⌉) with the
// column sums of row-major int8 a (m×k): csum[2·kk2+s] = Σ_i a[i,2·kk2+s],
// matching the pair layout of the packed B slivers.
func colChecksumsQ(csum []int64, a []int8, m, k int) {
	for i := range csum {
		csum[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		for kk, v := range arow {
			csum[(kk/2)*2+kk&1] += int64(v)
		}
	}
}

// gemmStripesF32Check is gemmStripesF32 with per-stripe checksum
// verification; it reports whether every stripe passed. csum/acsum are
// the left operand's (absolute) column checksums over depth k. The
// kernel schedule is identical to gemmStripesF32's (so results stay
// bit-exact with the unchecked driver), with the expected column sums
// accumulated during the panel pack and verified before the epilogue
// touches the stripe.
func gemmStripesF32Check[S f32BSource](dst []float32, m, n, k int, apData []float32, src S, ep Epilogue, chanOff int, csum, acsum []float64) bool {
	buf := Scratch.GetRaw((gemmKC + gemmMR) * gemmNR)
	bbuf, ctile := buf[:gemmKC*gemmNR], buf[gemmKC*gemmNR:]
	epWork := ep.hasWork()
	ok := true
	// Fixed max-tier arrays so the checksum rows never escape; only the
	// first gemmNR entries are live for the selected tier.
	var expArr, magArr [gemmNRMax]float64
	nr := gemmNR
	exp, mag := expArr[:nr], magArr[:nr]
	for j0 := 0; j0 < n; j0 += nr {
		jw := n - j0
		if jw > nr {
			jw = nr
		}
		for j := range exp {
			exp[j], mag[j] = 0, 0
		}
		for k0 := 0; k0 < k; k0 += gemmKC {
			kc := k - k0
			if kc > gemmKC {
				kc = gemmKC
			}
			src.pack(bbuf, k0, kc, j0, jw)
			for kk := 0; kk < kc; kk++ {
				cs, as := csum[k0+kk], acsum[k0+kk]
				row := bbuf[kk*nr : kk*nr+nr]
				for j, v := range row {
					b := float64(v)
					exp[j] += cs * b
					if b < 0 {
						b = -b
					}
					mag[j] += as * b
				}
			}
			accum := uintptr(0)
			if k0 > 0 {
				accum = 1
			}
			i0 := 0
			if jw == nr {
				for ; i0+gemmMR <= m; i0 += gemmMR {
					apan := apData[(i0/gemmMR)*k*gemmMR+k0*gemmMR:]
					kernF32(&dst[i0*n+j0], n, &apan[0], &bbuf[0], kc, accum)
				}
			}
			if i0 < m {
				gemmEdgeF32(dst, n, apData, bbuf, ctile, k, k0, kc, i0, m, j0, jw, accum == 1)
			}
		}
		if ABFTFaultF32 != nil {
			ABFTFaultF32(dst, n, j0, jw)
		}
		for j := 0; j < jw; j++ {
			var act float64
			for i := 0; i < m; i++ {
				act += float64(dst[i*n+j0+j])
			}
			d := exp[j] - act
			if d < 0 {
				d = -d
			}
			if d > abftTol(k, mag[j]) {
				ok = false
			}
		}
		if epWork {
			ep.applyCols(dst, 0, m, n, j0, j0+jw, chanOff)
		}
	}
	Scratch.PutRaw(buf)
	return ok
}

// gemmStripesQCheck is gemmStripesQ with exact per-stripe accumulator
// verification; csum is the pair-interleaved int64 checksum row. The
// kernel tiles accumulate exactly as gemmStripesQ's, but every int32
// accumulator is folded into the actual column sums before requant, so
// the equality test against the checksum prediction sees precisely the
// values that produce dst.
func gemmStripesQCheck[S qBSource](dst []float32, m, n, k int, apData []int16, src S, rowScale []float32, ep Epilogue, chanOff int, csum []int64) bool {
	k2 := (k + 1) / 2
	bbuf := ScratchB.Get(k2 * 2 * qNR)
	epWork := ep.hasWork()
	ok := true
	nr := qNR
	acc := scratchI32.get(4 * nr)
	// Fixed max-tier arrays so the checksum rows never escape; only the
	// first qNR entries are live for the selected tier.
	var expArr, actArr [qNRMax]int64
	exp, act := expArr[:nr], actArr[:nr]
	for j0 := 0; j0 < n; j0 += nr {
		jw := n - j0
		if jw > nr {
			jw = nr
		}
		src.pack(bbuf, j0, jw)
		for j := range exp {
			exp[j], act[j] = 0, 0
		}
		for kk := 0; kk < k2; kk++ {
			c0, c1 := csum[kk*2], csum[kk*2+1]
			row := bbuf[kk*2*nr : kk*2*nr+2*nr]
			for j := 0; j < nr; j++ {
				exp[j] += c0*int64(row[j*2]) + c1*int64(row[j*2+1])
			}
		}
		i0 := 0
		if jw == nr {
			for ; i0+4 <= m; i0 += 4 {
				kernQ(&acc[0], &apData[(i0/4)*k2*8], &bbuf[0], k2)
				if ABFTFaultQ != nil {
					ABFTFaultQ(acc, i0, j0)
				}
				for r := 0; r < 4; r++ {
					sc := rowScale[i0+r]
					drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+nr]
					ar := acc[r*nr : (r+1)*nr]
					for j, v := range ar {
						act[j] += int64(v)
						drow[j] = float32(v) * sc
					}
				}
			}
		}
		// Ragged tiles run the same kernel over the zero-padded panels
		// (exact integer zeros, as in gemmEdgeQ), folding only the live
		// columns into the actual sums.
		for ; i0 < m; i0 += 4 {
			rows := m - i0
			if rows > 4 {
				rows = 4
			}
			kernQ(&acc[0], &apData[(i0/4)*k2*8], &bbuf[0], k2)
			if ABFTFaultQ != nil {
				ABFTFaultQ(acc, i0, j0)
			}
			for r := 0; r < rows; r++ {
				sc := rowScale[i0+r]
				drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+jw]
				ar := acc[r*nr : r*nr+jw]
				for j, v := range ar {
					act[j] += int64(v)
					drow[j] = float32(v) * sc
				}
			}
		}
		for j := 0; j < jw; j++ {
			if exp[j] != act[j] {
				ok = false
			}
		}
		if epWork {
			ep.applyCols(dst, 0, m, n, j0, j0+jw, chanOff)
		}
	}
	scratchI32.put(acc)
	ScratchB.Put(bbuf)
	return ok
}

// ConvPackedCheckInto is ConvPackedInto with ABFT verification; it
// reports whether every output stripe's column checksum matched. The
// result tensor is fully written either way (an undetectable
// sub-roundoff perturbation still yields a usable output); on false
// the caller should re-execute through the reference kernel. Zero heap
// allocations in steady state.
func ConvPackedCheckInto(dst *Tensor, wp *PackedA, x *Tensor, spec ConvSpec, c0, oh, ow int, ep Epilogue, chanOff int) bool {
	m, k := wp.m, wp.k
	n := oh * ow
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: ConvPackedCheckInto dst %v, want [%d %d]", dst.Shape, m, n))
	}
	return gemmStripesF32Check(dst.Data, m, n, k, wp.data, f32ConvB{x: x, spec: spec, c0: c0, oh: oh, ow: ow}, ep, chanOff, wp.csum, wp.acsum)
}

// ConvPackedQCheckInto is ConvPackedQInto with exact int8 ABFT
// verification, reporting whether every accumulator stripe matched its
// checksum prediction. Zero heap allocations in steady state.
func ConvPackedQCheckInto(dst *Tensor, wp *PackedQ, x *Tensor, spec ConvSpec, c0, oh, ow int, inv float32, rowScale []float32, ep Epilogue, chanOff int) bool {
	m, k := wp.m, wp.k
	n := oh * ow
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: ConvPackedQCheckInto dst %v, want [%d %d]", dst.Shape, m, n))
	}
	return gemmStripesQCheck(dst.Data, m, n, k, wp.data, qConvB{x: x, inv: inv, spec: spec, c0: c0, k: k, oh: oh, ow: ow}, rowScale, ep, chanOff, wp.csum)
}

// MatMulEpilogueCheckInto is MatMulEpilogueInto with ABFT verification
// on the packed path (per-call checksum row over pooled scratch).
// Shapes below the packed threshold run the reference kernel, which is
// the recovery target itself, and report true.
func MatMulEpilogueCheckInto(dst, a, b *Tensor, ep Epilogue, chanOff int) bool {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulEpilogueCheckInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if !UsePackedGEMM(m, k, n) {
		MatMulRefEpilogueInto(dst, a, b, ep, chanOff)
		return true
	}
	apData := Scratch.GetRaw(packALen(m, k))
	packATo(apData, a.Data, m, k)
	cs := scratchC.get(2 * k)
	csum, acsum := cs[:k], cs[k:]
	colChecksumsF32(csum, acsum, a.Data, m, k)
	ok := gemmStripesF32Check(dst.Data, m, n, k, apData, f32MatrixB{b: b.Data, n: n}, ep, chanOff, csum, acsum)
	scratchC.put(cs)
	Scratch.PutRaw(apData)
	return ok
}

// MatMulInt8EpilogueCheckInto is the int8 matrix twin of
// MatMulEpilogueCheckInto: exact accumulator verification on the
// packed path, reference kernel (reported true) below the threshold.
func MatMulInt8EpilogueCheckInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) bool {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if !UsePackedGEMM(m, k, n) {
		MatMulInt8RefEpilogueInto(dst, a, b, rowScale, ep, chanOff)
		return true
	}
	apData := scratchW.get(packQLen(m, k))
	packQTo(apData, a.Data, m, k)
	csum := scratchQC.get(2 * ((k + 1) / 2))
	colChecksumsQ(csum, a.Data, m, k)
	ok := gemmStripesQCheck(dst.Data, m, n, k, apData, qMatrixB{b: b.Data, k: k, n: n}, rowScale, ep, chanOff, csum)
	scratchQC.put(csum)
	scratchW.put(apData)
	return ok
}

// scratchQC recycles int64 checksum rows for the per-call checked int8
// entry points.
var scratchQC = func() *rawPool[int64] { p := newRawPool[int64](); return &p }()

// scratchI32 recycles the checked int8 driver's accumulator tiles: the
// fault-injection hook sees the tile as a slice, which would force a
// stack array to escape per call — pooling it keeps the checked path
// at zero steady-state allocations.
var scratchI32 = func() *rawPool[int32] { p := newRawPool[int32](); return &p }()

// MatMulRefEpilogueInto computes dst = A×B + epilogue strictly through
// the retained reference kernel (the blocked ikj loop), bypassing the
// packed-GEMM routing — the re-execution target of the integrity
// layer's on-detect path. Results are bit-identical to the packed path
// for finite inputs on the non-FMA tiers, and within the abftTol drift
// band of it on the FMA tiers (consumers of a recovery compare with
// the matching regime).
func MatMulRefEpilogueInto(dst, a, b *Tensor, ep Epilogue, chanOff int) {
	m := a.Shape[0]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulRefEpilogueInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	matMulRefInto(dst, a, b)
	ep.apply(dst.Data, 0, m, n, chanOff)
}

// MatMulInt8RefEpilogueInto is MatMulInt8EpilogueInto pinned to the
// reference int8 tiles — the int8 re-execution target. Requantization
// and epilogue replay the identical float32 op sequence, so a clean
// re-execution reproduces the packed result bit for bit.
func MatMulInt8RefEpilogueInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) {
	m := a.Shape[0]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInt8RefEpilogueInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	var acc [4 * qnBlock]int32
	int8EpilogueRange(dst, a, b, rowScale, ep, chanOff, acc[:], 0, m)
}
