package tensor

import "fmt"

// This file is the packed, register-blocked GEMM core: a BLIS-style
// rearchitecture of the matrix-multiply hot path that replaces the
// unpacked ikj/axpy loop for every large-enough shape.
//
// Decomposition (C = A×B, A m×k, B k×n, C row-major):
//
//   - A is packed once into column-major micro-panels of gemmMR rows
//     (PackedA): panel p holds rows [p·MR, p·MR+MR) as MR consecutive
//     floats per k step, zero-padded past row m. For convolution
//     weights this happens once at plan-compile time; the generic
//     MatMul path packs per call into pooled scratch (~m·k copies,
//     amortised over the n/NR panel reuses).
//   - B is never materialised whole. For each NR-column sliver of C the
//     driver packs one kc×NR panel at a time into an L1-resident,
//     64-byte-aligned scratch buffer — and for convolutions that pack
//     IS im2col: the panel is gathered straight from the input tensor's
//     receptive fields (implicit-im2col GEMM), so the full k×n cols
//     matrix of the old lowering never exists.
//   - The micro-kernel (kernF32, bound by CPU dispatch — see
//     dispatch.go) keeps a gemmMR×gemmNR float32 accumulator tile in
//     registers and streams the two packed panels: 4×8 with SSE
//     MULPS/ADDPS on the sse2 tier, 4×24 with 12 YMM accumulators and
//     fused multiply-adds on the avx2fma tier. Loop tiling: the k loop
//     is cut into gemmKC blocks so the B panel (KC×NR floats) plus the
//     A panel slice (MR×KC) stay L1-resident against the reference
//     Xeon's 48 KB L1d, and the C stripe revisited per block stays hot.
//
// The B source is a type parameter (a value struct, never boxed) and
// the epilogue travels by value, so a steady-state call performs zero
// heap allocations — the contract the plan executor's frame loop is
// pinned to.
//
// Parity contract: the non-FMA kernels — SSE2 assembly, generic, and
// the edge cases — accumulate each C element as one chain of separate
// single-precision multiply-then-add steps in ascending-k order,
// exactly the op sequence of the retained reference kernel
// (matMulRefInto), so their packed results are bit-identical to the
// reference for finite inputs. The FMA tiers keep the ascending-k
// order but fuse each multiply-add into a single rounding, so their
// results are drift-bounded against the reference (KernelTierFMA
// gates which comparison applies). The golden tests in pack_test.go
// pin both regimes at adversarial shapes, per tier.

// gemmMR is the register-tile row count, fixed at 4 across every
// dispatch tier (dispatch.go): network channel counts divide by 4, so
// no conv row falls to the scalar edge, and — more importantly — the
// PackedA/PackedQ layouts depend only on MR, so packed weights stay
// valid across tier switches. The column width gemmNR and k-block
// gemmKC are per-tier variables bound by dispatch: 8/256 for the
// 8-XMM SSE2 tile, 24/192 for the 12-YMM FMA tile (B panel KC·NR·4 B
// ≈ 18 KB + A slice MR·KC·4 B ≈ 3 KB + C stripe stay inside L1d).
const gemmMR = 4

// PackedA is a left GEMM operand packed into gemmMR-row micro-panels:
// data[p·(k·MR) + kk·MR + r] = A[p·MR+r, kk], zero for padded rows.
// The backing slice is 64-byte aligned so panel loads are aligned
// vector moves. Weights packed at plan-compile time live in one of
// these for the network's lifetime.
type PackedA struct {
	m, k int
	data []float32
	// ABFT column checksums (abft.go): csum[kk] = Σ_i A[i,kk] and
	// acsum[kk] = Σ_i |A[i,kk]|, computed once at pack time so checked
	// GEMM calls pay nothing to obtain them.
	csum, acsum []float64
}

// M reports the packed row count (unpadded).
func (p *PackedA) M() int { return p.m }

// K reports the packed depth.
func (p *PackedA) K() int { return p.k }

// packALen returns the packed length for an m×k operand.
func packALen(m, k int) int {
	return (m + gemmMR - 1) / gemmMR * gemmMR * k
}

// packATo packs row-major a (m×k) into dst in micro-panel layout.
func packATo(dst, a []float32, m, k int) {
	panels := (m + gemmMR - 1) / gemmMR
	for p := 0; p < panels; p++ {
		base := p * k * gemmMR
		for r := 0; r < gemmMR; r++ {
			row := p*gemmMR + r
			if row >= m {
				for kk := 0; kk < k; kk++ {
					dst[base+kk*gemmMR+r] = 0
				}
				continue
			}
			arow := a[row*k : (row+1)*k]
			for kk, v := range arow {
				dst[base+kk*gemmMR+r] = v
			}
		}
	}
}

// PackWeights packs a rank-2 tensor (a conv group's [ocg, k] weight
// view, or any GEMM left operand) for the packed kernel. The result is
// immutable and may be cached for the operand's lifetime — nn.Compile
// packs every qualifying conv's weights exactly once per group.
func PackWeights(a *Tensor) *PackedA {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: PackWeights needs rank 2, got %v", a.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	p := &PackedA{m: m, k: k, data: alignedSlice[float32](packALen(m, k))}
	packATo(p.data, a.Data, m, k)
	cs := make([]float64, 2*k)
	p.csum, p.acsum = cs[:k], cs[k:]
	colChecksumsF32(p.csum, p.acsum, a.Data, m, k)
	return p
}

// UsePackedGEMM reports whether the packed kernel handles an m×k × k×n
// multiply, or the shape is too small to amortise panel packing (the
// reference kernel keeps those). nn's plan lowering calls this to
// decide which convs get compile-time packed weights.
//
// The thresholds are deliberately tier-independent (n is gated against
// a fixed minimum, not the selected tier's gemmNR): the deep
// small-spatial convs of a detection head (n = oh·ow as low as 9, with
// large m·k) must stay on the packed kernel when a wide-NR tier is
// selected — the edge path computes them on a zero-padded NR tile at a
// fraction of the lanes, which still beats the scalar reference by
// multiples — and a routing decision that cannot change with the tier
// keeps every caller's packed-vs-reference choice, and therefore the
// plan's compile-time weight packing, stable across tier switches.
func UsePackedGEMM(m, k, n int) bool {
	return m >= gemmMR && n >= 8 && k >= 16 && m*n >= 512
}

// hasWork reports whether an epilogue performs any per-element work.
func (ep Epilogue) hasWork() bool {
	return ep.Scale != nil || ep.Shift != nil || ep.Act != EpActNone
}

// f32BSource supplies kc×NR B panels to the fp32 driver:
// pack fills bbuf[kk·NR+jj] = B[k0+kk, j0+jj] for kk < kc, columns
// ≥ jw zero-padded. Implementations are value structs so the generic
// driver monomorphises them — no interface boxing, no closures, zero
// allocations in the steady state.
type f32BSource interface {
	pack(bbuf []float32, k0, kc, j0, jw int)
}

// f32MatrixB packs panels from a row-major k×n matrix — the B source
// of the plain MatMul entry points.
type f32MatrixB struct {
	b []float32
	n int
}

func (s f32MatrixB) pack(bbuf []float32, k0, kc, j0, jw int) {
	for kk := 0; kk < kc; kk++ {
		brow := s.b[(k0+kk)*s.n+j0 : (k0+kk)*s.n+j0+jw]
		row := bbuf[kk*gemmNR : kk*gemmNR+gemmNR]
		copy(row, brow)
		for j := jw; j < gemmNR; j++ {
			row[j] = 0
		}
	}
}

// f32ConvB gathers B panels straight from a CHW input's receptive
// fields — im2col fused into the panel pack (implicit GEMM). Row r of
// the virtual B matrix is the (c, ky, kx) unroll of channels
// [c0, c0+icg) exactly as im2colInto lays it out, so packed-conv
// results match the materialised-cols reference bit for bit.
type f32ConvB struct {
	x      *Tensor
	spec   ConvSpec
	c0     int
	oh, ow int
}

func (s f32ConvB) pack(bbuf []float32, k0, kc, j0, jw int) {
	h, w := s.x.Shape[1], s.x.Shape[2]
	dh, dw := s.spec.dil()
	ow := s.ow
	for kk := 0; kk < kc; kk++ {
		r := k0 + kk
		c := r / (s.spec.KH * s.spec.KW)
		rem := r % (s.spec.KH * s.spec.KW)
		ky := rem / s.spec.KW
		kx := rem % s.spec.KW
		src := s.x.Data[(s.c0+c)*h*w : (s.c0+c+1)*h*w]
		row := bbuf[kk*gemmNR : kk*gemmNR+gemmNR]
		oy := j0 / ow
		ox := j0 % ow
		iy := oy*s.spec.StrideH - s.spec.PadH + ky*dh
		ix := ox*s.spec.StrideW - s.spec.PadW + kx*dw
		for jj := 0; jj < jw; jj++ {
			if iy >= 0 && iy < h && ix >= 0 && ix < w {
				row[jj] = src[iy*w+ix]
			} else {
				row[jj] = 0
			}
			ox++
			ix += s.spec.StrideW
			if ox == ow {
				ox = 0
				ix = -s.spec.PadW + kx*dw
				oy++
				iy += s.spec.StrideH
			}
		}
		for jj := jw; jj < gemmNR; jj++ {
			row[jj] = 0
		}
	}
}

// gemmStripesF32 runs the packed GEMM over C = A×B (+epilogue), one
// NR-column sliver at a time. dst must hold m×n row-major values; it
// is fully overwritten (no pre-zeroing needed — the first k-block
// initialises the accumulators). apData is A in micro-panel layout
// covering depth k.
func gemmStripesF32[S f32BSource](dst []float32, m, n, k int, apData []float32, src S, ep Epilogue, chanOff int) {
	buf := Scratch.GetRaw((gemmKC + gemmMR) * gemmNR)
	bbuf, ctile := buf[:gemmKC*gemmNR], buf[gemmKC*gemmNR:]
	epWork := ep.hasWork()
	for j0 := 0; j0 < n; j0 += gemmNR {
		jw := n - j0
		if jw > gemmNR {
			jw = gemmNR
		}
		for k0 := 0; k0 < k; k0 += gemmKC {
			kc := k - k0
			if kc > gemmKC {
				kc = gemmKC
			}
			src.pack(bbuf, k0, kc, j0, jw)
			accum := uintptr(0)
			if k0 > 0 {
				accum = 1
			}
			i0 := 0
			if jw == gemmNR {
				for ; i0+gemmMR <= m; i0 += gemmMR {
					apan := apData[(i0/gemmMR)*k*gemmMR+k0*gemmMR:]
					kernF32(&dst[i0*n+j0], n, &apan[0], &bbuf[0], kc, accum)
				}
			}
			if i0 < m {
				gemmEdgeF32(dst, n, apData, bbuf, ctile, k, k0, kc, i0, m, j0, jw, accum == 1)
			}
		}
		if epWork {
			ep.applyCols(dst, 0, m, n, j0, j0+jw, chanOff)
		}
	}
	Scratch.PutRaw(buf)
}

// gemmEdgeF32 finishes the ragged tiles (rows [i0, m), columns
// [j0, j0+jw)) by running the selected micro-kernel on a pooled
// MR×NR staging tile and copying the valid region out. Routing edges
// through the same kernel — rather than a scalar fallback — keeps
// every C element on the selected tier's exact op chain, so results
// are independent of how a caller tiles the output (per-sample vs
// batched convs, implicit vs materialised im2col) even on FMA tiers,
// where a separate multiply+add edge would round differently. A
// padded rows (packATo zero-fills past m) and B columns (pack
// zero-fills past jw) contribute exact zeros, and the tile is
// pre-zeroed, so starting the kernel in accumulate mode from zeros
// reproduces the overwrite path bit for bit.
func gemmEdgeF32(dst []float32, n int, apData, bbuf, ctile []float32, k, k0, kc, i0, m, j0, jw int, accum bool) {
	for ; i0 < m; i0 += gemmMR {
		rows := m - i0
		if rows > gemmMR {
			rows = gemmMR
		}
		for i := range ctile[:gemmMR*gemmNR] {
			ctile[i] = 0
		}
		if accum {
			for r := 0; r < rows; r++ {
				copy(ctile[r*gemmNR:r*gemmNR+jw], dst[(i0+r)*n+j0:(i0+r)*n+j0+jw])
			}
		}
		apan := apData[(i0/gemmMR)*k*gemmMR+k0*gemmMR:]
		kernF32(&ctile[0], gemmNR, &apan[0], &bbuf[0], kc, 1)
		for r := 0; r < rows; r++ {
			copy(dst[(i0+r)*n+j0:(i0+r)*n+j0+jw], ctile[r*gemmNR:r*gemmNR+jw])
		}
	}
}

// matMulPackedInto computes dst = A×B (+ optional fused epilogue) with
// the packed kernel, packing A per call into pooled scratch. Callers
// must have checked UsePackedGEMM.
func matMulPackedInto(dst, a, b *Tensor, ep Epilogue, chanOff int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	apData := Scratch.GetRaw(packALen(m, k))
	packATo(apData, a.Data, m, k)
	gemmStripesF32(dst.Data, m, n, k, apData, f32MatrixB{b: b.Data, n: n}, ep, chanOff)
	Scratch.PutRaw(apData)
}

// ConvPackedInto computes one conv group with the implicit-im2col
// packed GEMM: dst ([ocg, oh·ow] view of the group's output planes) =
// wp × im2col(x channels [c0, c0+icg)), with the fused epilogue
// (folded BN/bias + activation; zero value for none) applied per
// column stripe. chanOff maps GEMM rows to epilogue channels (the
// group offset of a grouped conv). Steady-state calls perform zero
// heap allocations.
func ConvPackedInto(dst *Tensor, wp *PackedA, x *Tensor, spec ConvSpec, c0, oh, ow int, ep Epilogue, chanOff int) {
	m, k := wp.m, wp.k
	n := oh * ow
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: ConvPackedInto dst %v, want [%d %d]", dst.Shape, m, n))
	}
	gemmStripesF32(dst.Data, m, n, k, wp.data, f32ConvB{x: x, spec: spec, c0: c0, oh: oh, ow: ow}, ep, chanOff)
}
