package tensor

import "fmt"

// The int8 half of the packed GEMM core (see pack.go for the fp32
// design). Differences from the fp32 driver:
//
//   - Panels are pair-interleaved: consecutive k values sit adjacent
//     per row/column, so the micro-kernel (kernQ, bound by CPU
//     dispatch — PMADDWD on sse2, VPMADDWD on avx2fma, VPDPWSSD on
//     avx512vnni) can fold two k steps per lane. Integer accumulation
//     is exact, so neither the pairing nor the tile width (qNR = 8,
//     16, or 32 columns per tier) can change results — int8 parity
//     with the reference tiles is automatic on every tier.
//   - Weights pack to sign-extended int16 (PackedQ) at plan-compile /
//     quantize-bind time, removing the extension work from the inner
//     loop.
//   - There is no kc blocking: the full-depth B sliver (k·2·qNR int8)
//     streams well and skipping the block loop keeps the int32
//     accumulators register-resident across all of k.
//   - The requantization epilogue (float32(acc)·rowScale) and the
//     optional BN/activation epilogue run per column stripe, the same
//     float32 op sequence as the reference int8 kernels.

// PackedQ is an int8 left operand packed for the int8 micro-kernel:
// data[p·(k2·8) + kk·8 + r·2 + s] = int16(A[p·4+r, 2·kk+s]), with rows
// past m and the odd-k tail zero-padded (exact for integer math).
type PackedQ struct {
	m, k, k2 int
	data     []int16
	// ABFT column checksums in pair-interleaved layout (abft.go):
	// csum[2·kk2+s] = Σ_i A[i, 2·kk2+s], exact integer sums.
	csum []int64
}

// M reports the packed row count (unpadded).
func (p *PackedQ) M() int { return p.m }

// K reports the packed depth (unpadded).
func (p *PackedQ) K() int { return p.k }

// packQLen returns the packed int16 length for an m×k int8 operand.
func packQLen(m, k int) int {
	return (m + 3) / 4 * ((k + 1) / 2) * 8
}

// packQTo packs row-major int8 a (m×k) into dst in pair-interleaved
// micro-panel layout.
func packQTo(dst []int16, a []int8, m, k int) {
	k2 := (k + 1) / 2
	panels := (m + 3) / 4
	for i := range dst[:panels*k2*8] {
		dst[i] = 0
	}
	for p := 0; p < panels; p++ {
		base := p * k2 * 8
		for r := 0; r < 4; r++ {
			row := p*4 + r
			if row >= m {
				continue
			}
			arow := a[row*k : (row+1)*k]
			for kk, v := range arow {
				dst[base+(kk/2)*8+r*2+kk&1] = int16(v)
			}
		}
	}
}

// PackWeightsQ packs a symmetric int8 weight slice (one conv group's
// [ocg, k] view) for the int8 micro-kernel. Cached per group by nn's
// quantize bind, exactly as PackWeights is for fp32.
func PackWeightsQ(data []int8, m, k int) *PackedQ {
	if len(data) != m*k {
		panic(fmt.Sprintf("tensor: PackWeightsQ %d values for %dx%d", len(data), m, k))
	}
	p := &PackedQ{m: m, k: k, k2: (k + 1) / 2, data: make([]int16, packQLen(m, k))}
	packQTo(p.data, data, m, k)
	p.csum = make([]int64, 2*p.k2)
	colChecksumsQ(p.csum, data, m, k)
	return p
}

// scratchW recycles int16 slices for per-call int8 weight packing —
// the int16 instance of the shared rawPool core, kept unexported
// because only the packed int8 drivers draw from it. It is what keeps
// the generic MatMulInt8Into/Conv2DQ entry points allocation-free in
// steady state (plan ops cache PackedQ instead and never touch it).
var scratchW = func() *rawPool[int16] { p := newRawPool[int16](); return &p }()

// qBSource supplies full-depth int8 B slivers in pair-interleaved
// layout: pack fills bbuf[kk·2·qNR + jj·2 + s] = B[2·kk+s, j0+jj],
// zero-padding columns ≥ jw and the odd-k tail. Value structs only,
// as f32BSource.
type qBSource interface {
	pack(bbuf []int8, j0, jw int)
}

// qMatrixB packs slivers from a row-major int8 k×n matrix.
type qMatrixB struct {
	b    []int8
	k, n int
}

func (s qMatrixB) pack(bbuf []int8, j0, jw int) {
	k2 := (s.k + 1) / 2
	for i := range bbuf[:k2*2*qNR] {
		bbuf[i] = 0
	}
	for kk := 0; kk < s.k; kk++ {
		brow := s.b[kk*s.n+j0 : kk*s.n+j0+jw]
		row := bbuf[(kk/2)*2*qNR+kk&1:]
		for jj, v := range brow {
			row[jj*2] = v
		}
	}
}

// qConvB gathers receptive fields from a fp32 CHW input and quantizes
// them at inverse scale inv while packing — the int8 twin of f32ConvB,
// fusing im2col *and* activation quantization into the sliver pack.
// Every element quantizes with the same quantizeRound call as the
// reference im2colQInto, so packed int8 convs match the materialised
// reference bit for bit.
type qConvB struct {
	x      *Tensor
	inv    float32
	spec   ConvSpec
	c0, k  int
	oh, ow int
}

func (s qConvB) pack(bbuf []int8, j0, jw int) {
	h, w := s.x.Shape[1], s.x.Shape[2]
	dh, dw := s.spec.dil()
	ow := s.ow
	k2 := (s.k + 1) / 2
	if s.k&1 == 1 || jw < qNR {
		for i := range bbuf[:k2*2*qNR] {
			bbuf[i] = 0
		}
	}
	for kk := 0; kk < s.k; kk++ {
		c := kk / (s.spec.KH * s.spec.KW)
		rem := kk % (s.spec.KH * s.spec.KW)
		ky := rem / s.spec.KW
		kx := rem % s.spec.KW
		src := s.x.Data[(s.c0+c)*h*w : (s.c0+c+1)*h*w]
		row := bbuf[(kk/2)*2*qNR+kk&1:]
		oy := j0 / ow
		ox := j0 % ow
		iy := oy*s.spec.StrideH - s.spec.PadH + ky*dh
		ix := ox*s.spec.StrideW - s.spec.PadW + kx*dw
		for jj := 0; jj < jw; jj++ {
			if iy >= 0 && iy < h && ix >= 0 && ix < w {
				row[jj*2] = quantizeRound(src[iy*w+ix], s.inv, 0)
			} else {
				row[jj*2] = 0
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
	}
}

// gemmStripesQ runs the packed int8 GEMM with fused requantization:
// dst[i,j] = float32(Σ_k A[i,k]·B[k,j]) · rowScale[i], plus the
// optional epilogue, one qNR-column sliver at a time.
func gemmStripesQ[S qBSource](dst []float32, m, n, k int, apData []int16, src S, rowScale []float32, ep Epilogue, chanOff int) {
	k2 := (k + 1) / 2
	bbuf := ScratchB.Get(k2 * 2 * qNR)
	epWork := ep.hasWork()
	// The accumulator tile is pooled, not a stack array: its pointer
	// passes through the kernQ func value, which defeats escape
	// analysis and would heap-allocate the tile every call.
	acc := scratchI32.get(4 * qNR)
	nr := qNR
	for j0 := 0; j0 < n; j0 += nr {
		jw := n - j0
		if jw > nr {
			jw = nr
		}
		src.pack(bbuf, j0, jw)
		i0 := 0
		if jw == nr {
			for ; i0+4 <= m; i0 += 4 {
				kernQ(&acc[0], &apData[(i0/4)*k2*8], &bbuf[0], k2)
				for r := 0; r < 4; r++ {
					sc := rowScale[i0+r]
					drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+nr]
					ar := acc[r*nr : (r+1)*nr]
					for j, v := range ar {
						drow[j] = float32(v) * sc
					}
				}
			}
		}
		if i0 < m {
			gemmEdgeQ(dst, n, apData, bbuf, acc, k2, i0, m, j0, jw, rowScale)
		}
		if epWork {
			ep.applyCols(dst, 0, m, n, j0, j0+jw, chanOff)
		}
	}
	scratchI32.put(acc)
	ScratchB.Put(bbuf)
}

// gemmEdgeQ finishes the ragged int8 tiles (rows [i0, m), columns
// [j0, j0+jw)) by running the selected micro-kernel over the full
// zero-padded panels and copying the valid accumulator region out.
// Padded A rows (packQTo) and B columns (the pack sources) are exact
// integer zeros, so the kernel result matches the scalar pair sums bit
// for bit — and on the wide tiers the deep small-spatial detect-head
// convs, whose n fits entirely inside one sliver, stay on vector
// lanes instead of a scalar loop. acc is the caller's pooled 4×qNR
// accumulator tile.
func gemmEdgeQ(dst []float32, n int, apData []int16, bbuf []int8, acc []int32, k2, i0, m, j0, jw int, rowScale []float32) {
	for ; i0 < m; i0 += 4 {
		rows := m - i0
		if rows > 4 {
			rows = 4
		}
		kernQ(&acc[0], &apData[(i0/4)*k2*8], &bbuf[0], k2)
		for r := 0; r < rows; r++ {
			sc := rowScale[i0+r]
			drow := dst[(i0+r)*n+j0 : (i0+r)*n+j0+jw]
			ar := acc[r*qNR : r*qNR+jw]
			for j, v := range ar {
				drow[j] = float32(v) * sc
			}
		}
	}
}

// matMulInt8PackedInto is MatMulInt8Into's packed path: A packs per
// call into pooled scratch (the plan caches PackedQ weights instead),
// B slivers pack from the matrix. Callers must have checked
// UsePackedGEMM and symmetry.
func matMulInt8PackedInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	apData := scratchW.get(packQLen(m, k))
	packQTo(apData, a.Data, m, k)
	gemmStripesQ(dst.Data, m, n, k, apData, qMatrixB{b: b.Data, k: k, n: n}, rowScale, ep, chanOff)
	scratchW.put(apData)
}

// ConvPackedQInto computes one int8 conv group with the implicit,
// quantizing im2col packed GEMM: dst ([ocg, oh·ow] view) receives the
// requantized fp32 result with the fused epilogue (zero value for
// none). rowScale carries the per-output-channel wScale·xScale
// products; inv is 1/xScale. Steady-state calls perform zero heap
// allocations.
func ConvPackedQInto(dst *Tensor, wp *PackedQ, x *Tensor, spec ConvSpec, c0, oh, ow int, inv float32, rowScale []float32, ep Epilogue, chanOff int) {
	m, k := wp.m, wp.k
	n := oh * ow
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: ConvPackedQInto dst %v, want [%d %d]", dst.Shape, m, n))
	}
	gemmStripesQ(dst.Data, m, n, k, wp.data, qConvB{x: x, inv: inv, spec: spec, c0: c0, k: k, oh: oh, ow: ow}, rowScale, ep, chanOff)
}
