package tensor

import "fmt"

// QTensor is a dense row-major int8 tensor with quantization metadata:
// Data[i] ≈ round(value/scale) + zero, where the scale/zero pair comes
// from channel c along axis 0 for per-channel quantization
// (len(Scales) == Shape[0]) or from the single entry for per-tensor
// quantization (len(Scales) == 1). Zeros == nil means symmetric
// quantization (zero-point 0 everywhere) — the scheme every int8 GEMM
// kernel in this package requires, because it keeps the int32
// accumulator free of zero-point correction terms.
type QTensor struct {
	Shape  []int
	Data   []int8
	Scales []float32
	Zeros  []int32
}

// QFromSlice wraps int8 data in a QTensor of the given shape without
// copying, carrying the given per-channel (or per-tensor) scales.
func QFromSlice(data []int8, scales []float32, shape ...int) *QTensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: qtensor data length %d does not match shape %v", len(data), shape))
	}
	return &QTensor{Shape: append([]int(nil), shape...), Data: data, Scales: scales}
}

// Len returns the number of elements.
func (q *QTensor) Len() int { return len(q.Data) }

// Dim returns the size of axis i.
func (q *QTensor) Dim(i int) int { return q.Shape[i] }

// Rank returns the number of axes.
func (q *QTensor) Rank() int { return len(q.Shape) }

// ScaleFor returns the dequantization scale of channel c (axis 0).
func (q *QTensor) ScaleFor(c int) float32 {
	if len(q.Scales) == 1 {
		return q.Scales[0]
	}
	return q.Scales[c]
}

// zeroFor returns the zero-point of channel c (0 when symmetric).
func (q *QTensor) zeroFor(c int) int32 {
	if q.Zeros == nil {
		return 0
	}
	if len(q.Zeros) == 1 {
		return q.Zeros[0]
	}
	return q.Zeros[c]
}

// quantizeRound converts one value at the given inverse scale and
// zero-point, rounding to nearest and saturating to int8 range.
func quantizeRound(v, inv float32, zero int32) int8 {
	r := v * inv
	if r >= 0 {
		r += 0.5
	} else {
		r -= 0.5
	}
	qv := int32(r) + zero
	if qv > 127 {
		qv = 127
	} else if qv < -128 {
		qv = -128
	}
	return int8(qv)
}

// QuantizeLinear quantizes t along axis 0 with explicit scales and
// optional zero-points: q = clamp(round(v/scale) + zero, -128, 127).
// scales must have one entry (per-tensor) or Shape[0] entries
// (per-channel); zeros may be nil (symmetric) or match scales in length.
func QuantizeLinear(t *Tensor, scales []float32, zeros []int32) *QTensor {
	ch := 1
	if t.Rank() > 0 {
		ch = t.Shape[0]
	}
	if len(scales) != 1 && len(scales) != ch {
		panic(fmt.Sprintf("tensor: QuantizeLinear %d scales for %d channels", len(scales), ch))
	}
	if zeros != nil && len(zeros) != len(scales) {
		panic(fmt.Sprintf("tensor: QuantizeLinear %d zeros for %d scales", len(zeros), len(scales)))
	}
	q := &QTensor{
		Shape:  append([]int(nil), t.Shape...),
		Data:   make([]int8, len(t.Data)),
		Scales: append([]float32(nil), scales...),
	}
	if zeros != nil {
		q.Zeros = append([]int32(nil), zeros...)
	}
	plane := 0
	if ch > 0 {
		plane = len(t.Data) / ch
	}
	for c := 0; c < ch; c++ {
		s := q.ScaleFor(c)
		var inv float32
		if s != 0 {
			inv = 1 / s
		}
		z := q.zeroFor(c)
		d := t.Data[c*plane : (c+1)*plane]
		out := q.Data[c*plane : (c+1)*plane]
		for i, v := range d {
			out[i] = quantizeRound(v, inv, z)
		}
	}
	return q
}

// QuantizeSymmetric quantizes t with one symmetric per-tensor scale
// (absmax/127, zero-point 0).
func QuantizeSymmetric(t *Tensor) *QTensor {
	var mx float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return QuantizeLinear(t, []float32{mx / 127}, nil)
}

// QuantizePerChannel quantizes t with symmetric per-channel scales
// along axis 0 (absmax/127 per channel) — the weight scheme of the
// quantized conv path, which preserves accuracy across channels with
// very different weight magnitudes.
func QuantizePerChannel(t *Tensor) *QTensor {
	ch := t.Shape[0]
	plane := len(t.Data) / ch
	scales := make([]float32, ch)
	for c := range scales {
		var mx float32
		for _, v := range t.Data[c*plane : (c+1)*plane] {
			if v < 0 {
				v = -v
			}
			if v > mx {
				mx = v
			}
		}
		scales[c] = mx / 127
	}
	return QuantizeLinear(t, scales, nil)
}

// Dequantize converts back to float32: v = (q - zero) * scale per
// axis-0 channel.
func (q *QTensor) Dequantize() *Tensor {
	t := New(q.Shape...)
	ch := 1
	if q.Rank() > 0 {
		ch = q.Shape[0]
	}
	plane := 0
	if ch > 0 {
		plane = len(q.Data) / ch
	}
	for c := 0; c < ch; c++ {
		s := q.ScaleFor(c)
		z := q.zeroFor(c)
		src := q.Data[c*plane : (c+1)*plane]
		dst := t.Data[c*plane : (c+1)*plane]
		for i, v := range src {
			dst[i] = float32(int32(v)-z) * s
		}
	}
	return t
}

// qnBlock is the int8 GEMM column-block width: 4 accumulator rows of
// qnBlock int32s (8 KB) stay L1-resident while a k-panel of B streams
// through, which is what keeps the kernel compute-bound.
const qnBlock = 512

// MatMulInt8Into computes dst = (A × B) ⊙ rowScale for int8 operands A
// (m×k) and B (k×n) with int32 accumulation: the fused requantization
// epilogue multiplies each finished int32 row by rowScale[i] (the
// product of A's row scale and B's tensor scale) while the accumulator
// tile is still hot, so the int32 intermediate never touches memory
// twice. Both operands must be symmetric (zero-point 0). Large shapes
// run the packed kernel (packq.go); small ones the reference loop,
// which register-blocks 4 output rows so every streamed byte of B
// feeds four multiply-accumulates — the int8 analogue of MatMulInto's
// blocked ikj loop.
func MatMulInt8Into(dst *Tensor, a, b *QTensor, rowScale []float32) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInt8Into needs rank-2 operands, got %v × %v", a.Shape, b.Shape))
	}
	if a.Zeros != nil || b.Zeros != nil {
		panic("tensor: MatMulInt8Into requires symmetric operands (zero-point 0)")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInt8Into inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInt8Into dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if len(rowScale) != m {
		panic(fmt.Sprintf("tensor: MatMulInt8Into %d row scales for %d rows", len(rowScale), m))
	}
	if UsePackedGEMM(m, k, n) {
		matMulInt8PackedInto(dst, a, b, rowScale, Epilogue{}, 0)
		return
	}
	var acc [4 * qnBlock]int32
	int8EpilogueRange(dst, a, b, rowScale, Epilogue{}, 0, acc[:], 0, m)
}

// int8Tile4 accumulates a 4×nb output tile with the k loop unrolled by
// 4: each inner iteration streams 4 bytes from four B panel rows and
// folds 16 MACs into four accumulator updates, so the store traffic per
// MAC drops 4x against a row-at-a-time loop and the int32 multiplies —
// the scalar port this kernel saturates — chain into single additions.
// Measured ~1.9x over MatMulInto's fp32 axpy loop at YOLO conv shapes
// (128×576 × 576×1600) on the reference container.
func int8Tile4(acc []int32, a, b []int8, i0, j0, nb, k, n int) {
	acc0 := acc[0*nb : 1*nb]
	acc1 := acc[1*nb : 2*nb]
	acc2 := acc[2*nb : 3*nb]
	acc3 := acc[3*nb : 4*nb]
	for j := range acc0 {
		acc0[j], acc1[j], acc2[j], acc3[j] = 0, 0, 0, 0
	}
	r0 := a[(i0+0)*k : (i0+1)*k]
	r1 := a[(i0+1)*k : (i0+2)*k]
	r2 := a[(i0+2)*k : (i0+3)*k]
	r3 := a[(i0+3)*k : (i0+4)*k]
	kk := 0
	for ; kk+3 < k; kk += 4 {
		a00, a01, a02, a03 := int32(r0[kk]), int32(r0[kk+1]), int32(r0[kk+2]), int32(r0[kk+3])
		a10, a11, a12, a13 := int32(r1[kk]), int32(r1[kk+1]), int32(r1[kk+2]), int32(r1[kk+3])
		a20, a21, a22, a23 := int32(r2[kk]), int32(r2[kk+1]), int32(r2[kk+2]), int32(r2[kk+3])
		a30, a31, a32, a33 := int32(r3[kk]), int32(r3[kk+1]), int32(r3[kk+2]), int32(r3[kk+3])
		b0 := b[kk*n+j0 : kk*n+j0+nb]
		b1 := b[(kk+1)*n+j0 : (kk+1)*n+j0+nb]
		b2 := b[(kk+2)*n+j0 : (kk+2)*n+j0+nb]
		b3 := b[(kk+3)*n+j0 : (kk+3)*n+j0+nb]
		_ = b1[len(b0)-1]
		_ = b2[len(b0)-1]
		_ = b3[len(b0)-1]
		_ = acc0[len(b0)-1]
		_ = acc1[len(b0)-1]
		_ = acc2[len(b0)-1]
		_ = acc3[len(b0)-1]
		for j, bv := range b0 {
			x0 := int32(bv)
			x1 := int32(b1[j])
			x2 := int32(b2[j])
			x3 := int32(b3[j])
			acc0[j] += a00*x0 + a01*x1 + a02*x2 + a03*x3
			acc1[j] += a10*x0 + a11*x1 + a12*x2 + a13*x3
			acc2[j] += a20*x0 + a21*x1 + a22*x2 + a23*x3
			acc3[j] += a30*x0 + a31*x1 + a32*x2 + a33*x3
		}
	}
	for ; kk < k; kk++ {
		a0, a1, a2, a3 := int32(r0[kk]), int32(r1[kk]), int32(r2[kk]), int32(r3[kk])
		brow := b[kk*n+j0 : kk*n+j0+nb]
		_ = acc0[len(brow)-1]
		_ = acc1[len(brow)-1]
		_ = acc2[len(brow)-1]
		_ = acc3[len(brow)-1]
		for j, bv := range brow {
			bb := int32(bv)
			acc0[j] += a0 * bb
			acc1[j] += a1 * bb
			acc2[j] += a2 * bb
			acc3[j] += a3 * bb
		}
	}
}

// int8TileGeneric handles the ragged tail tile (fewer than 4 rows).
func int8TileGeneric(acc []int32, a, b []int8, i0, rows, j0, nb, k, n int) {
	for r := 0; r < rows; r++ {
		ar := acc[r*nb : (r+1)*nb]
		for j := range ar {
			ar[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := int32(a[(i0+r)*k+kk])
			if av == 0 {
				continue
			}
			brow := b[kk*n+j0 : kk*n+j0+nb]
			_ = ar[len(brow)-1]
			for j, bv := range brow {
				ar[j] += av * int32(bv)
			}
		}
	}
}

// im2colQInto is the quantized twin of im2colInto: it unrolls receptive
// fields of channels [c0, c0+nc) directly into int8 cols at the given
// inverse activation scale, fusing activation quantization into the
// unroll so the fp32 cols matrix never materialises. Zero padding maps
// to quantized 0 (the symmetric zero-point).
func im2colQInto(x *Tensor, cols []int8, inv float32, spec ConvSpec, c0, nc, oh, ow, colOff, rowStride int) {
	h, w := x.Shape[1], x.Shape[2]
	dh, dw := spec.dil()
	for r := 0; r < nc*spec.KH*spec.KW; r++ {
		c := r / (spec.KH * spec.KW)
		rem := r % (spec.KH * spec.KW)
		ky := rem / spec.KW
		kx := rem % spec.KW
		src := x.Data[(c0+c)*h*w : (c0+c+1)*h*w]
		dst := cols[r*rowStride+colOff : r*rowStride+colOff+oh*ow]
		i := 0
		for oy := 0; oy < oh; oy++ {
			iy := oy*spec.StrideH - spec.PadH + ky*dh
			if iy < 0 || iy >= h {
				for ox := 0; ox < ow; ox++ {
					dst[i] = 0
					i++
				}
				continue
			}
			srow := src[iy*w : (iy+1)*w]
			ix := -spec.PadW + kx*dw
			for ox := 0; ox < ow; ox++ {
				if ix >= 0 && ix < w {
					dst[i] = quantizeRound(srow[ix], inv, 0)
				} else {
					dst[i] = 0
				}
				i++
				ix += spec.StrideW
			}
		}
	}
}

// convQScales returns the fused requantization scales of one group:
// rowScale[oc] = wScale[g*ocg+oc] × xScale, so the GEMM epilogue lands
// directly in fp32 output space.
func convQScales(w *QTensor, xScale float32, g, ocg int) []float32 {
	out := make([]float32, ocg)
	for oc := range out {
		out[oc] = w.ScaleFor(g*ocg+oc) * xScale
	}
	return out
}

// Conv2DQ is the int8 counterpart of Conv2D: input x [inC,H,W] is
// quantized at the calibrated activation scale xScale while receptive
// fields are packed (implicit, quantizing im2col for large-enough
// groups; the materialised reference lowering for small ones), weights
// w carry symmetric per-channel int8 values, and the int8 GEMM
// accumulates in int32 with the dequantizing epilogue fused in.
// Output is fp32 [outC,oh,ow], directly comparable to Conv2D's; both
// lowerings are bit-identical.
func Conv2DQ(x *Tensor, w *QTensor, bias *Tensor, spec ConvSpec, xScale float32) *Tensor {
	return conv2DQImpl(x, w, bias, spec, xScale, false)
}

// conv2DQRef is the retained reference lowering (materialised
// quantizing im2col + int8 tile GEMM) the implicit-path parity tests
// pin against.
func conv2DQRef(x *Tensor, w *QTensor, bias *Tensor, spec ConvSpec, xScale float32) *Tensor {
	return conv2DQImpl(x, w, bias, spec, xScale, true)
}

// conv2DQImpl is the shared body of Conv2DQ and conv2DQRef.
func conv2DQImpl(x *Tensor, w *QTensor, bias *Tensor, spec ConvSpec, xScale float32, forceRef bool) *Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Conv2DQ input rank %d, want 3 (CHW)", x.Rank()))
	}
	if x.Shape[0] != spec.InC {
		panic(fmt.Sprintf("tensor: Conv2DQ input channels %d, spec %d", x.Shape[0], spec.InC))
	}
	if xScale <= 0 {
		panic("tensor: Conv2DQ requires a positive activation scale")
	}
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	if spec.InC%groups != 0 || spec.OutC%groups != 0 {
		panic(fmt.Sprintf("tensor: Conv2DQ groups %d incompatible with channels %d→%d", groups, spec.InC, spec.OutC))
	}
	h, wd := x.Shape[1], x.Shape[2]
	oh, ow := spec.OutSize(h, wd)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2DQ empty output for input %dx%d spec %+v", h, wd, spec))
	}
	out := New(spec.OutC, oh, ow)

	icg := spec.InC / groups
	ocg := spec.OutC / groups
	k := icg * spec.KH * spec.KW
	plane := oh * ow
	inv := 1 / xScale
	if !forceRef && UsePackedGEMM(ocg, k, plane) {
		// Implicit, quantizing im2col: receptive fields quantize straight
		// into the packed B slivers — the int8 cols matrix never exists.
		ap := scratchW.get(packQLen(ocg, k))
		for g := 0; g < groups; g++ {
			packQTo(ap, w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
			dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
			gemmStripesQ(dst.Data, ocg, plane, k, ap,
				qConvB{x: x, inv: inv, spec: spec, c0: g * icg, k: k, oh: oh, ow: ow},
				convQScales(w, xScale, g, ocg), Epilogue{}, 0)
		}
		scratchW.put(ap)
		addBias(out.Data, bias, spec.OutC, plane)
		return out
	}
	cols := ScratchB.Get(k * plane)
	colsQ := QFromSlice(cols, nil, k, plane)
	for g := 0; g < groups; g++ {
		im2colQInto(x, cols, inv, spec, g*icg, icg, oh, ow, 0, plane)
		wslice := QFromSlice(
			w.Data[g*ocg*k:(g+1)*ocg*k],
			nil, ocg, k)
		dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
		MatMulInt8Into(dst, wslice, colsQ, convQScales(w, xScale, g, ocg))
	}
	ScratchB.Put(cols)
	addBias(out.Data, bias, spec.OutC, plane)
	return out
}

// Conv2DBatchQ is the int8 counterpart of Conv2DBatch: the whole batch
// lowers to one quantized im2col + int8 GEMM per group, so the int8
// weight panel streams through the cache once per batch. Outputs (one
// fp32 [outC,oh,ow] tensor per sample) come from the Scratch pool;
// callers may Put them back once consumed.
func Conv2DBatchQ(xs []*Tensor, w *QTensor, bias *Tensor, spec ConvSpec, xScale float32) []*Tensor {
	if len(xs) == 0 {
		panic("tensor: Conv2DBatchQ with empty batch")
	}
	for _, x := range xs {
		if x.Rank() != 3 || x.Shape[0] != spec.InC {
			panic(fmt.Sprintf("tensor: Conv2DBatchQ input %v, want [%d H W]", x.Shape, spec.InC))
		}
		if x.Shape[1] != xs[0].Shape[1] || x.Shape[2] != xs[0].Shape[2] {
			panic(fmt.Sprintf("tensor: Conv2DBatchQ ragged batch %v vs %v", x.Shape, xs[0].Shape))
		}
	}
	if xScale <= 0 {
		panic("tensor: Conv2DBatchQ requires a positive activation scale")
	}
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	if spec.InC%groups != 0 || spec.OutC%groups != 0 {
		panic(fmt.Sprintf("tensor: Conv2DBatchQ groups %d incompatible with channels %d→%d", groups, spec.InC, spec.OutC))
	}
	nb := len(xs)
	h, wd := xs[0].Shape[1], xs[0].Shape[2]
	oh, ow := spec.OutSize(h, wd)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2DBatchQ empty output for input %dx%d spec %+v", h, wd, spec))
	}
	plane := oh * ow
	outs := make([]*Tensor, nb)
	for b := range outs {
		outs[b] = Scratch.Get(spec.OutC, oh, ow)
	}
	icg := spec.InC / groups
	ocg := spec.OutC / groups
	inv := 1 / xScale
	cols := ScratchB.Get(icg * spec.KH * spec.KW * nb * plane)
	colsQ := QFromSlice(cols, nil, icg*spec.KH*spec.KW, nb*plane)
	big := Scratch.Get(ocg, nb*plane)
	for g := 0; g < groups; g++ {
		for b, x := range xs {
			im2colQInto(x, cols, inv, spec, g*icg, icg, oh, ow, b*plane, nb*plane)
		}
		wslice := QFromSlice(
			w.Data[g*ocg*icg*spec.KH*spec.KW:(g+1)*ocg*icg*spec.KH*spec.KW],
			nil, ocg, icg*spec.KH*spec.KW)
		MatMulInt8Into(big, wslice, colsQ, convQScales(w, xScale, g, ocg))
		scatterBatch(outs, big.Data, g*ocg, ocg, plane)
	}
	ScratchB.Put(cols)
	Scratch.Put(big)
	for _, out := range outs {
		addBias(out.Data, bias, spec.OutC, plane)
	}
	return outs
}
