// Package tensor implements dense float32 tensors and the numerical
// kernels used by the neural-network inference engine: a packed,
// register-blocked GEMM core with implicit-im2col convolution
// (single-frame and batched), pooling, and elementwise activations.
//
// The design goal is a small, allocation-conscious engine fast enough
// to run scaled-down YOLO-style networks on CPU for the repository's
// benchmarks, not a general autograd framework.
//
// Concurrency model: every kernel has one body and runs on its
// caller's goroutine — there is no intra-op parallelism, so a
// steady-state call allocates nothing at any GOMAXPROCS. Multi-core
// throughput comes from independent plan instances (internal/nn
// Plan), one per stream or session, executing side by side; the
// shared Scratch/ScratchB pools are safe for that concurrent use.
//
// The matrix-multiply core (pack.go, packq.go, the assembly kernels)
// is a BLIS-style packed GEMM: the left operand packs into MR-row
// micro-panels (once at plan-compile time for conv weights —
// PackWeights/PackWeightsQ), the right operand packs one KC×NR panel
// at a time into L1-resident 64-byte-aligned scratch, and a
// register-blocked micro-kernel streams the panels. The kernel pair
// and its blocking geometry are a dispatch tier, selected at init by
// CPUID feature detection (dispatch.go) and forceable via
// SetKernelTier or the OCULARONE_KERNEL_TIER environment variable:
// pure-Go 4×8 tiles (generic, every GOARCH), SSE2 assembly 4×8 tiles
// (sse2, the amd64 baseline), an AVX2/FMA 4×24 fp32 tile with a 4×16
// VPMADDWD int8 tile (avx2fma), and an AVX-512 4×32 VPDPWSSD int8
// tile (avx512vnni). KernelTier/KernelTierDesc report the selection
// for benchmark headers. For convolutions the panel pack IS im2col
// (ConvPackedInto/ConvPackedQInto gather — and for int8, quantize —
// receptive fields directly), so the k×n cols matrix never
// materialises. Shapes too small to amortise packing (UsePackedGEMM)
// fall back to the retained reference kernels, which also serve as
// the golden parity baseline: int8 and non-FMA fp32 paths accumulate
// each output element with the reference's exact ascending-k
// multiply-then-add chain and are bit-identical to it, while the FMA
// tiers fuse each multiply-add rounding and are drift-bounded instead
// (KernelTierFMA gates the comparison; pinned per tier in
// pack_test.go and tier_test.go at adversarial shapes).
//
// Three further mechanisms serve the inference hot path:
//
//   - Fused epilogues (fused.go): MatMulEpilogueInto and
//     MatMulInt8EpilogueInto finish each GEMM stripe with the folded
//     BatchNorm affine (or conv bias) and the activation while it is
//     cache-hot, eliminating the separate full-tensor BN and
//     activation sweeps. Their float32 op sequences replicate the
//     unfused kernels exactly, so fused results are bit-identical. The
//     Into variants of pooling/upsampling/concat/transpose write into
//     caller-owned buffers — the forms the plan executor (internal/nn
//     Plan) binds against its arena.
//   - Conv2DBatch lowers a whole batch of same-shape inputs to one
//     im2col + blocked matmul per group (per-column accumulation order
//     matches Conv2D, so batched results are bit-identical to
//     per-frame ones). It remains the standalone batched reference;
//     the plan executor's conv ops run the packed implicit-im2col
//     kernel per sample instead, which amortises weight streaming
//     within a single frame.
//   - Pool (and the package-level Scratch pool) recycles backing
//     slices by power-of-two class (SizeClass — the same math the plan
//     arena rounds its slots with) and guarantees 64-byte-aligned
//     starts, so packed-panel loads never split a cache line.
//     GetRaw/PutRaw hand out bare slices without Tensor headers for
//     the GEMM drivers' panel scratch; conv scratch, batched outputs,
//     and nn intermediates cycle through the same pool, so
//     steady-state inference allocates nothing even off the compiled
//     path.
//
// Beside the fp32 plane sits an INT8 quantized one: QTensor carries
// int8 data with per-channel scales, MatMulInt8Into routes large
// shapes through the packed PMADDWD kernel (reference 4-row tiles
// retained for small ones) with int32 accumulation and a fused
// requantization epilogue, Conv2DQ lowers quantized convolutions
// through the implicit quantizing im2col, and ScratchB (a BytePool,
// same alignment guarantee) recycles the int8 scratch.
package tensor
