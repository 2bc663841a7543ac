package main

import (
	"fmt"
	"time"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (the smoke test checks they agree).
type metricDef struct{ name, unit, better string }

// endToEndMetrics are printed by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"step_ms_p50", "ms", "lower"},
	{"step_ms_p90", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayerMetrics are printed by every workload with --trace 1.
var perLayerMetrics = []metricDef{
	{"tensor.gemm_f32_gflops", "GFLOP/s", "higher"},
	{"tensor.gemm_i8_gops", "GOP/s", "higher"},
	{"tensor.conv_stem_f32_gflops", "GFLOP/s", "higher"},
	{"tensor.conv_stem_i8_gops", "GOP/s", "higher"},
	{"tensor.conv_c64_f32_gflops", "GFLOP/s", "higher"},
	{"tensor.conv_c64_i8_gops", "GOP/s", "higher"},
	{"nn.exec_ms.yolov8n", "ms", "lower"},
	{"nn.exec_ms.bodypose", "ms", "lower"},
	{"nn.exec_ms.monodepth2", "ms", "lower"},
	{"nn.gflops.yolov8n", "GFLOP/s", "higher"},
	{"nn.gflops.bodypose", "GFLOP/s", "higher"},
	{"nn.gflops.monodepth2", "GFLOP/s", "higher"},
	{"nn.eff.yolov8n", "ratio", "higher"},
	{"nn.eff.bodypose", "ratio", "higher"},
	{"nn.eff.monodepth2", "ratio", "higher"},
	{"nn.glue_ms", "ms", "lower"},
	{"nn.allocs_per_frame", "count", "lower"},
	{"nn.allocs_per_batch", "count", "lower"},
	{"nn.gc_per_100_frames", "count", "lower"},
	{"nn.i8_over_f32", "ratio", "lower"},
	{"nn.b4_over_b1", "ratio", "lower"},
	{"nn.two_stream_speedup", "ratio", "higher"},
	{"nn.compile_ms", "ms", "lower"},
	{"nn.bind_ms", "ms", "lower"},
	{"models.calibrate_ms", "ms", "lower"},
	{"serve.ns_per_event", "ns", "lower"},
	{"serve.events_per_req", "count", "lower"},
	{"serve.advance_s", "s", "lower"},
	{"serve.drain_s", "s", "lower"},
	{"serve.goodput_per_s", "1/s", "higher"},
	{"serve.latency_ms_p99", "ms", "lower"},
	{"serve.shed_pct", "%", "lower"},
	{"serve.expired_pct", "%", "lower"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.utilization", "ratio", "higher"},
	{"serve.latency_ms_p99.interactive", "ms", "lower"},
	{"serve.latency_ms_p99.standard", "ms", "lower"},
	{"serve.latency_ms_p99.background", "ms", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.hedge_win_pct", "%", "higher"},
	{"serve.sdc_coverage_pct", "%", "higher"},
	{"chaos.fault_episodes", "count", "lower"},
	{"chaos.recovered_pct", "%", "higher"},
	{"chaos.mean_recovery_ms", "ms", "lower"},
	{"chaos.lost_pct", "%", "lower"},
	{"temporal.bridged_pct", "%", "lower"},
	{"temporal.roi_pct", "%", "lower"},
	{"temporal.early_exit_pct", "%", "lower"},
	{"temporal.stale_ms_max", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// perLayer picks every per-layer metric out of a profile's values.
func perLayer(vals map[string]float64) (map[string]metric, error) {
	m := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		m[d.name] = metric{v, d.unit}
	}
	return m, nil
}

// profileOrder is the order the layer profile traces the workloads in.
var profileOrder = []string{"vip-trio", "fleet-int8", "serve-knee"}

// profileLayers is the traced run (--trace 1). Whichever workload is
// named, it measures every layer: the tensor kernels first, then each
// workload traced, the named one for half the budget and the others for
// a quarter each. Traced steps alternate with untraced ones
// (tracer.on); the difference between their median times on the named
// workload is the tracing overhead. The spans are written
// to spansPath.
func profileLayers(name string, seed uint64, budget time.Duration, host *hostStamp, spansPath string) (*outcome, error) {
	l := map[string]float64{}
	host.GemmF32GFLOPS, host.GemmI8GOPS = gemmPeaks()
	l["tensor.gemm_f32_gflops"], l["tensor.gemm_i8_gops"] = host.GemmF32GFLOPS, host.GemmI8GOPS
	// The yolov8n stem (3->16, 3x3 stride 2 at 128x128) and a deep
	// 64->64 3x3 at 16x16: the narrowest and a typical wide conv.
	stem := tensor.ConvSpec{InC: 3, OutC: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	l["tensor.conv_stem_f32_gflops"], l["tensor.conv_stem_i8_gops"] = convRates(stem, 128, 128)
	c64 := tensor.ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	l["tensor.conv_c64_f32_gflops"], l["tensor.conv_c64_i8_gops"] = convRates(c64, 16, 16)

	tr := newTracer()
	total := &outcome{}
	for _, wl := range profileOrder {
		share := budget / 4
		if wl == name {
			share = budget / 2
		}
		o := workloads[wl](seed, share, tr)
		total.absorb(wl, o)
		for k, v := range o.layer {
			l[k] = v
		}
		if wl == name {
			l["trace.overhead_pct"] = 100 * (median(o.tracedMS)/median(o.untracedMS) - 1)
		}
	}
	for _, m := range vipTrio {
		n := m.id.String()
		l["nn.eff."+n] = l["nn.gflops."+n] / host.GemmF32GFLOPS
	}
	if err := tr.write(spansPath, *host); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	total.layer = l
	return total, nil
}

// absorb adds one section's counts and named values to a profile.
func (o *outcome) absorb(section string, part *outcome) {
	o.attempted += part.attempted
	o.failed += part.failed
	for _, f := range part.failures {
		if len(o.failures) < 5 {
			o.failures = append(o.failures, section+": "+f)
		}
	}
	for _, nv := range part.named {
		o.note(section+"."+nv.name, nv.value, nv.unit)
	}
}

// fleetLayers measures, on set-up fleet streams, the ratios that show
// whether int8, batching and a second stream pay at the network level,
// and the calibration share of set-up. buildQuantMS is the median
// models.BuildQuantized time of one stream.
func fleetLayers(ss []*stream, buildQuantMS float64, budget time.Duration, o *outcome) {
	var buildMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		models.Build(fleetModel.id, 1, weightSeed)
		buildMS = append(buildMS, msSince(t0))
	}
	o.layer["models.calibrate_ms"] = buildQuantMS - median(buildMS)

	plan, xs := ss[0].p.plan, ss[0].batches[0]
	t := interleave(budget/6,
		func() { plan.Execute(xs[:1], nn.ExecOpts{Batch: 1}) },
		func() { plan.Execute(xs[:1], nn.ExecOpts{Batch: 1, Precision: nn.INT8}) },
		func() { plan.Execute(xs, nn.ExecOpts{Batch: len(xs), Precision: nn.INT8}) })
	o.layer["nn.i8_over_f32"] = t[1] / t[0]
	o.layer["nn.b4_over_b1"] = t[2] / float64(len(xs)) / t[1]

	// One stream, then all of them, twice over, so host drift falls on
	// both sides of the ratio.
	var frames [2]int
	var wall [2]time.Duration
	for round := 0; round < 2; round++ {
		for k, n := range []int{1, len(ss)} {
			r := fleetLoop(ss[:n], budget/8, nil, o)
			frames[k] += r.frames
			wall[k] += r.wall
		}
	}
	o.layer["nn.two_stream_speedup"] = (float64(frames[1]) / wall[1].Seconds()) /
		(float64(frames[0]) / wall[0].Seconds())
}

// interleave calls each of fns in turn, round after round, for about d
// after one warm-up round, and returns each one's median seconds per
// call. Alternating keeps slow drift of the host out of the ratios
// between them.
func interleave(d time.Duration, fns ...func()) []float64 {
	for _, fn := range fns {
		fn()
	}
	ts := make([][]float64, len(fns))
	end := time.Now().Add(d)
	for len(ts[0]) < 5 || time.Now().Before(end) {
		for i, fn := range fns {
			t0 := time.Now()
			fn()
			ts[i] = append(ts[i], time.Since(t0).Seconds())
		}
	}
	med := make([]float64, len(fns))
	for i := range ts {
		med[i] = median(ts[i])
	}
	return med
}

func randTensor(r *rng.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = 2*r.Float32() - 1
	}
	return t
}

// gemmPeaks measures the host calibration peaks: MatMulInto and
// MatMulInt8Into at 512x512x512.
func gemmPeaks() (f32GFLOPS, i8GOPS float64) {
	const n = 512
	r := rng.New(weightSeed).Split("gemm")
	a, b := randTensor(r, n, n), randTensor(r, n, n)
	dst := tensor.New(n, n)
	ops := 2.0 * n * n * n
	qa, qb := tensor.QuantizeSymmetric(a), tensor.QuantizeSymmetric(b)
	rowScale := make([]float32, n)
	for i := range rowScale {
		rowScale[i] = qa.ScaleFor(i) * qb.ScaleFor(0)
	}
	t := interleave(600*time.Millisecond,
		func() { tensor.MatMulInto(dst, a, b) },
		func() { tensor.MatMulInt8Into(dst, qa, qb, rowScale) })
	return ops / t[0] / 1e9, ops / t[1] / 1e9
}

// convRates measures the packed implicit-im2col conv kernels, fp32 and
// int8, on one dense conv over an h x w input in [0, 1).
func convRates(spec tensor.ConvSpec, h, w int) (f32GFLOPS, i8GOPS float64) {
	r := rng.New(weightSeed).Split("conv")
	x := tensor.New(spec.InC, h, w)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	wt := randTensor(r, spec.OutC, spec.InC, spec.KH, spec.KW)
	k := spec.InC * spec.KH * spec.KW
	oh, ow := spec.OutSize(h, w)
	dst := tensor.New(spec.OutC, oh*ow)
	ops := 2.0 * float64(spec.OutC*k*oh*ow)

	wp := tensor.PackWeights(tensor.FromSlice(wt.Data, spec.OutC, k))
	qw := tensor.QuantizePerChannel(wt)
	qp := tensor.PackWeightsQ(qw.Data, spec.OutC, k)
	const xScale = float32(1.0 / 127) // inputs lie in [0, 1)
	rowScale := make([]float32, spec.OutC)
	for i := range rowScale {
		rowScale[i] = qw.ScaleFor(i) * xScale
	}
	t := interleave(400*time.Millisecond,
		func() { tensor.ConvPackedInto(dst, wp, x, spec, 0, oh, ow, tensor.Epilogue{}, 0) },
		func() {
			tensor.ConvPackedQInto(dst, qp, x, spec, 0, oh, ow, 1/xScale, rowScale, tensor.Epilogue{}, 0)
		})
	return ops / t[0] / 1e9, ops / t[1] / 1e9
}
