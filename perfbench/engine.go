package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// weightSeed fixes the model weights, so every run serves the same
// networks; only the input frames follow --seed.
const weightSeed = 1

// framePool is how many distinct frames a stream cycles through. Every
// frame repeats, so each repeat is checked bit for bit against the
// frame's first outputs.
const framePool = 8

// fleetBatch is the per-stream batch width of fleet-int8.
const fleetBatch = 4

// engineModel is one model of an engine workload at its input size.
type engineModel struct {
	id   models.ID
	h, w int
}

// vipTrio is the per-drone edge frame: vest detection, pose and depth.
var vipTrio = [...]engineModel{
	{models.V8Nano, 128, 128},
	{models.Bodypose, 96, 96},
	{models.Monodepth2, 64, 192},
}

var fleetModel = engineModel{models.V8Nano, 128, 128}

// setupTimes splits one model's set-up across the layers that pay it.
type setupTimes struct {
	build, compile, bind time.Duration // build includes calibration for int8
}

// planned is one compiled model serving one stream.
type planned struct {
	name  string
	plan  *nn.Plan
	opts  nn.ExecOpts
	flops float64 // per frame, from Network.Cost
}

// setupModel builds, compiles and binds one model: the set-up a
// deployment pays before its first frame. first is the bind input.
func setupModel(m engineModel, prec nn.Precision, first []*tensor.Tensor) (planned, setupTimes) {
	var st setupTimes
	t0 := time.Now()
	var net *nn.Network
	if prec == nn.INT8 {
		net = models.BuildQuantized(m.id, 1, weightSeed, 3, m.h, m.w)
	} else {
		net = models.Build(m.id, 1, weightSeed)
	}
	t1 := time.Now()
	plan := net.PlanFor(3, m.h, m.w)
	t2 := time.Now()
	opts := nn.ExecOpts{Batch: len(first), Precision: prec}
	plan.Execute(first, opts)
	st.build, st.compile, st.bind = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	flops, _ := net.Cost(nn.Shape{C: 3, H: m.h, W: m.w})
	return planned{name: m.id.String(), plan: plan, opts: opts, flops: float64(flops)}, st
}

// makeFrames draws n synthetic frames in [0, 1) from the workload seed.
func makeFrames(r *rng.RNG, n int, m engineModel) []*tensor.Tensor {
	fs := make([]*tensor.Tensor, n)
	for i := range fs {
		f := tensor.New(3, m.h, m.w)
		for j := range f.Data {
			f.Data[j] = r.Float32()
		}
		fs[i] = f
	}
	return fs
}

// digest hashes one sample's outputs bit for bit (FNV-1a over the
// float32 bits) and reports whether every value is finite. It
// allocates nothing, so the allocation counts of a traced loop are the
// plan's own.
func digest(outs []*tensor.Tensor) (uint64, bool) {
	h := uint64(14695981039346656037)
	finite := true
	for _, t := range outs {
		for _, v := range t.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				finite = false
			}
			u := math.Float32bits(v)
			for k := 0; k < 4; k++ {
				h ^= uint64(u & 0xff)
				h *= 1099511628211
				u >>= 8
			}
		}
	}
	return h, finite
}

// memCounters reads the allocator counters a traced run reports.
func memCounters() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}

// maxSteps preallocates the per-step timing slices, so the timed
// loops allocate nothing of their own.
const maxSteps = 1 << 16

// runVIP is the vip-trio workload.
func runVIP(seed uint64, budget time.Duration, tr *tracer) *outcome {
	r := rng.New(seed).Split("vip-trio")
	var frames [len(vipTrio)][]*tensor.Tensor
	for i, m := range vipTrio {
		frames[i] = makeFrames(r.Split(m.id.String()), framePool, m)
	}
	o := &outcome{layer: map[string]float64{}}
	var ms [len(vipTrio)]planned
	var compileMS, bindMS []float64
	for rep := 0; rep < setupReps(budget); rep++ {
		ms = [len(vipTrio)]planned{}
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		var c, b time.Duration
		for i, m := range vipTrio {
			var st setupTimes
			ms[i], st = setupModel(m, nn.FP32, frames[i][:1])
			c += st.compile
			b += st.bind
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		compileMS = append(compileMS, float64(c)/1e6)
		bindMS = append(bindMS, float64(b)/1e6)
	}
	o.layer["nn.compile_ms"] = median(compileMS)
	o.layer["nn.bind_ms"] = median(bindMS)

	// Reference pass: each frame's first outputs.
	var ref [framePool][len(vipTrio)]uint64
	for f := 0; f < framePool; f++ {
		for i := range ms {
			outs := ms[i].plan.Execute(frames[i][f:f+1], ms[i].opts)
			d, ok := digest(outs[0])
			o.attempted++
			if !ok {
				o.fail("%s frame %d: non-finite output", ms[i].name, f)
			}
			ref[f][i] = d
		}
	}

	var spanNames [len(vipTrio)]string
	for i := range ms {
		spanNames[i] = "nn.Plan.Execute/" + ms[i].name
	}
	o.stepMS = make([]float64, 0, maxSteps)
	o.reserveSplit(tr)
	runtime.GC() // set-up garbage is not the loop's
	var busy time.Duration
	var outs [len(vipTrio)][][]*tensor.Tensor
	root := tr.begin("workload.vip-trio", 0, -1)
	m0, gc0 := memCounters()
	deadline := time.Now().Add(budget)
	n := 0
	for ; n < maxSteps && (n < 2 || time.Now().Before(deadline)); n++ {
		f := n % framePool
		id := int64(n + 1)
		st := tr.on(n)
		t0 := time.Now()
		fs := st.begin("frame", id, root)
		for i := range ms {
			s := st.begin(spanNames[i], id, fs)
			outs[i] = ms[i].plan.Execute(frames[i][f:f+1], ms[i].opts)
			st.end(s)
		}
		st.end(fs)
		d := time.Since(t0)
		busy += d
		o.stepMS = append(o.stepMS, float64(d)/1e6)
		o.splitStep(n, float64(d)/1e6, tr)
		// Checked outside the timed region: outputs stay valid until the
		// plan's next Execute.
		for i := range ms {
			got, ok := digest(outs[i][0])
			o.attempted++
			switch {
			case !ok:
				o.fail("%s frame %d: non-finite output", ms[i].name, n)
			case got != ref[f][i]:
				o.fail("%s frame %d: repeat of pool frame %d differs from its first run", ms[i].name, n, f)
			}
		}
	}
	m1, gc1 := memCounters()
	tr.end(root)
	o.throughput = float64(n) / busy.Seconds()

	o.note("frames", float64(n), "count")
	o.note("frame_ms_p50", quantile(o.stepMS, 0.5), "ms")
	o.note("frame_ms_p90", quantile(o.stepMS, 0.9), "ms")
	o.note("frames_per_s", o.throughput, "1/s")
	if tr != nil {
		for i := range ms {
			p50 := median(tr.selfMS(spanNames[i]))
			o.layer["nn.exec_ms."+ms[i].name] = p50
			o.layer["nn.gflops."+ms[i].name] = ms[i].flops / p50 / 1e6
		}
		o.layer["nn.glue_ms"] = median(tr.selfMS("frame"))
		o.layer["nn.allocs_per_frame"] = float64(m1-m0) / float64(n)
		o.layer["nn.gc_per_100_frames"] = 100 * float64(gc1-gc0) / float64(n)
	}
	return o
}

// stream is one fleet drone: its own plan (a Plan is not safe for
// concurrent Execute), its frame batches and their first outputs.
type stream struct {
	p       planned
	batches [][]*tensor.Tensor
	ref     [][]uint64 // per batch, per frame
}

// fleetStreams is the number of concurrent streams: two, but never more
// load goroutines than CPUs.
func fleetStreams() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// setupFleet builds every stream's int8 plan (build, calibrate,
// quantize, compile, bind) and records the batch outputs the timed loop
// checks against. It returns the streams and the median per-stream
// models.BuildQuantized time.
func setupFleet(seed uint64, budget time.Duration, o *outcome) ([]*stream, float64) {
	r := rng.New(seed).Split("fleet-int8")
	ss := make([]*stream, fleetStreams())
	for i := range ss {
		frames := makeFrames(r.SplitN("stream", i), framePool, fleetModel)
		s := &stream{}
		for b := 0; b+fleetBatch <= len(frames); b += fleetBatch {
			s.batches = append(s.batches, frames[b:b+fleetBatch])
		}
		ss[i] = s
	}
	var buildMS []float64
	for rep := 0; rep < setupReps(budget); rep++ {
		for _, s := range ss {
			s.p = planned{}
		}
		runtime.GC()
		t0 := time.Now()
		for _, s := range ss {
			var st setupTimes
			s.p, st = setupModel(fleetModel, nn.INT8, s.batches[0])
			buildMS = append(buildMS, float64(st.build)/1e6)
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	for _, s := range ss {
		s.ref = make([][]uint64, len(s.batches))
		for b, xs := range s.batches {
			outs := s.p.plan.Execute(xs, s.p.opts)
			s.ref[b] = make([]uint64, len(xs))
			for j := range xs {
				d, ok := digest(outs[j])
				o.attempted++
				if !ok {
					o.fail("%s batch %d frame %d: non-finite output", s.p.name, b, j)
				}
				s.ref[b][j] = d
			}
		}
	}
	return ss, median(buildMS)
}

// fleetResult is what one run of the fleet loop measured.
type fleetResult struct {
	batchMS []float64
	frames  int
	wall    time.Duration // summed round times
	mallocs uint64        // heap allocations during the loop (every one is the plans')
}

// fleetLoop runs the streams in lockstep rounds, one goroutine per
// stream, until the budget is spent: every round starts all streams'
// batches together and ends when the last one finishes. Left free
// running, the streams drift in and out of phase, and a batch takes
// anywhere from its solo time to its fully contended time depending on
// the phase, so the batch times would follow the phase rather than the
// program. Each batch's outputs are checked after it is timed.
func fleetLoop(ss []*stream, budget time.Duration, tr *tracer, o *outcome) fleetResult {
	type part struct {
		ms       []float64
		split    outcome // traced and untraced steps
		checked  int64
		failures []string
	}
	parts := make([]part, len(ss))
	spanNames := make([]string, len(ss))
	rounds := make([]chan int, len(ss))
	for si, s := range ss {
		parts[si].ms = make([]float64, 0, maxSteps)
		parts[si].split.reserveSplit(tr)
		spanNames[si] = fmt.Sprintf("nn.Plan.Execute/%s-%s-b%d", s.p.name, s.p.opts.Precision, fleetBatch)
		rounds[si] = make(chan int)
	}
	root := tr.begin("workload.fleet-int8", 0, -1)
	var round, exited sync.WaitGroup
	for si := range ss {
		exited.Add(1)
		go func(si int) {
			defer exited.Done()
			s, p := ss[si], &parts[si]
			for n := range rounds[si] {
				b := n % len(s.batches)
				id := int64(si)<<32 | int64(n+1)
				st := tr.on(n)
				t0 := time.Now()
				bs := st.begin("batch", id, root)
				es := st.begin(spanNames[si], id, bs)
				outs := s.p.plan.Execute(s.batches[b], s.p.opts)
				st.end(es)
				st.end(bs)
				d := float64(time.Since(t0)) / 1e6
				round.Done()
				p.ms = append(p.ms, d)
				p.split.splitStep(n, d, tr)
				for j := range outs {
					got, ok := digest(outs[j])
					p.checked++
					if !ok || got != s.ref[b][j] {
						p.failures = append(p.failures, fmt.Sprintf("stream %d batch %d frame %d: finite=%v, matches first run=%v", si, n, j, ok, got == s.ref[b][j]))
					}
				}
			}
		}(si)
	}
	runtime.GC() // set-up garbage is not the loop's
	m0, _ := memCounters()
	t0 := time.Now()
	deadline := t0.Add(budget)
	var busy time.Duration
	for n := 0; n < maxSteps && (n < 2 || time.Now().Before(deadline)); n++ {
		// A stream takes the next round once it has checked its previous
		// batch, so a round's time also covers the last checks, a small
		// fraction of a round next to the Executes.
		r0 := time.Now()
		round.Add(len(ss))
		for _, c := range rounds {
			c <- n
		}
		round.Wait()
		busy += time.Since(r0)
	}
	for _, c := range rounds {
		close(c)
	}
	exited.Wait()
	res := fleetResult{wall: busy}
	m1, _ := memCounters()
	tr.end(root)
	res.mallocs = m1 - m0
	for _, p := range parts {
		res.batchMS = append(res.batchMS, p.ms...)
		o.tracedMS = append(o.tracedMS, p.split.tracedMS...)
		o.untracedMS = append(o.untracedMS, p.split.untracedMS...)
		o.attempted += p.checked
		for _, f := range p.failures {
			o.fail("%s", f)
		}
	}
	res.frames = len(res.batchMS) * fleetBatch
	return res
}

// checkBatchParity executes every frame of every stream at batch 1 and
// checks it equals the same frame's output inside its batch.
func checkBatchParity(ss []*stream, o *outcome) {
	opts := nn.ExecOpts{Batch: 1, Precision: nn.INT8}
	for si, s := range ss {
		for b, xs := range s.batches {
			for j := range xs {
				outs := s.p.plan.Execute(xs[j:j+1], opts)
				d, ok := digest(outs[0])
				o.attempted++
				if !ok || d != s.ref[b][j] {
					o.fail("stream %d batch %d frame %d: batch-1 output differs from batch-%d", si, b, j, fleetBatch)
				}
			}
		}
	}
}

// runFleet is the fleet-int8 workload.
func runFleet(seed uint64, budget time.Duration, tr *tracer) *outcome {
	o := &outcome{layer: map[string]float64{}}
	ss, buildQuantMS := setupFleet(seed, budget, o)
	fr := fleetLoop(ss, budget, tr, o)
	checkBatchParity(ss, o)
	if tr != nil {
		fleetLayers(ss, buildQuantMS, budget, o)
	}
	o.stepMS = fr.batchMS
	o.throughput = float64(fr.frames) / fr.wall.Seconds()
	o.note("streams", float64(len(ss)), "count")
	o.note("batches", float64(len(fr.batchMS)), "count")
	o.note("batch_ms_p50", quantile(fr.batchMS, 0.5), "ms")
	o.note("batch_ms_p90", quantile(fr.batchMS, 0.9), "ms")
	o.note("frames_per_s", o.throughput, "1/s")
	if tr != nil {
		o.layer["nn.allocs_per_batch"] = float64(fr.mallocs) / float64(len(fr.batchMS))
	}
	return o
}
