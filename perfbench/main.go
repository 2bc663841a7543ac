// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall-clock budget, checks the program's outputs
// outside the timed region, and ends its standard output with one JSON
// line {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it measures untraced and reports the end-to-end
// metrics; with --trace 1 it runs the layer profile (layers.go), which
// times calls into tensor, nn, models, serve, chaos and temporal,
// records spans, writes them out at exit and reports the per-layer
// metrics.
//
// Workloads (engine.go, serving.go):
//
//	vip-trio    closed loop over one drone stream, fp32, batch 1: every
//	            frame runs yolov8n 128x128, bodypose 96x96 and
//	            monodepth2 64x192 back to back, one plan each.
//	fleet-int8  two drone streams (one goroutine and one plan each) in
//	            lockstep rounds: yolov8n int8 at 128x128, batch 4.
//	serve-knee  the open-loop serving simulator at rho = 1.0 with every
//	            chaos process, adaptive precision, retry + hedge and the
//	            temporal ladder live.
//
// The end-to-end metrics are the same five on every workload; a step is
// one frame (vip-trio), one 4-frame Execute (fleet-int8) or one
// simulated window, its median over the run's replays (serve-knee), and
// throughput counts frames or simulated requests per wall second. Each
// workload also prints its metrics under their own names
// (frame_ms_p50, goodput_per_s, ...) above the JSON line.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload vip-trio --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ocularone/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloads maps each workload name to its runner. A runner given a
// nil tracer measures untraced.
var workloads = map[string]func(seed uint64, budget time.Duration, tr *tracer) *outcome{
	"vip-trio":   runVIP,
	"fleet-int8": runFleet,
	"serve-knee": runServe,
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	failures          []string // the first few failed checks, for the report

	setupS     []float64 // one entry per set-up repetition
	stepMS     []float64 // per frame, batch or simulated window
	throughput float64   // frames or simulated requests per wall second

	// named holds the workload's metrics under their own names, in
	// report order.
	named []namedValue
	// layer holds the per-layer values a traced run gathered.
	layer map[string]float64
	// tracedMS and untracedMS split a traced run's steps by whether
	// they recorded spans.
	tracedMS, untracedMS []float64
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// reserveSplit preallocates the step split of a traced loop, so filing
// steps allocates nothing inside the loop.
func (o *outcome) reserveSplit(tr *tracer) {
	if tr != nil {
		o.tracedMS = make([]float64, 0, maxSteps)
		o.untracedMS = make([]float64, 0, maxSteps)
	}
}

// splitStep files step n of a traced loop (see tracer.on).
func (o *outcome) splitStep(n int, ms float64, tr *tracer) {
	switch {
	case tr == nil:
	case n%2 == 0:
		o.tracedMS = append(o.tracedMS, ms)
	default:
		o.untracedMS = append(o.untracedMS, ms)
	}
}

func (o *outcome) note(name string, value float64, unit string) {
	o.named = append(o.named, namedValue{name, value, unit})
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: vip-trio | fleet-int8 | serve-knee")
	seed := fs.Uint64("seed", 1, "workload seed: generates the frames and the traffic; model weights keep fixed seeds")
	seconds := fs.Float64("seconds", 10, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "0: untraced, end-to-end metrics; 1: layer profile, per-layer metrics")
	spans := fs.String("spans", "", "span file of the traced run (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	host := stampHost()
	fmt.Fprintf(stdout, "workload %s seed %d seconds %v trace %d\n", *name, *seed, *seconds, *trace)

	var out *outcome
	var metrics map[string]metric
	if *trace == 0 {
		out = runner(*seed, budget, nil)
		host.GemmF32GFLOPS, host.GemmI8GOPS = gemmPeaks()
		metrics = endToEnd(out)
	} else {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		}
		var err error
		if out, err = profileLayers(*name, *seed, budget, &host, path); err != nil {
			return err
		}
		if metrics, err = perLayer(out.layer); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}

	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", hb)
	for _, nv := range out.named {
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", nv.name, nv.value, nv.unit)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-34s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "attempted %d failed %d\n", out.attempted, out.failed)
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", rb)
	return err
}

// endToEnd turns an untraced outcome into the end-to-end metrics.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(o.setupS), "s"},
		"step_ms_p50":      {quantile(o.stepMS, 0.50), "ms"},
		"step_ms_p90":      {quantile(o.stepMS, 0.90), "ms"},
		"throughput_per_s": {o.throughput, "1/s"},
		"rss_peak_mb":      {rssPeakMB(), "MB"},
	}
}

// hostStamp identifies the machine and kernel tier a result was
// measured on. Absolute numbers compare only within one kernel tier.
type hostStamp struct {
	CPU           string  `json:"cpu"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go"`
	KernelTier    string  `json:"kernel_tier"`
	GemmF32GFLOPS float64 `json:"gemm_f32_gflops"`
	GemmI8GOPS    float64 `json:"gemm_i8_gops"`
}

func stampHost() hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		KernelTier: tensor.KernelTierDesc(),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown"
// where /proc/cpuinfo is unavailable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupReps is how many times a workload repeats its set-up: set-up
// time is the median of several, up to three when the budget allows.
func setupReps(budget time.Duration) int {
	n := int(budget / (6 * time.Second))
	if n < 1 {
		return 1
	}
	if n > 3 {
		return 3
	}
	return n
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
