package nn_test

import (
	"sync"
	"testing"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/tensor"
)

// TestPlanInstancesRunConcurrently pins the engine's multi-core model:
// kernels run on the caller's goroutine, so throughput scales by
// executing independent plan instances side by side. Two yolov8n
// networks built from the same seed, one plan each, execute batch-4
// fp32 and int8 frames at the same time on two goroutines; every
// output must be bit-identical to a serial run of the same inputs on
// the first plan. Under -race this also covers the tensor package's
// shared scratch pools, which both instances draw from.
func TestPlanInstancesRunConcurrently(t *testing.T) {
	const seed = 43
	plans := [2]*nn.Plan{}
	for i := range plans {
		plans[i] = models.BuildQuantized(models.V8Nano, 2, seed, 3, 96, 96).PlanFor(3, 96, 96)
	}
	inputs := [2][]*tensor.Tensor{randFrames(44, 4, 3, 96, 96), randFrames(45, 4, 3, 96, 96)}
	for _, prec := range []nn.Precision{nn.FP32, nn.INT8} {
		opts := nn.ExecOpts{Precision: prec}
		// Serial reference: both input sets through the first plan, one
		// after the other. Outputs alias the plan's arena, so clone them.
		var want [2][][]*tensor.Tensor
		for i, xs := range inputs {
			for _, outs := range plans[0].Execute(xs, opts) {
				cloned := make([]*tensor.Tensor, len(outs))
				for oi, o := range outs {
					cloned[oi] = o.Clone()
				}
				want[i] = append(want[i], cloned)
			}
		}
		var got [2][][]*tensor.Tensor
		var wg sync.WaitGroup
		for i := range plans {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = plans[i].Execute(inputs[i], opts)
			}(i)
		}
		wg.Wait()
		for i := range got {
			for b := range got[i] {
				for oi := range got[i][b] {
					if !got[i][b][oi].Equal(want[i][b][oi], 0) {
						t.Fatalf("%v: plan %d sample %d output %d diverges from the serial run", prec, i, b, oi)
					}
				}
			}
		}
	}
}
