package models

import "ocularone/internal/nn"

// BuildPlanned builds a model and compiles its execution plan for the
// given input size, returning both: the network (weights, calibration
// hooks, the interpreter reference) and the plan that serves it. The
// plan is also cached on the network, so Forward* wrappers reuse the
// same compiled program — BuildPlanned just fronts the compile cost at
// build time instead of on the first frame, the way a deployment
// pipeline wants it.
func BuildPlanned(id ID, nc int, seed uint64, h, w int) (*nn.Network, *nn.Plan) {
	net := Build(id, nc, seed)
	return net, net.PlanFor(3, h, w)
}

// PlanFootprint is one model's compiled-plan memory geometry at a
// given input size: arena slots and floats per sample, plus the shared
// kernel scratch (materialised-im2col cols and batch staging) that
// only reference-path convolutions still require. cmd/benchtrace
// records it per PR so the packed-GEMM scratch reductions stay visible
// in the trajectory.
type PlanFootprint struct {
	Model       string `json:"model"`
	H, W        int    `json:"-"`
	Slots       int    `json:"slots"`
	ArenaFloats int    `json:"arena_floats"`
	ColsFloats  int    `json:"cols_scratch_floats"`
	BigFloats   int    `json:"big_scratch_floats"`
}

// MeasurePlanFootprint compiles id for a 3×h×w input and reports the
// plan's memory geometry.
func MeasurePlanFootprint(id ID, h, w int) PlanFootprint {
	net := Build(id, 1, 1)
	p := net.PlanFor(3, h, w)
	slots, arena := p.Slots()
	cols, big := p.ScratchPerSample()
	return PlanFootprint{
		Model: id.String(), H: h, W: w,
		Slots: slots, ArenaFloats: arena, ColsFloats: cols, BigFloats: big,
	}
}
