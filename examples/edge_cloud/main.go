// Edge-cloud placement: the deployment question §4.2.4 of the paper
// raises — large accurate models on the workstation, small fast ones on
// the edge. This example builds one stage graph per placement and runs
// the same drone video through each as a session, comparing the
// accuracy-latency trade-offs.
package main

import (
	"fmt"
	"os"

	"ocularone/internal/bench"
	"ocularone/internal/core"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/pipeline"
	"ocularone/internal/scene"
	"ocularone/internal/video"
)

func main() {
	suite := core.New(bench.Scale{Data: 0.01, TimingFrames: 50, W: 320, H: 240, Seed: 42, TrainFrac: 0.2})
	// Two detector variants: nano (edge-friendly) and x-large (accurate).
	nanoStack, err := suite.BuildStack(models.YOLOv8, models.Nano)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edge_cloud:", err)
		os.Exit(1)
	}
	xStack, err := suite.BuildStack(models.YOLOv8, models.XLarge)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edge_cloud:", err)
		os.Exit(1)
	}

	type variant struct {
		name  string
		stack *core.Stack
		place map[string]pipeline.Placement
		rtt   float64
	}
	variants := []variant{
		{"edge-only nano @ o-nano", nanoStack,
			pipeline.EdgePlacement(device.OrinNano, models.V8Nano), 0},
		{"edge-only x-large @ nx", xStack,
			pipeline.EdgePlacement(device.XavierNX, models.V8XLarge), 0},
		{"hybrid x-large @ rtx4090 + aux @ o-nano", xStack,
			pipeline.HybridPlacement(device.OrinNano, models.V8XLarge), 25},
	}

	fmt.Printf("%-42s %10s %10s %10s %10s\n", "placement", "detect%", "medianE2E", "p95E2E", "dropped")
	for _, vt := range variants {
		// Identical feed per variant: fresh video, same spec and seed.
		v := video.New(video.Spec{
			ID: 1, DurationSec: 8, FPS: 30, W: 320, H: 240,
			Background: scene.Path, Lighting: 0.95, Seed: 13, Pedestrians: 2,
		})
		s := &pipeline.Session{
			Source: v, Graph: vt.stack.Graph(vt.place, 0, false),
			Policy: pipeline.DropPolicy{}, FrameFPS: 10, MaxFrames: 30,
			EdgeRTTms: vt.rtt, Seed: 3,
		}
		res, err := s.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "edge_cloud:", err)
			os.Exit(1)
		}
		fmt.Printf("%-42s %9.0f%% %8.0fms %8.0fms %10d\n",
			vt.name, res.DetectionRate*100, res.E2E.MedianMS, res.E2E.P95MS, res.Dropped)
	}
	fmt.Println("\nThe hybrid placement recovers the x-large model's accuracy at a")
	fmt.Println("fraction of its edge latency — the collaboration §4.2.4 advocates.")
}
