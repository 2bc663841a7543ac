// VIP navigation: the full Ocularone assistance pipeline on a synthetic
// drone video — vest detection, pose analysis with fall alerts, depth
// estimation with obstacle alerts — expressed as a stage graph and run
// as a drone session with per-frame timing simulated on a Jetson Orin
// AGX.
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
	// Train the full analytics stack (detector + fall SVM + depth) at a
	// small scale.
	suite := core.New(bench.Scale{Data: 0.01, TimingFrames: 50, W: 320, H: 240, Seed: 42, TrainFrac: 0.2})
	stack, err := suite.BuildStack(models.YOLOv8, models.Medium)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vip_navigation:", err)
		os.Exit(1)
	}
	fmt.Printf("stack ready: %s\n", stack.Detector)

	// A 10-second drone flight following the VIP along a footpath with a
	// pedestrian, a parked car, and a lamp post the flight approaches.
	v := video.New(video.Spec{
		ID: 1, DurationSec: 10, FPS: 30, W: 320, H: 240,
		Background: scene.Footpath, Lighting: 1.0, Seed: 7,
		Pedestrians: 1, ParkedCars: 1, LampPosts: 1,
	})
	fmt.Printf("video: %d frames at %d FPS\n", v.NumFrames(), v.Spec.FPS)

	// Assemble the classic detect→{pose,depth} graph, everything on the
	// companion edge device (Orin AGX) — the paper's edge deployment —
	// and run it as a live drone session: 10 FPS analysis with the
	// drop-when-busy back-pressure policy of a real feed.
	g := stack.Graph(pipeline.EdgePlacement(device.OrinAGX, models.V8Medium), 6, false)
	fmt.Printf("graph: stages %v\n", g.Stages())
	s := &pipeline.Session{
		Source: v, Graph: g, Policy: pipeline.DropPolicy{},
		FrameFPS: 10, MaxFrames: 40, Seed: 1,
	}
	res, err := s.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vip_navigation:", err)
		os.Exit(1)
	}

	fmt.Printf("\nprocessed %d frames (%d dropped under load)\n", len(res.Frames), res.Dropped)
	fmt.Printf("VIP detection rate: %.0f%%\n", res.DetectionRate*100)
	fmt.Printf("end-to-end latency: %s\n", res.E2E)
	fmt.Printf("deadline (100 ms) met: %.0f%% of frames\n", res.DeadlineOK*100)
	fmt.Printf("alerts: %d\n", len(res.Alerts))
	for _, a := range res.Alerts {
		fmt.Printf("  frame %4d  %-10s %s\n", a.FrameIndex, a.Kind, a.Detail)
	}
	if len(res.Alerts) == 0 {
		fmt.Println("  (none — nominal walk)")
	}
}
