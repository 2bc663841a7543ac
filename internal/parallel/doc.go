// Package parallel provides a chunked parallel-for (For, ForRange) for
// coarse data-parallel work outside the inference kernels: image
// filters, detector training/evaluation over a dataset, and stepping
// a fleet's independent sessions.
//
// The tensor kernels do not use it. A kernel runs on its caller's
// goroutine, and multi-core throughput comes from running independent
// plan instances (one per stream or session) side by side; see
// internal/tensor's package doc. Results never depend on scheduling
// order, because every index is processed by exactly one goroutine.
package parallel
