// Package benchmark is the repository's benchmark, described by
// BENCHMARK.json at the root of the repository and by README.md here. It is a
// module of its own, so the repository builds and tests without it.
//
//   - gen generates each workload's subscriptions and documents from a seed;
//   - load drives a child mmqjp-server over its wire protocol, times a host
//     reference beside it, and turns what it observes into the end-to-end
//     metrics;
//   - cmd/bench is the one command: it builds the server, runs the workloads,
//     checks their output and prints every metric;
//   - cmd/layers is the traced in-process run that gives the per-layer metrics.
package benchmark
