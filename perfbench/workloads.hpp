#pragma once

// The benchmark's workloads. Each runs through the library's public API,
// checks every output against a serial reference, and reports end-to-end
// metrics (untraced) and, when traced, per-layer metrics measured around
// the benchmark's own calls into each layer.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of the run
  // Phases to measure; with both, each gets half of `seconds`.
  bool untraced = true;
  bool traced = false;
  double warmup_limit_s = 1.5;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics e2e;         // untraced end-to-end metrics
  Metrics e2e_traced;  // the same, measured while tracing (traced runs)
  Metrics layer;       // per-layer metrics (traced runs)
  std::vector<std::string> diag;    // "key value" diagnostic lines
  std::vector<std::string> errors;  // failed output checks
};

// A per-layer metric and the end-to-end metric and workload it should move.
struct LayerMetricDef {
  const char* name;
  const char* moves;
};

bool is_workload(const std::string& name);
const std::vector<LayerMetricDef>& layer_metric_defs();

Result run_workload(const Config& cfg);

// One set-up of `workload` (its runtime and the inputs it builds through
// the library), timed in seconds; negative when its teardown check failed.
// Called from a fresh process, it is the set-up a user pays.
double setup_probe(const std::string& workload, std::uint64_t seed);

// CPU nanoseconds per TaskGroup::spawn on spawn_fib, for the trace-ON vs
// trace-OFF comparison (obs.hook_ns_per_spawn).
double spawn_cost_probe(std::uint64_t seed, double seconds);

// Benchmark-timed push_bottom + pop_bottom pairs on the scheduler's default
// deque type, median ns per pair.
double deque_owner_push_pop_ns();

}  // namespace perfbench
