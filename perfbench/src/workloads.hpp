// The benchmark's three workloads, one per run mode, each a closed loop: one
// client loop issues step t+1 only after every answer for step t is final.
//
//   sim_zipf4k      standalone Simulator — protocol-heavy
//   engine_mixed64  MonitoringEngine, 64 mixed queries on 4 threads — shard
//                   dispatch, barrier, shared probe, faults, window snapshot
//   net_walk16k     NetCoordinator + 2 NodeHost threads over loopback
//                   transports — wire, handoff, full-fleet host generation
//
// A run repeats identical episodes (set-up, then a fixed number of steps)
// until its time is spent. End-to-end metrics come from untraced episodes;
// with tracing on, traced episodes alternate with untraced ones and give the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"

namespace perfbench {

/// The seed every number in README.md was measured with, and the one held
/// out for confirming a claimed gain on inputs it was not tuned on.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< checked (query-)steps
  std::uint64_t failed = 0;     ///< of those, steps with a wrong answer
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
};

std::vector<std::string> workload_names();

/// Runs `opts.workload` for about `opts.seconds` and reports the end-to-end
/// metrics (trace off) or the per-layer metrics (trace on). Throws
/// std::invalid_argument for an unknown workload.
Report run_workload(const Options& opts);

/// Deterministic counters of one episode, by name: messages, rounds,
/// probes, faults, frames. Equal seeds must give equal counters, traced or
/// not.
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// One episode's outcome, exposed for the benchmark's own tests.
struct EpisodeSummary {
  Counters counters;
  CheckTally check;
  std::uint64_t timed_steps = 0;
  std::uint64_t hook_calls = 0;  ///< traced episodes: protocol hook calls seen
  std::vector<std::string> problems;
};

/// Runs one episode of `workload` with `steps` steps (t = 0 included).
EpisodeSummary run_episode(const std::string& workload, std::uint64_t seed,
                           std::int64_t steps, bool traced);

}  // namespace perfbench
