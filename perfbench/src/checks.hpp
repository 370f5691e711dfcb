// Correctness check of every (query-)step's answers against the Oracle,
// run outside the timed intervals.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/types.hpp"
#include "sim/protocol.hpp"

namespace perfbench {

struct CheckTally {
  std::uint64_t checked = 0;  ///< (query-)steps checked
  std::uint64_t invalid = 0;  ///< of those, steps with any wrong answer
  std::string first_failure;  ///< why the first invalid step failed

  void fail(const std::string& why);
};

/// Checks every query kind a protocol advertises, the way the simulator's
/// strict mode dispatches: Oracle::output_valid for top-k,
/// Oracle::kselect_valid for each rank j ≤ k, Oracle::distinct_count and
/// Oracle::count_above. Within one step, queries that monitor the same
/// vector (same `group`) and give the same answer share one Oracle call; the
/// verdict for such a query is identical by construction.
class AnswerChecker {
 public:
  /// Forgets the previous step's verdicts.
  void begin_step();

  /// Checks `protocol`'s answers on `values`, the vector it monitors, and
  /// books one checked (query-)step into `tally`.
  void check(const topkmon::MonitoringProtocol& protocol,
             std::span<const topkmon::Value> values, std::size_t group, std::size_t k,
             double epsilon, topkmon::Value threshold, CheckTally& tally);

 private:
  struct TopKVerdict {
    std::size_t group, k;
    double epsilon;
    topkmon::OutputSet output;
    bool valid;
  };
  struct RankVerdict {
    std::size_t group, j;
    double epsilon;
    topkmon::Value answer;
    bool valid;
  };
  struct CountTruth {
    std::size_t group;
    double param;  ///< ε (distinct) or the bound T (threshold)
    std::uint64_t count;
  };

  bool topk_valid(std::span<const topkmon::Value> values, std::size_t group,
                  std::size_t k, double epsilon, const topkmon::OutputSet& output);
  bool kselect_valid(std::span<const topkmon::Value> values, std::size_t group,
                     std::size_t j, double epsilon, topkmon::Value answer);

  std::vector<TopKVerdict> topk_;
  std::vector<RankVerdict> ranks_;
  std::vector<CountTruth> distinct_;
  std::vector<CountTruth> above_;
};

}  // namespace perfbench
