#include "checks.hpp"

#include <algorithm>

#include "model/oracle.hpp"

namespace perfbench {

using topkmon::OutputSet;
using topkmon::Oracle;
using topkmon::QueryCapabilities;
using topkmon::QueryKind;
using topkmon::Value;

void CheckTally::fail(const std::string& why) {
  if (first_failure.empty()) first_failure = why;
}

void AnswerChecker::begin_step() {
  topk_.clear();
  ranks_.clear();
  distinct_.clear();
  above_.clear();
}

bool AnswerChecker::topk_valid(std::span<const Value> values, std::size_t group,
                               std::size_t k, double epsilon, const OutputSet& output) {
  for (const TopKVerdict& v : topk_) {
    if (v.group == group && v.k == k && v.epsilon == epsilon && v.output == output) {
      return v.valid;
    }
  }
  const bool valid = Oracle::output_valid(values, k, epsilon, output);
  topk_.push_back({group, k, epsilon, output, valid});
  return valid;
}

bool AnswerChecker::kselect_valid(std::span<const Value> values, std::size_t group,
                                  std::size_t j, double epsilon, Value answer) {
  for (const RankVerdict& v : ranks_) {
    if (v.group == group && v.j == j && v.epsilon == epsilon && v.answer == answer) {
      return v.valid;
    }
  }
  const bool valid = Oracle::kselect_valid(values, j, epsilon, answer);
  ranks_.push_back({group, j, epsilon, answer, valid});
  return valid;
}

void AnswerChecker::check(const topkmon::MonitoringProtocol& protocol,
                          std::span<const Value> values, std::size_t group,
                          std::size_t k, double epsilon, Value threshold,
                          CheckTally& tally) {
  ++tally.checked;
  std::string why;
  if (topkmon::serves_topk(protocol) &&
      !topk_valid(values, group, k, epsilon, protocol.output())) {
    why = "top-k output invalid";
  }
  const QueryCapabilities* caps = protocol.capabilities();
  if (caps != nullptr && caps->supports(QueryKind::kKSelect)) {
    const std::size_t jmax = std::min(caps->kselect_max_rank(), k);
    for (std::size_t j = 1; j <= jmax && why.empty(); ++j) {
      if (!kselect_valid(values, group, j, epsilon, caps->kselect(j))) {
        why = "k-select estimate invalid at rank " + std::to_string(j);
      }
    }
  }
  if (caps != nullptr && caps->supports(QueryKind::kCountDistinct)) {
    auto it = std::find_if(distinct_.begin(), distinct_.end(), [&](const CountTruth& c) {
      return c.group == group && c.param == epsilon;
    });
    if (it == distinct_.end()) {
      distinct_.push_back({group, epsilon, Oracle::distinct_count(values, epsilon)});
      it = distinct_.end() - 1;
    }
    if (caps->distinct_count() != it->count) why = "distinct count wrong";
  }
  if (caps != nullptr && caps->supports(QueryKind::kThreshold)) {
    const auto bound = static_cast<double>(threshold);
    auto it = std::find_if(above_.begin(), above_.end(), [&](const CountTruth& c) {
      return c.group == group && c.param == bound;
    });
    if (it == above_.end()) {
      above_.push_back({group, bound, Oracle::count_above(values, threshold)});
      it = above_.end() - 1;
    }
    if (caps->above_count() != it->count || caps->alert_active() != (it->count > 0)) {
      why = "threshold answer wrong";
    }
  }
  if (!why.empty()) {
    ++tally.invalid;
    tally.fail(std::string(protocol.name()) + ": " + why);
  }
}

}  // namespace perfbench
