// Tests of the benchmark's own code: the decorators forward everything they
// wrap, tracing leaves the counters bit-identical, and the percentile helper
// refuses percentiles its sample cannot support.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "decorators.hpp"
#include "net/wire.hpp"
#include "protocols/registry.hpp"
#include "stats.hpp"
#include "streams/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using topkmon::QueryKind;
using topkmon::SimContext;
namespace net = topkmon::net;

/// A protocol that records which hook ran and answers every capability with
/// a distinct value, so a decorator that drops or cross-wires a call shows.
class FakeProtocol final : public topkmon::MonitoringProtocol,
                           public topkmon::QueryCapabilities {
 public:
  std::vector<std::string> calls;

  void start(SimContext&) override { calls.push_back("start"); }
  void on_step(SimContext&) override { calls.push_back("on_step"); }
  void on_membership_change(SimContext&) override { calls.push_back("membership"); }
  void on_window_expiry(SimContext&) override { calls.push_back("expiry"); }
  const topkmon::OutputSet& output() const override { return output_; }
  const topkmon::QueryCapabilities* capabilities() const override { return this; }
  std::string_view name() const override { return "fake"; }

  bool supports(QueryKind kind) const override { return kind != QueryKind::kTopK; }
  std::size_t kselect_max_rank() const override { return 5; }
  topkmon::Value kselect(std::size_t j) const override { return 100 + j; }
  std::uint64_t distinct_count() const override { return 17; }
  bool alert_active() const override { return true; }
  std::uint64_t above_count() const override { return 23; }

 private:
  topkmon::OutputSet output_{2, 4, 6};
};

TEST(TracedProtocol, ForwardsEveryHookToTheSameHook) {
  auto fake = std::make_unique<FakeProtocol>();
  FakeProtocol* inner = fake.get();
  auto trace = std::make_shared<HookTrace>();
  TracedProtocol traced(std::move(fake), trace);
  SimContext ctx(topkmon::SimParams{}, 1);

  traced.start(ctx);
  traced.on_step(ctx);
  traced.on_step(ctx);
  traced.on_membership_change(ctx);
  traced.on_window_expiry(ctx);

  EXPECT_EQ(inner->calls, (std::vector<std::string>{"start", "on_step", "on_step",
                                                    "membership", "expiry"}));
  EXPECT_EQ(trace->calls[static_cast<std::size_t>(Hook::kStart)], 1u);
  EXPECT_EQ(trace->calls[static_cast<std::size_t>(Hook::kOnStep)], 2u);
  EXPECT_EQ(trace->calls[static_cast<std::size_t>(Hook::kRecovery)], 1u);
  EXPECT_EQ(trace->calls[static_cast<std::size_t>(Hook::kExpiry)], 1u);
  EXPECT_EQ(trace->call_ns.size(), 5u);
}

TEST(TracedProtocol, ForwardsOutputNameAndEveryCapabilityAccessor) {
  auto fake = std::make_unique<FakeProtocol>();
  const FakeProtocol* inner = fake.get();
  TracedProtocol traced(std::move(fake), std::make_shared<HookTrace>());

  EXPECT_EQ(traced.output(), inner->output());
  EXPECT_EQ(traced.name(), "fake");
  const topkmon::QueryCapabilities* caps = traced.capabilities();
  ASSERT_NE(caps, nullptr);
  EXPECT_FALSE(caps->supports(QueryKind::kTopK));
  EXPECT_TRUE(caps->supports(QueryKind::kKSelect));
  EXPECT_TRUE(caps->supports(QueryKind::kCountDistinct));
  EXPECT_TRUE(caps->supports(QueryKind::kThreshold));
  EXPECT_EQ(caps->kselect_max_rank(), 5u);
  EXPECT_EQ(caps->kselect(3), 103u);
  EXPECT_EQ(caps->distinct_count(), 17u);
  EXPECT_TRUE(caps->alert_active());
  EXPECT_EQ(caps->above_count(), 23u);
}

TEST(TracedProtocol, RegistryNameBuildsATracedTwin) {
  take_protocol_traces();
  auto p = topkmon::make_protocol(traced_protocol_name("kselect"));
  EXPECT_EQ(p->name(), topkmon::make_protocol("kselect")->name());
  EXPECT_NE(topkmon::capability_for(*p, QueryKind::kKSelect), nullptr);
  EXPECT_EQ(take_protocol_traces().size(), 1u);
  EXPECT_TRUE(take_protocol_traces().empty());
}

TEST(Streams, SeededStreamIgnoresTheLibraryRngAndTimedStreamForwards) {
  topkmon::StreamSpec spec;
  spec.n = 64;
  StreamTrace trace;
  SeededStream a(topkmon::make_stream(spec), 5);
  TimedStream b(std::make_unique<SeededStream>(topkmon::make_stream(spec), 5), &trace);
  topkmon::Rng r1(1), r2(2);
  topkmon::ValueVector va(spec.n), vb(spec.n);
  a.init(va, r1);
  b.init(vb, r2);
  EXPECT_EQ(va, vb);
  const topkmon::OutputSet none;
  const topkmon::AdversaryView view{{}, &none, spec.k, spec.epsilon};
  a.step(1, view, va, r1);
  b.step(1, view, vb, r2);
  EXPECT_EQ(va, vb);
  EXPECT_EQ(trace.calls, 2u);
  EXPECT_EQ(b.n(), spec.n);
  EXPECT_EQ(b.name(), a.name());
}

TEST(BenchTransport, StepClockSeesOneFinalPerStepAndTraceBooksTimedFrames) {
  constexpr std::uint32_t kHosts = 2;
  std::vector<topkmon::TimeStep> finals;
  StepClock clock(kHosts, [&](topkmon::TimeStep t, std::uint64_t begin,
                              std::uint64_t end) {
    EXPECT_LE(begin, end);
    finals.push_back(t);
  });
  std::vector<LinkTrace> traces(kHosts);
  std::vector<std::unique_ptr<net::Transport>> coord, node;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    net::TransportPair pair = net::make_loopback_pair();
    coord.push_back(
        std::make_unique<BenchTransport>(std::move(pair.a), &clock, &traces[h]));
    node.push_back(std::move(pair.b));
  }
  std::vector<std::uint8_t> buf;
  for (topkmon::TimeStep t = 0; t < 3; ++t) {
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      ASSERT_TRUE(coord[h]->send(net::encode(net::StepBeginMsg{t})));
      ASSERT_TRUE(node[h]->recv(buf));
      ASSERT_TRUE(node[h]->send(net::encode(net::StepAckMsg{t, 0})));
    }
    EXPECT_EQ(finals.size(), static_cast<std::size_t>(t));
    for (std::uint32_t h = 0; h < kHosts; ++h) ASSERT_TRUE(coord[h]->recv(buf));
    EXPECT_EQ(finals.size(), static_cast<std::size_t>(t + 1));
  }
  EXPECT_EQ(finals, (std::vector<topkmon::TimeStep>{0, 1, 2}));
  // t = 0 is set-up: only steps 1 and 2 are booked.
  const std::size_t begin_bytes = net::encode(net::StepBeginMsg{1}).size();
  const std::size_t ack_bytes = net::encode(net::StepAckMsg{1, 0}).size();
  for (const LinkTrace& tr : traces) {
    EXPECT_EQ(tr.frames_sent, 2u);
    EXPECT_EQ(tr.frames_recv, 2u);
    EXPECT_EQ(tr.bytes_sent, 2 * begin_bytes);
    EXPECT_EQ(tr.bytes_recv, 2 * ack_bytes);
  }
}

class DecoratedRun : public ::testing::TestWithParam<std::string> {};

TEST_P(DecoratedRun, GivesTheUndecoratedCountersAndValidAnswers) {
  const EpisodeSummary plain = run_episode(GetParam(), 3, 40, false);
  const EpisodeSummary traced = run_episode(GetParam(), 3, 40, true);
  EXPECT_EQ(plain.counters, traced.counters);
  EXPECT_FALSE(plain.counters.empty());
  EXPECT_EQ(plain.timed_steps, 39u);
  EXPECT_EQ(traced.timed_steps, 39u);
  EXPECT_GT(plain.check.checked, 0u);
  EXPECT_EQ(plain.check.invalid, 0u) << plain.check.first_failure;
  EXPECT_EQ(traced.check.invalid, 0u) << traced.check.first_failure;
  EXPECT_TRUE(plain.problems.empty());
  EXPECT_TRUE(traced.problems.empty());
  EXPECT_EQ(plain.hook_calls, 0u);
  EXPECT_GE(traced.hook_calls, 40u);
}

TEST_P(DecoratedRun, OtherSeedGivesOtherCounters) {
  EXPECT_NE(run_episode(GetParam(), 3, 40, false).counters,
            run_episode(GetParam(), 4, 40, false).counters);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DecoratedRun,
                         ::testing::ValuesIn(workload_names()));

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_THROW(percentile(one_to(100), 99), std::invalid_argument);
  EXPECT_THROW(percentile(one_to(999), 99), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(one_to(1000), 99), 990.0);
  EXPECT_THROW(percentile(one_to(19), 50), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(one_to(21), 50), 11.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(one_to(2000), 0), std::invalid_argument);
}

TEST(Percentile, IsOrderIndependent) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(percentile(v, 99), 990.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
