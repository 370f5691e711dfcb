// Decorators around the library's public interfaces. The benchmark times
// every layer from outside: it wraps the stream generator, the monitoring
// protocol and the transports, and reads the counters those interfaces and
// the library's StepProfiler already keep. Nothing here changes what the
// wrapped object computes; the traced run asserts its counters are
// bit-identical to the untraced run's.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "sim/protocol.hpp"
#include "sim/stream.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- streams

/// Makes the workload's inputs a function of the benchmark seed alone: the
/// wrapped generator draws from an Rng derived from `seed`, and the Rng the
/// library passes in is ignored. The library therefore receives generated
/// values, never the workload seed.
class SeededStream final : public topkmon::StreamGenerator {
 public:
  SeededStream(std::unique_ptr<topkmon::StreamGenerator> inner, std::uint64_t seed);

  std::size_t n() const override { return inner_->n(); }
  void init(topkmon::ValueVector& out, topkmon::Rng& rng) override;
  void step(topkmon::TimeStep t, const topkmon::AdversaryView& view,
            topkmon::ValueVector& out, topkmon::Rng& rng) override;
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<topkmon::StreamGenerator> clone() const override;

 private:
  std::unique_ptr<topkmon::StreamGenerator> inner_;
  std::uint64_t seed_;
  topkmon::Rng rng_;
};

/// Generator time and calls; written by the thread that steps the stream.
struct StreamTrace {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Times every init()/step() of the wrapped generator into a StreamTrace
/// the caller owns (and keeps alive for the generator's lifetime).
class TimedStream final : public topkmon::StreamGenerator {
 public:
  TimedStream(std::unique_ptr<topkmon::StreamGenerator> inner, StreamTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::size_t n() const override { return inner_->n(); }
  void init(topkmon::ValueVector& out, topkmon::Rng& rng) override;
  void step(topkmon::TimeStep t, const topkmon::AdversaryView& view,
            topkmon::ValueVector& out, topkmon::Rng& rng) override;
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<topkmon::StreamGenerator> clone() const override;

 private:
  std::unique_ptr<topkmon::StreamGenerator> inner_;
  StreamTrace* trace_;
};

// ---------------------------------------------------------------- protocols

enum class Hook : std::uint8_t { kStart = 0, kOnStep, kRecovery, kExpiry };
inline constexpr std::size_t kNumHooks = 4;

/// One protocol instance's hook calls and time. Single writer: the thread
/// that runs the protocol (an engine shard, the coordinator, the main loop).
struct HookTrace {
  std::array<std::uint64_t, kNumHooks> calls{};
  std::uint64_t ns = 0;
  std::vector<std::uint64_t> call_ns;  ///< one sample per hook call
};

/// Forwards every MonitoringProtocol hook, output(), capabilities() and
/// name() to the wrapped protocol, timing the four step hooks.
class TracedProtocol final : public topkmon::MonitoringProtocol {
 public:
  TracedProtocol(std::unique_ptr<topkmon::MonitoringProtocol> inner,
                 std::shared_ptr<HookTrace> trace)
      : inner_(std::move(inner)), trace_(std::move(trace)) {}

  void start(topkmon::SimContext& ctx) override;
  void on_step(topkmon::SimContext& ctx) override;
  void on_membership_change(topkmon::SimContext& ctx) override;
  void on_window_expiry(topkmon::SimContext& ctx) override;
  const topkmon::OutputSet& output() const override { return inner_->output(); }
  const topkmon::QueryCapabilities* capabilities() const override {
    return inner_->capabilities();
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  template <typename Fn>
  void timed(Hook hook, Fn&& fn);

  std::unique_ptr<topkmon::MonitoringProtocol> inner_;
  std::shared_ptr<HookTrace> trace_;
};

/// The registry name under which TracedProtocol wraps built-in `protocol`.
/// The engine and the coordinator build protocols by name, so the decorator
/// enters them through register_protocol; the first call registers the
/// traced twin of every built-in protocol.
std::string traced_protocol_name(const std::string& protocol);

/// The traces of every TracedProtocol built through the registry since the
/// last call, in construction order; the list is emptied.
std::vector<std::shared_ptr<HookTrace>> take_protocol_traces();

// ---------------------------------------------------------------- transports

/// Step boundaries of a lockstep networked run as the coordinator's link
/// ends see them: step t begins when StepBegin{t} goes to the first host and
/// is final when the last host's StepAck{t} arrives. The callback runs on the
/// coordinator's thread before it can issue step t+1, so work done there
/// (the correctness check) stays outside every timed interval.
class StepClock {
 public:
  using FinalFn = std::function<void(topkmon::TimeStep t, std::uint64_t begin_ns,
                                     std::uint64_t end_ns)>;

  StepClock(std::uint32_t hosts, FinalFn on_final)
      : hosts_(hosts), on_final_(std::move(on_final)) {}

  void on_send(topkmon::net::MsgType type, std::uint64_t at_ns);
  void on_recv(topkmon::net::MsgType type, std::uint64_t at_ns);

  /// The step in flight; -1 before the first StepBegin.
  topkmon::TimeStep current() const { return t_; }

 private:
  std::uint32_t hosts_;
  FinalFn on_final_;
  topkmon::TimeStep t_ = -1;
  bool open_ = false;
  std::uint32_t acks_ = 0;
  std::uint64_t begin_ns_ = 0;
};

/// Traffic and blocking time of one link end, for the timed steps (t ≥ 1)
/// only. Single writer: the thread that owns this end.
struct LinkTrace {
  std::uint64_t frames_sent = 0, frames_recv = 0;
  std::uint64_t bytes_sent = 0, bytes_recv = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t recv_wait_ns = 0;  ///< blocked in recv for an in-step frame
  std::uint64_t step_ns = 0;       ///< node end: StepBegin received → StepAck sent
};

/// Transport decorator for either end of a Link. It classifies frames with
/// parse_frame. On the coordinator's ends it feeds a StepClock; with a
/// LinkTrace it also counts frames and bytes and times send() and recv().
/// Waiting for the next StepBegin is idle time between steps, not in-step
/// waiting, and is not booked.
class BenchTransport final : public topkmon::net::Transport {
 public:
  BenchTransport(std::unique_ptr<topkmon::net::Transport> inner, StepClock* clock,
                 LinkTrace* trace)
      : inner_(std::move(inner)), clock_(clock), trace_(trace) {}

  bool send(const std::vector<std::uint8_t>& frame) override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close() override { inner_->close(); }

 private:
  bool timed_step(topkmon::net::MsgType type) const;

  std::unique_ptr<topkmon::net::Transport> inner_;
  StepClock* clock_;   ///< coordinator ends only
  LinkTrace* trace_;   ///< traced runs only
  topkmon::TimeStep t_ = -1;  ///< node ends: last StepBegin seen
  std::uint64_t step_begin_ns_ = 0;
};

}  // namespace perfbench
