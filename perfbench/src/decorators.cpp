#include "decorators.hpp"

#include <mutex>
#include <utility>

#include "protocols/registry.hpp"

namespace perfbench {

using topkmon::AdversaryView;
using topkmon::Rng;
using topkmon::SimContext;
using topkmon::StreamGenerator;
using topkmon::TimeStep;
using topkmon::ValueVector;
namespace net = topkmon::net;

// ---------------------------------------------------------------- streams

SeededStream::SeededStream(std::unique_ptr<StreamGenerator> inner, std::uint64_t seed)
    : inner_(std::move(inner)),
      seed_(seed),
      rng_(Rng::derive(seed, /*stream_id=*/0xBE4C)) {}

void SeededStream::init(ValueVector& out, Rng& /*library rng*/) {
  inner_->init(out, rng_);
}

void SeededStream::step(TimeStep t, const AdversaryView& view, ValueVector& out,
                        Rng& /*library rng*/) {
  inner_->step(t, view, out, rng_);
}

std::unique_ptr<StreamGenerator> SeededStream::clone() const {
  return std::make_unique<SeededStream>(inner_->clone(), seed_);
}

void TimedStream::init(ValueVector& out, Rng& rng) {
  const std::uint64_t start = now_ns();
  inner_->init(out, rng);
  trace_->ns += now_ns() - start;
  ++trace_->calls;
}

void TimedStream::step(TimeStep t, const AdversaryView& view, ValueVector& out,
                       Rng& rng) {
  const std::uint64_t start = now_ns();
  inner_->step(t, view, out, rng);
  trace_->ns += now_ns() - start;
  ++trace_->calls;
}

std::unique_ptr<StreamGenerator> TimedStream::clone() const {
  return std::make_unique<TimedStream>(inner_->clone(), trace_);
}

// ---------------------------------------------------------------- protocols

template <typename Fn>
void TracedProtocol::timed(Hook hook, Fn&& fn) {
  const std::uint64_t start = now_ns();
  fn();
  const std::uint64_t ns = now_ns() - start;
  ++trace_->calls[static_cast<std::size_t>(hook)];
  trace_->ns += ns;
  trace_->call_ns.push_back(ns);
}

void TracedProtocol::start(SimContext& ctx) {
  timed(Hook::kStart, [&] { inner_->start(ctx); });
}

void TracedProtocol::on_step(SimContext& ctx) {
  timed(Hook::kOnStep, [&] { inner_->on_step(ctx); });
}

void TracedProtocol::on_membership_change(SimContext& ctx) {
  timed(Hook::kRecovery, [&] { inner_->on_membership_change(ctx); });
}

void TracedProtocol::on_window_expiry(SimContext& ctx) {
  timed(Hook::kExpiry, [&] { inner_->on_window_expiry(ctx); });
}

namespace {

constexpr const char* kTracedPrefix = "perfbench.traced.";

struct TraceBook {
  std::mutex mu;
  std::vector<std::shared_ptr<HookTrace>> traces;  // guarded by mu
};

TraceBook& trace_book() {
  static TraceBook book;
  return book;
}

void register_traced_protocols() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const std::string& name : topkmon::protocol_names()) {
      topkmon::register_protocol(kTracedPrefix + name, [name] {
        auto trace = std::make_shared<HookTrace>();
        {
          TraceBook& book = trace_book();
          std::lock_guard<std::mutex> lock(book.mu);
          book.traces.push_back(trace);
        }
        return std::make_unique<TracedProtocol>(topkmon::make_protocol(name),
                                                std::move(trace));
      });
    }
  });
}

}  // namespace

std::string traced_protocol_name(const std::string& protocol) {
  register_traced_protocols();
  return kTracedPrefix + protocol;
}

std::vector<std::shared_ptr<HookTrace>> take_protocol_traces() {
  TraceBook& book = trace_book();
  std::lock_guard<std::mutex> lock(book.mu);
  return std::exchange(book.traces, {});
}

// ---------------------------------------------------------------- transports

void StepClock::on_send(net::MsgType type, std::uint64_t at_ns) {
  if (type != net::MsgType::kStepBegin || open_) return;
  open_ = true;
  acks_ = 0;
  begin_ns_ = at_ns;
  ++t_;
}

void StepClock::on_recv(net::MsgType type, std::uint64_t at_ns) {
  if (type != net::MsgType::kStepAck || !open_) return;
  if (++acks_ < hosts_) return;
  open_ = false;
  on_final_(t_, begin_ns_, at_ns);
}

namespace {

/// Frames of the per-step exchange; Hello/Config/Shutdown are set-up and
/// teardown and are not booked.
bool step_frame(net::MsgType type) {
  return type == net::MsgType::kStepBegin || type == net::MsgType::kShardValues ||
         type == net::MsgType::kFilterUpdate || type == net::MsgType::kStepAck;
}

}  // namespace

bool BenchTransport::timed_step(net::MsgType type) const {
  return step_frame(type) && (clock_ != nullptr ? clock_->current() >= 1 : t_ >= 1);
}

bool BenchTransport::send(const std::vector<std::uint8_t>& frame) {
  const net::MsgType type = net::parse_frame(frame).type;
  const std::uint64_t start = now_ns();
  if (clock_ != nullptr) clock_->on_send(type, start);
  const bool ok = inner_->send(frame);
  if (trace_ != nullptr && timed_step(type)) {
    const std::uint64_t end = now_ns();
    trace_->send_ns += end - start;
    ++trace_->frames_sent;
    trace_->bytes_sent += frame.size();
    if (type == net::MsgType::kStepAck) trace_->step_ns += end - step_begin_ns_;
  }
  return ok;
}

bool BenchTransport::recv(std::vector<std::uint8_t>& frame) {
  const std::uint64_t start = trace_ != nullptr ? now_ns() : 0;
  if (!inner_->recv(frame)) return false;
  const std::uint64_t end = now_ns();
  const net::Frame parsed = net::parse_frame(frame);
  if (parsed.type == net::MsgType::kStepBegin && clock_ == nullptr) {
    t_ = net::decode_step_begin(parsed).t;
    step_begin_ns_ = end;
  }
  if (trace_ != nullptr && timed_step(parsed.type)) {
    ++trace_->frames_recv;
    trace_->bytes_recv += frame.size();
    if (parsed.type != net::MsgType::kStepBegin) trace_->recv_wait_ns += end - start;
  }
  if (clock_ != nullptr) clock_->on_recv(parsed.type, end);
  return true;
}

}  // namespace perfbench
