#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "decorators.hpp"
#include "engine/engine.hpp"
#include "faults/registry.hpp"
#include "net/coordinator.hpp"
#include "net/link.hpp"
#include "net/node_host.hpp"
#include "protocols/registry.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "streams/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using topkmon::EngineConfig;
using topkmon::EngineStats;
using topkmon::kNumMessageTags;
using topkmon::MonitoringEngine;
using topkmon::QueryKind;
using topkmon::QuerySpec;
using topkmon::RunResult;
using topkmon::SimConfig;
using topkmon::Simulator;
using topkmon::StatsSnapshot;
using topkmon::StreamGenerator;
using topkmon::StreamSpec;
using topkmon::TimeStep;
using topkmon::Value;
using topkmon::ValueVector;
using topkmon::telemetry::kNumPhases;
using topkmon::telemetry::Phase;
namespace net = topkmon::net;

/// Protocol-side randomness is fixed; only the inputs vary with the seed.
constexpr std::uint64_t kProtocolSeed = 1;

// ---------------------------------------------------------------- workloads
//
// Why these three: each stresses a different layer and the other two
// bypass it (README.md has the map from per-layer to end-to-end metrics).

/// sim_zipf4k: the paper's load-balancer stream; bursts keep the combined
/// protocol busy (~53 messages per step), so the protocol layer dominates and
/// the engine and net layers are absent. n = 4096 rather than 16384: on a
/// shared host the 16k fleet's run-to-run spread came close to the metric
/// bounds, while 4096 nodes still show the O(n)-per-violation protocol cost.
constexpr std::size_t kSimN = 4096;
constexpr std::size_t kSimK = 8;
constexpr double kSimEps = 0.1;
constexpr std::int64_t kSimSteps = 300;
constexpr std::size_t kSimEpisodes = 8;

/// engine_mixed64: 64 cheap queries of all four kinds and two window lengths
/// on one small fleet with background faults, so per-step engine overhead
/// (shard dispatch and barrier, the shared-probe lock, fault injection, the
/// per-window snapshot) is the work.
constexpr std::size_t kEngineN = 1024;
constexpr Value kEngineWalkStep = 16;
constexpr std::size_t kEngineQueries = 64;
constexpr std::size_t kEngineThreads = 4;
constexpr std::size_t kEngineWindow = 64;
constexpr std::int64_t kEngineSteps = 500;
constexpr std::size_t kEngineEpisodes = 4;

/// net_walk16k: a quiet random walk (~3 model messages per step) on a large
/// fleet split over two node-hosts, so the wire, the loopback handoff and the
/// hosts' full-fleet generation dominate rather than the protocol.
constexpr std::size_t kNetN = 16384;
constexpr std::size_t kNetK = 8;
constexpr double kNetEps = 0.1;
constexpr Value kNetWalkStep = 64;
constexpr std::uint32_t kNetHosts = 2;
constexpr std::int64_t kNetSteps = 400;
constexpr std::size_t kNetEpisodes = 4;

enum class Mode { kSim, kEngine, kNet };

struct Workload {
  const char* name;
  Mode mode;
  std::int64_t steps;     ///< per episode, t = 0 included
  std::size_t episodes;   ///< per pass, each on its own input
};

constexpr std::array<Workload, 3> kWorkloads{{
    {"sim_zipf4k", Mode::kSim, kSimSteps, kSimEpisodes},
    {"engine_mixed64", Mode::kEngine, kEngineSteps, kEngineEpisodes},
    {"net_walk16k", Mode::kNet, kNetSteps, kNetEpisodes},
}};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<QuerySpec> engine_queries() {
  auto spec = [](QueryKind kind, std::size_t k, double eps, std::size_t window) {
    QuerySpec s;
    s.kind = kind;
    s.k = k;
    s.epsilon = eps;
    s.window = window;
    return s;
  };
  QuerySpec threshold = spec(QueryKind::kThreshold, 3, 0.1, 0);
  threshold.threshold = 1000000;
  const std::vector<QuerySpec> cycle = {
      spec(QueryKind::kTopK, 8, 0.1, 0),
      spec(QueryKind::kTopK, 16, 0.1, 0),
      spec(QueryKind::kTopK, 4, 0.05, kEngineWindow),
      spec(QueryKind::kTopK, 8, 0.1, kEngineWindow),
      spec(QueryKind::kKSelect, 8, 0.1, 0),
      spec(QueryKind::kKSelect, 4, 0.1, kEngineWindow),
      spec(QueryKind::kCountDistinct, 3, 0.2, 0),
      threshold,
  };
  std::vector<QuerySpec> out;
  for (std::size_t q = 0; q < kEngineQueries; ++q) out.push_back(cycle[q % cycle.size()]);
  return out;
}

std::string protocol_name(const std::string& protocol, bool traced) {
  return traced ? traced_protocol_name(protocol) : protocol;
}

// ---------------------------------------------------------------- counters

/// Counter deltas over an episode's timed steps.
struct Tally {
  std::uint64_t msgs = 0, rounds = 0, stale = 0, recovery = 0;
  std::array<std::uint64_t, kNumMessageTags> by_tag{};
  std::uint64_t probe_calls = 0, probe_ranks = 0, probe_msgs = 0, query_msgs = 0;
  std::uint64_t order_repairs = 0, order_rebuilds = 0;

  Tally& operator+=(const Tally& o) {
    msgs += o.msgs;
    rounds += o.rounds;
    stale += o.stale;
    recovery += o.recovery;
    for (std::size_t i = 0; i < kNumMessageTags; ++i) by_tag[i] += o.by_tag[i];
    probe_calls += o.probe_calls;
    probe_ranks += o.probe_ranks;
    probe_msgs += o.probe_msgs;
    query_msgs += o.query_msgs;
    order_repairs += o.order_repairs;
    order_rebuilds += o.order_rebuilds;
    return *this;
  }
  Tally operator-(const Tally& o) const {
    Tally d = *this;
    d.msgs -= o.msgs;
    d.rounds -= o.rounds;
    d.stale -= o.stale;
    d.recovery -= o.recovery;
    for (std::size_t i = 0; i < kNumMessageTags; ++i) d.by_tag[i] -= o.by_tag[i];
    d.probe_calls -= o.probe_calls;
    d.probe_ranks -= o.probe_ranks;
    d.probe_msgs -= o.probe_msgs;
    d.query_msgs -= o.query_msgs;
    d.order_repairs -= o.order_repairs;
    d.order_rebuilds -= o.order_rebuilds;
    return d;
  }
};

Tally tally_of(const StatsSnapshot& s) {
  Tally t;
  t.msgs = s.messages;
  t.rounds = s.rounds;
  t.stale = s.stale_reads;
  t.recovery = s.recovery_rounds;
  t.by_tag = s.by_tag;
  return t;
}

Tally sim_tally(const Simulator& sim) {
  Tally t = tally_of(StatsSnapshot::from(sim.context().stats()));
  if (const topkmon::TopKOrder* order = sim.fleet().order_if_ready()) {
    t.order_repairs = order->repairs();
    t.order_rebuilds = order->rebuilds();
  }
  return t;
}

Tally engine_tally(const EngineStats& s) {
  Tally t = tally_of(s.totals());
  t.probe_calls = s.probe_calls;
  t.probe_ranks = s.probe_ranks_computed;
  t.probe_msgs = s.shared_probe_messages;
  t.query_msgs = s.query_messages;
  return t;
}

/// The model counters every mode shares. Link byte counts are left out on
/// purpose: the Config frame carries the protocol's registry name, which
/// differs between the traced and the untraced protocol.
Counters snapshot_counters(const StatsSnapshot& s) {
  Counters c = {{"messages", s.messages},
                {"node_to_server", s.node_to_server},
                {"server_to_node", s.server_to_node},
                {"broadcasts", s.broadcasts},
                {"rounds", s.rounds},
                {"messages_lost", s.messages_lost},
                {"stale_reads", s.stale_reads},
                {"recovery_rounds", s.recovery_rounds},
                {"window_expirations", s.window_expirations}};
  for (std::size_t i = 0; i < kNumMessageTags; ++i) {
    c.emplace_back("tag." + topkmon::to_string(static_cast<topkmon::MessageTag>(i)),
                   s.by_tag[i]);
  }
  return c;
}

// ---------------------------------------------------------------- layers

/// Per-layer totals over the timed steps of traced episodes.
struct LayerTotals {
  std::uint64_t episodes = 0, steps = 0;
  double step_ns = 0.0;
  std::uint64_t gen_ns = 0;
  std::array<std::uint64_t, kNumPhases> phase_ns{}, phase_calls{};
  std::uint64_t hook_ns = 0;
  std::array<std::uint64_t, kNumHooks> hook_calls{};  ///< whole episodes, t = 0 included
  std::vector<double> hook_us;
  std::uint64_t max_rounds = 0;  ///< most rounds in one (query-)step
  Tally timed;
  LinkTrace coord, node;  ///< summed over links
  std::uint64_t send_retries = 0, quiescence_errors = 0;

  LayerTotals& operator+=(const LayerTotals& o);
};

void add_link(LinkTrace& into, const LinkTrace& l) {
  into.frames_sent += l.frames_sent;
  into.frames_recv += l.frames_recv;
  into.bytes_sent += l.bytes_sent;
  into.bytes_recv += l.bytes_recv;
  into.send_ns += l.send_ns;
  into.recv_wait_ns += l.recv_wait_ns;
  into.step_ns += l.step_ns;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  episodes += o.episodes;
  steps += o.steps;
  step_ns += o.step_ns;
  gen_ns += o.gen_ns;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    phase_ns[p] += o.phase_ns[p];
    phase_calls[p] += o.phase_calls[p];
  }
  hook_ns += o.hook_ns;
  for (std::size_t i = 0; i < kNumHooks; ++i) hook_calls[i] += o.hook_calls[i];
  hook_us.insert(hook_us.end(), o.hook_us.begin(), o.hook_us.end());
  max_rounds = std::max(max_rounds, o.max_rounds);
  timed += o.timed;
  add_link(coord, o.coord);
  add_link(node, o.node);
  send_retries += o.send_retries;
  quiescence_errors += o.quiescence_errors;
  return *this;
}

/// The trace instruments of one traced episode: the telemetry sink whose
/// StepProfiler the library fills, the stream trace, and the hook traces of
/// the protocols the episode built.
struct TraceParts {
  topkmon::telemetry::TelemetrySink sink;
  StreamTrace stream;
  std::vector<std::shared_ptr<HookTrace>> hooks;

  /// Drops what set-up (construction and t = 0) recorded; hook call counts
  /// are kept, so the t = 0 start() calls stay visible.
  void reset_after_setup() {
    sink.reset();
    stream = {};
    for (auto& h : hooks) {
      h->ns = 0;
      h->call_ns.clear();
    }
  }

  void fold_into(LayerTotals& lt) const {
    const topkmon::telemetry::StepProfiler merged = sink.merged_profiler();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      lt.phase_ns[p] += merged.total_ns(static_cast<Phase>(p));
      lt.phase_calls[p] += merged.calls(static_cast<Phase>(p));
    }
    lt.gen_ns += stream.ns;
    for (const auto& h : hooks) {
      lt.hook_ns += h->ns;
      for (std::size_t i = 0; i < kNumHooks; ++i) lt.hook_calls[i] += h->calls[i];
      for (const std::uint64_t ns : h->call_ns) {
        lt.hook_us.push_back(static_cast<double>(ns) / 1e3);
      }
    }
  }
};

// ---------------------------------------------------------------- episodes

struct Episode {
  double setup_s = 0.0;
  std::vector<double> step_us;  ///< timed steps, t ≥ 1
  Counters counters;
  CheckTally check;
  Tally timed;
  std::vector<std::string> problems;
  LayerTotals layers;  ///< traced episodes only
};

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

void copy_values(const topkmon::SimContext& ctx, ValueVector& out) {
  const auto nodes = ctx.nodes();
  out.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) out[i] = nodes[i].value();
}

void finish_layers(Episode& ep, std::optional<TraceParts>& tr) {
  if (!tr) return;
  LayerTotals& lt = ep.layers;
  lt.episodes = 1;
  lt.steps = ep.step_us.size();
  for (const double us : ep.step_us) lt.step_ns += us * 1e3;
  lt.timed = ep.timed;
  tr->fold_into(lt);
}

/// Pins the calling thread to one of the CPUs it may run on, for a scope,
/// and restores the previous mask on exit. On a shared host the cores run at
/// different speeds, and a single thread the scheduler leaves on one core
/// would measure that core alone; rotating `slot` over a run's episodes
/// makes the single-threaded sim sample every core alike. Best effort: the
/// episode runs unpinned when the mask cannot be read or set.
class CpuPin {
 public:
  explicit CpuPin(std::size_t slot) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    std::size_t k = slot % static_cast<std::size_t>(CPU_COUNT(&saved_));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || k-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

Episode sim_episode(std::uint64_t seed, std::int64_t steps, bool traced,
                    std::size_t slot) {
  const CpuPin pin(slot);
  Episode ep;
  std::optional<TraceParts> tr;
  if (traced) tr.emplace();
  take_protocol_traces();
  const std::uint64_t t0 = now_ns();

  StreamSpec spec;
  spec.kind = "zipf_bursty";
  spec.n = kSimN;
  spec.k = kSimK;
  spec.epsilon = kSimEps;
  std::unique_ptr<StreamGenerator> gen =
      std::make_unique<SeededStream>(topkmon::make_stream(spec), seed);
  if (tr) gen = std::make_unique<TimedStream>(std::move(gen), &tr->stream);
  SimConfig cfg;
  cfg.k = kSimK;
  cfg.epsilon = kSimEps;
  cfg.seed = kProtocolSeed;
  Simulator sim(cfg, std::move(gen),
                topkmon::make_protocol(protocol_name("combined", traced)));
  if (tr) {
    sim.attach_telemetry(&tr->sink);
    tr->hooks = take_protocol_traces();
  }
  sim.step();
  ep.setup_s = seconds_since(t0);

  AnswerChecker checker;
  ValueVector values;
  auto check = [&] {
    copy_values(sim.context(), values);
    checker.begin_step();
    checker.check(sim.protocol(), values, 0, kSimK, kSimEps, 0, ep.check);
  };
  check();
  const Tally base = sim_tally(sim);
  if (tr) tr->reset_after_setup();
  ep.step_us.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 1; t < steps; ++t) {
    const std::uint64_t start = now_ns();
    sim.step();
    ep.step_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    check();
    if (tr) {
      ep.layers.max_rounds =
          std::max(ep.layers.max_rounds, sim.context().stats().rounds_this_step());
    }
  }
  const RunResult r = sim.result();
  const Tally end = sim_tally(sim);
  ep.timed = end - base;
  ep.counters = snapshot_counters(r);
  ep.counters.emplace_back("max_rounds_per_step", r.max_rounds_per_step);
  ep.counters.emplace_back("order_repairs", end.order_repairs);
  ep.counters.emplace_back("order_rebuilds", end.order_rebuilds);
  finish_layers(ep, tr);
  return ep;
}

Episode engine_episode(std::uint64_t seed, std::int64_t steps, bool traced,
                       std::size_t threads) {
  Episode ep;
  std::optional<TraceParts> tr;
  if (traced) tr.emplace();
  take_protocol_traces();
  const std::uint64_t t0 = now_ns();

  StreamSpec spec;
  spec.kind = "random_walk";
  spec.n = kEngineN;
  spec.walk_step = kEngineWalkStep;
  std::unique_ptr<StreamGenerator> gen =
      std::make_unique<SeededStream>(topkmon::make_stream(spec), seed);
  if (tr) gen = std::make_unique<TimedStream>(std::move(gen), &tr->stream);
  topkmon::FaultConfig faults = topkmon::fault_preset("datacenter");
  faults.seed = topkmon::splitmix_combine(seed, 0xFA17);  // the fault trace is input too
  faults.horizon = steps;
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.seed = kProtocolSeed;
  cfg.share_probes = true;
  cfg.faults = topkmon::make_fleet_schedule(faults, kEngineN);
  MonitoringEngine engine(cfg, std::move(gen));
  const std::vector<QuerySpec> queries = engine_queries();
  for (QuerySpec q : queries) {
    q.protocol = protocol_name(topkmon::default_protocol_for(q.kind), traced);
    engine.add_query(q);
  }
  if (tr) {
    engine.attach_telemetry(&tr->sink);
    tr->hooks = take_protocol_traces();
  }
  engine.step();
  ep.setup_s = seconds_since(t0);

  // Queries of one window length monitor the same vector; their answers are
  // checked against it once per distinct answer (AnswerChecker).
  AnswerChecker checker;
  std::array<ValueVector, 2> group_values;
  ValueVector values;
  auto check = [&] {
    checker.begin_step();
    for (auto& g : group_values) g.clear();
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const Simulator& sim = engine.query_sim(static_cast<topkmon::QueryHandle>(q));
      copy_values(sim.context(), values);
      std::size_t group = queries[q].window == 0 ? 0 : 1;
      if (group_values[group].empty()) group_values[group] = values;
      if (group_values[group] != values) group = 2 + q;  // its own vector
      checker.check(sim.protocol(), values, group, queries[q].k, queries[q].epsilon,
                    queries[q].threshold, ep.check);
      if (tr) {
        ep.layers.max_rounds =
            std::max(ep.layers.max_rounds, sim.context().stats().rounds_this_step());
      }
    }
  };
  check();
  const Tally base = engine_tally(engine.stats());
  if (tr) tr->reset_after_setup();
  ep.step_us.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 1; t < steps; ++t) {
    const std::uint64_t start = now_ns();
    engine.step();
    ep.step_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    check();
  }
  const EngineStats st = engine.stats();
  ep.timed = engine_tally(st) - base;
  ep.counters = snapshot_counters(st.totals());
  ep.counters.emplace_back("query_messages", st.query_messages);
  ep.counters.emplace_back("shared_probe_messages", st.shared_probe_messages);
  ep.counters.emplace_back("probe_calls", st.probe_calls);
  ep.counters.emplace_back("probe_ranks_computed", st.probe_ranks_computed);
  for (const topkmon::QueryStats& q : st.queries) {
    ep.counters.emplace_back("query" + std::to_string(q.handle) + ".messages",
                             q.run.messages);
  }
  finish_layers(ep, tr);
  return ep;
}

Episode net_episode(std::uint64_t seed, std::int64_t steps, bool traced) {
  Episode ep;
  std::optional<TraceParts> tr;
  if (traced) tr.emplace();
  take_protocol_traces();
  std::array<LinkTrace, kNetHosts> coord_trace{}, node_trace{};
  const std::uint64_t t0 = now_ns();

  net::RunSpec spec;
  spec.stream.kind = "random_walk";
  spec.stream.n = kNetN;
  spec.stream.k = kNetK;
  spec.stream.epsilon = kNetEps;
  spec.stream.walk_step = kNetWalkStep;
  spec.protocol = protocol_name("combined", traced);
  spec.protocol_epsilon = kNetEps;
  // Node-hosts generate their inputs themselves from the spec, so here the
  // workload seed has to reach the library.
  spec.seed = seed;
  spec.steps = steps;

  net::NetCoordinator* coordinator = nullptr;
  AnswerChecker checker;
  ValueVector values;
  Tally base;
  StepClock clock(kNetHosts, [&](TimeStep t, std::uint64_t begin, std::uint64_t end) {
    const Simulator& sim = coordinator->sim();
    if (t == 0) {
      ep.setup_s = static_cast<double>(end - t0) / 1e9;
    } else {
      ep.step_us.push_back(static_cast<double>(end - begin) / 1e3);
    }
    copy_values(sim.context(), values);
    checker.begin_step();
    checker.check(sim.protocol(), values, 0, kNetK, kNetEps, 0, ep.check);
    if (t == 0) {
      base = sim_tally(sim);
      if (tr) tr->reset_after_setup();
    } else if (tr) {
      ep.layers.max_rounds =
          std::max(ep.layers.max_rounds, sim.context().stats().rounds_this_step());
    }
  });

  std::vector<std::unique_ptr<net::Link>> coord_links;
  std::vector<std::unique_ptr<net::Link>> node_links;
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    net::TransportPair pair = net::make_loopback_pair();
    coord_links.push_back(std::make_unique<net::Link>(std::make_unique<BenchTransport>(
        std::move(pair.a), &clock, tr ? &coord_trace[h] : nullptr)));
    std::unique_ptr<net::Transport> node_end = std::move(pair.b);
    if (tr) {
      node_end = std::make_unique<BenchTransport>(std::move(node_end), nullptr,
                                                  &node_trace[h]);
    }
    node_links.push_back(std::make_unique<net::Link>(std::move(node_end)));
  }
  net::NetCoordinator coord(spec, std::move(coord_links));
  coordinator = &coord;
  if (tr) {
    coord.attach_telemetry(&tr->sink);
    tr->hooks = take_protocol_traces();
  }
  std::vector<std::unique_ptr<net::NodeHost>> hosts;
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    hosts.push_back(
        std::make_unique<net::NodeHost>(std::move(node_links[h]), h, kNetHosts));
  }
  std::array<int, kNetHosts> exits{};
  std::vector<std::thread> threads;
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    threads.emplace_back([&exits, &hosts, h] { exits[h] = hosts[h]->run(); });
  }
  RunResult r;
  try {
    r = coord.run();
  } catch (const std::exception& e) {
    ep.problems.push_back(std::string("coordinator failed: ") + e.what());
  }
  for (std::thread& th : threads) th.join();

  std::uint64_t quiescence = coord.quiescence_errors();
  for (std::uint32_t h = 0; h < kNetHosts; ++h) {
    quiescence += hosts[h]->quiescence_errors();
    if (exits[h] != 0) {
      ep.problems.push_back("node-host " + std::to_string(h) +
                            " failed: " + hosts[h]->error());
    }
  }
  if (quiescence != 0) {
    ep.problems.push_back(std::to_string(quiescence) + " quiescence errors");
  }
  const Tally end = sim_tally(coord.sim());
  ep.timed = end - base;
  ep.counters = snapshot_counters(r);
  ep.counters.emplace_back("max_rounds_per_step", r.max_rounds_per_step);
  ep.counters.emplace_back("frames_sent", r.net.frames_sent);
  ep.counters.emplace_back("frames_recv", r.net.frames_recv);
  ep.counters.emplace_back("send_retries", r.net.send_retries);
  ep.counters.emplace_back("order_repairs", end.order_repairs);
  ep.counters.emplace_back("order_rebuilds", end.order_rebuilds);
  ep.counters.emplace_back("quiescence_errors", quiescence);
  finish_layers(ep, tr);
  if (tr) {
    for (std::uint32_t h = 0; h < kNetHosts; ++h) {
      add_link(ep.layers.coord, coord_trace[h]);
      add_link(ep.layers.node, node_trace[h]);
    }
    ep.layers.send_retries = r.net.send_retries;
    ep.layers.quiescence_errors = quiescence;
  }
  return ep;
}

/// `slot` picks the CPU a sim episode is pinned to (CpuPin); the engine and
/// net episodes run their threads wherever the scheduler puts them.
Episode run_one(const Workload& w, std::uint64_t seed, std::int64_t steps, bool traced,
                std::size_t slot, std::size_t engine_threads = kEngineThreads) {
  switch (w.mode) {
    case Mode::kSim: return sim_episode(seed, steps, traced, slot);
    case Mode::kEngine: return engine_episode(seed, steps, traced, engine_threads);
    case Mode::kNet: return net_episode(seed, steps, traced);
  }
  throw std::logic_error("unreachable");
}

// ---------------------------------------------------------------- reporting

/// One pass over a run's input set: every episode of the workload, each on
/// its own seed derived from the run's seed.
using Pass = std::vector<Episode>;

std::uint64_t episode_seed(std::uint64_t run_seed, std::size_t episode) {
  return topkmon::splitmix_combine(run_seed, episode);
}

Pass run_pass(const Workload& w, std::uint64_t seed, std::size_t pass_index) {
  Pass pass;
  for (std::size_t i = 0; i < w.episodes; ++i) {
    pass.push_back(run_one(w, episode_seed(seed, i), w.steps, false, pass_index + i));
  }
  return pass;
}

/// Timed steps per second of step time over one pass (diagnostics).
double steps_per_s(const Pass& pass) {
  double us = 0.0;
  std::size_t steps = 0;
  for (const Episode& ep : pass) {
    for (const double x : ep.step_us) us += x;
    steps += ep.step_us.size();
  }
  return static_cast<double>(steps) / (us / 1e6);
}

/// Every timed step of the input set, with its latency taken as the median
/// over the passes. The passes repeat identical inputs, so this keeps what
/// each step's input costs and drops machine noise that does not recur at
/// the same step.
std::vector<double> median_step_us(const std::vector<Pass>& passes) {
  std::vector<double> out;
  std::vector<double> samples(passes.size());
  for (std::size_t i = 0; i < passes.front().size(); ++i) {
    for (std::size_t t = 0; t < passes.front()[i].step_us.size(); ++t) {
      for (std::size_t p = 0; p < passes.size(); ++p) {
        samples[p] = passes[p][i].step_us[t];
      }
      out.push_back(median(samples));
    }
  }
  return out;
}

double steps_per_s(const std::vector<double>& step_us) {
  double us = 0.0;
  for (const double x : step_us) us += x;
  return static_cast<double>(step_us.size()) / (us / 1e6);
}

/// Peak resident memory of this program image: VmHWM, which exec resets.
/// (getrusage's ru_maxrss is not reset by exec, so under a launcher it would
/// report the launcher's footprint when that is larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Folds an episode's checks into the report: wrong answers, failed hosts,
/// and counters that differ from the reference episode's.
void account_episode(Report& rep, const Episode& ep, const Counters& reference,
                     const std::string& what) {
  rep.attempted += ep.check.checked;
  rep.failed += ep.check.invalid;
  if (ep.check.invalid != 0) rep.problems.push_back(what + ": " + ep.check.first_failure);
  for (const std::string& p : ep.problems) rep.problems.push_back(what + ": " + p);
  if (ep.counters != reference) {
    for (std::size_t i = 0; i < ep.counters.size() && i < reference.size(); ++i) {
      if (ep.counters[i] != reference[i]) {
        rep.problems.push_back(what + ": counter " + ep.counters[i].first + " = " +
                               std::to_string(ep.counters[i].second) + ", reference " +
                               std::to_string(reference[i].second));
        break;
      }
    }
    if (ep.counters.size() != reference.size()) {
      rep.problems.push_back(what + ": counter set differs from the reference");
    }
  }
}

/// Accounts every episode of `pass` against the same episode of `reference`.
void account(Report& rep, const Pass& pass, const Pass& reference,
             const std::string& what) {
  for (std::size_t i = 0; i < pass.size(); ++i) {
    account_episode(rep, pass[i], reference[i].counters, what + " " + std::to_string(i));
  }
}

constexpr std::size_t kMinPasses = 3;
/// Hard stop well inside the 180 s a run may take, whatever --seconds says.
constexpr double kMaxRunSeconds = 120.0;

Report end_to_end(const Workload& w, const Options& opts) {
  Report rep;
  std::vector<Pass> passes;
  const std::uint64_t start = now_ns();
  while (passes.size() < kMinPasses || seconds_since(start) < opts.seconds) {
    passes.push_back(run_pass(w, opts.seed, passes.size()));
    if (seconds_since(start) > kMaxRunSeconds) break;
  }
  std::vector<double> setups;
  std::fprintf(stderr, "%s: %zu passes in %.1f s; steps/s by pass:", w.name,
               passes.size(), seconds_since(start));
  for (const Pass& pass : passes) {
    account(rep, pass, passes.front(), "episode");
    for (const Episode& ep : pass) setups.push_back(ep.setup_s);
    std::fprintf(stderr, " %.1f", steps_per_s(pass));
  }
  std::fprintf(stderr, "\n");
  const std::vector<double> step_us = median_step_us(passes);
  // The paper's cost, as RunResult::messages_per_step reports it: every
  // model message of an episode, the t = 0 start round included, per step.
  // The traced run splits the timed steps' share by message tag.
  std::uint64_t msgs = 0;
  for (const Episode& ep : passes.front()) msgs += ep.counters.front().second;
  const double steps = static_cast<double>(w.steps) * static_cast<double>(w.episodes);
  const double msgs_per_step = static_cast<double>(msgs) / steps;
  const double checked = static_cast<double>(rep.attempted);
  rep.metrics = {
      {"steps_per_s", steps_per_s(step_us), "steps/s"},
      {"step_p50_us", percentile(step_us, 50), "us"},
      {"step_p99_us", percentile(step_us, 99), "us"},
      {"msgs_per_step", msgs_per_step, "msgs/step"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"valid_frac", 1.0 - static_cast<double>(rep.failed) / checked, "frac"},
  };
  return rep;
}

Report per_layer(const Workload& w, const Options& opts) {
  Report rep;
  const bool engine = w.mode == Mode::kEngine;
  std::vector<Pass> plain, traced, serial;
  const std::uint64_t start = now_ns();
  // Traced and untraced episodes alternate, so drift on a shared machine
  // hits both sides of telemetry.overhead_frac alike.
  while (traced.empty() || seconds_since(start) < opts.seconds) {
    Pass p, t, s;
    for (std::size_t i = 0; i < w.episodes; ++i) {
      const std::uint64_t seed = episode_seed(opts.seed, i);
      const std::size_t slot = traced.size() + i;
      p.push_back(run_one(w, seed, w.steps, false, slot));
      t.push_back(run_one(w, seed, w.steps, true, slot));
      if (engine) s.push_back(run_one(w, seed, w.steps, false, slot, 1));
    }
    plain.push_back(std::move(p));
    traced.push_back(std::move(t));
    if (engine) serial.push_back(std::move(s));
    if (seconds_since(start) > kMaxRunSeconds) break;
  }
  std::fprintf(stderr, "%s: %zu traced passes, %.1f s\n", w.name, traced.size(),
               seconds_since(start));
  LayerTotals lt;
  for (const Pass& pass : plain) account(rep, pass, plain.front(), "untraced episode");
  for (const Pass& pass : serial) account(rep, pass, plain.front(), "1-thread episode");
  for (const Pass& pass : traced) account(rep, pass, plain.front(), "traced episode");
  for (const Pass& pass : traced) {
    for (const Episode& ep : pass) lt += ep.layers;
  }

  const double steps = static_cast<double>(lt.steps);
  const double episodes = static_cast<double>(lt.episodes);
  auto per_step_us = [&](double ns) { return ns / 1e3 / steps; };
  auto phase_us = [&](Phase p) {
    return per_step_us(static_cast<double>(lt.phase_ns[static_cast<std::size_t>(p)]));
  };
  auto per_step = [&](std::uint64_t count) { return static_cast<double>(count) / steps; };
  auto phase_calls = [&](Phase p) {
    return per_step(lt.phase_calls[static_cast<std::size_t>(p)]);
  };
  const double step_us = per_step_us(lt.step_ns);
  const double msgs_per_step = per_step(lt.timed.msgs);
  const double hook_us = per_step_us(static_cast<double>(lt.hook_ns));
  const double gen_us = per_step_us(static_cast<double>(lt.gen_ns));
  const bool networked = w.mode == Mode::kNet;
  const double queries = engine ? static_cast<double>(kEngineQueries) : 1.0;

  const double shard_busy_us = phase_us(Phase::kShardAdvance);
  const double coord_wait_us = per_step_us(static_cast<double>(lt.coord.recv_wait_ns));
  const double coord_send_us = per_step_us(static_cast<double>(lt.coord.send_ns));
  const double hosts = static_cast<double>(kNetHosts);
  // Per host; both read 0 off the net, where no node end is traced.
  const double host_wait_us =
      per_step_us(static_cast<double>(lt.node.recv_wait_ns)) / hosts;
  const double host_busy_us =
      per_step_us(static_cast<double>(lt.node.step_ns - lt.node.recv_wait_ns)) / hosts;
  const double bytes_up = per_step(lt.coord.bytes_recv);
  const double bytes_down = per_step(lt.coord.bytes_sent);

  // Self time of every layer metric on the path that blocks the step; what
  // remains is traced step time no layer covers (README.md says what it is
  // in each workload).
  const double fleet_us = phase_us(Phase::kFaultInject) + phase_us(Phase::kWindowMerge);
  const double model_us = phase_us(Phase::kOrderUpdate) + phase_us(Phase::kSigma);
  double covered = 0.0;
  switch (w.mode) {
    case Mode::kSim:
      covered = gen_us + fleet_us + phase_us(Phase::kAdvanceTime) + hook_us + model_us;
      break;
    case Mode::kEngine:
      covered = gen_us + fleet_us + phase_us(Phase::kSnapshotBegin) +
                shard_busy_us / static_cast<double>(kEngineThreads);
      break;
    case Mode::kNet:
      covered = coord_wait_us + coord_send_us + fleet_us + phase_us(Phase::kAdvanceTime) +
                hook_us + model_us;
      break;
  }

  const double plain_rate = steps_per_s(median_step_us(plain));
  const double traced_rate = steps_per_s(median_step_us(traced));
  const double speedup = engine ? plain_rate / steps_per_s(median_step_us(serial)) : 0.0;
  const double probe_calls = per_step(lt.timed.probe_calls);
  const double probe_ranks = per_step(lt.timed.probe_ranks);

  auto tag = [&](topkmon::MessageTag t) {
    return per_step(lt.timed.by_tag[static_cast<std::size_t>(t)]);
  };
  auto calls = [&](Hook h) {
    return static_cast<double>(lt.hook_calls[static_cast<std::size_t>(h)]) / episodes;
  };
  const double wire_bytes = bytes_up + bytes_down;
  const double threads = static_cast<double>(kEngineThreads);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  using topkmon::MessageTag;
  rep.metrics = {
      {"streams.gen_us", gen_us, "us"},
      {"faults.inject_us", phase_us(Phase::kFaultInject), "us"},
      {"faults.stale_per_step", per_step(lt.timed.stale), "1/step"},
      {"faults.recovery_rounds", per_step(lt.timed.recovery), "1/step"},
      {"model.order_us", phase_us(Phase::kOrderUpdate), "us"},
      {"model.sigma_us", phase_us(Phase::kSigma), "us"},
      {"model.order_repairs", per_step(lt.timed.order_repairs), "1/step"},
      {"model.order_rebuilds", per_step(lt.timed.order_rebuilds), "1/step"},
      {"sim.advance_us", phase_us(Phase::kAdvanceTime), "us"},
      {"sim.collect_us", phase_us(Phase::kViolationCollect), "us"},
      {"sim.collect_calls_per_step", phase_calls(Phase::kViolationCollect), "1/step"},
      {"sim.rounds_per_step", per_step(lt.timed.rounds), "1/step"},
      {"sim.max_rounds_per_step", static_cast<double>(lt.max_rounds), "count"},
      {"protocols.hook_us", hook_us, "us"},
      {"protocols.hook_p99_us", percentile(lt.hook_us, 99), "us"},
      {"protocols.calls.start", calls(Hook::kStart), "count/episode"},
      {"protocols.calls.on_step", calls(Hook::kOnStep), "count/episode"},
      {"protocols.calls.recovery", calls(Hook::kRecovery), "count/episode"},
      {"protocols.calls.expiry", calls(Hook::kExpiry), "count/episode"},
      {"protocols.msgs.existence", tag(MessageTag::kExistence), "msgs/step"},
      {"protocols.msgs.violation", tag(MessageTag::kViolation), "msgs/step"},
      {"protocols.msgs.probe", tag(MessageTag::kProbe), "msgs/step"},
      {"protocols.msgs.filter_broadcast", tag(MessageTag::kFilterBroadcast), "msgs/step"},
      {"protocols.msgs.filter_unicast", tag(MessageTag::kFilterUnicast), "msgs/step"},
      {"protocols.msgs.other", tag(MessageTag::kOther), "msgs/step"},
      {"protocols.us_per_msg", ratio(hook_us, msgs_per_step), "us/msg"},
      {"engine.step_us", engine ? step_us : 0.0, "us"},
      {"engine.snapshot_us", phase_us(Phase::kSnapshotBegin), "us"},
      {"engine.shard_busy_us", shard_busy_us, "us"},
      {"engine.shard_busy_frac", engine ? ratio(shard_busy_us, threads * step_us) : 0.0,
       "frac"},
      {"engine.query_hook_us", engine ? hook_us / queries : 0.0, "us"},
      {"engine.speedup_1to4", speedup, "x"},
      {"engine.probe_calls_per_step", probe_calls, "1/step"},
      {"engine.probe_ranks_per_step", probe_ranks, "1/step"},
      {"engine.probe_reuse", probe_calls > 0 ? 1.0 - probe_ranks / probe_calls : 0.0,
       "frac"},
      {"engine.probe_msgs_per_step", per_step(lt.timed.probe_msgs), "msgs/step"},
      {"engine.query_msgs_per_step", per_step(lt.timed.query_msgs), "msgs/step"},
      {"net.frames_per_step", per_step(lt.coord.frames_sent + lt.coord.frames_recv),
       "1/step"},
      {"net.bytes_up_per_step", bytes_up, "B/step"},
      {"net.bytes_down_per_step", bytes_down, "B/step"},
      {"net.wire_bytes_per_step", wire_bytes, "B/step"},
      {"net.bytes_per_msg", ratio(wire_bytes, msgs_per_step), "B/msg"},
      {"net.coord_recv_wait_us", coord_wait_us, "us"},
      {"net.coord_send_us", coord_send_us, "us"},
      {"net.coord_busy_us", networked ? step_us - coord_wait_us - coord_send_us : 0.0,
       "us"},
      {"net.coord_protocol_us", networked ? hook_us : 0.0, "us"},
      {"net.host_recv_wait_us", host_wait_us, "us"},
      {"net.host_busy_us", host_busy_us, "us"},
      {"net.send_retries", static_cast<double>(lt.send_retries), "count"},
      {"net.quiescence_errors", static_cast<double>(lt.quiescence_errors), "count"},
      {"telemetry.overhead_frac", 1.0 - traced_rate / plain_rate, "frac"},
      {"trace.unattributed_us", step_us - covered, "us"},
  };
  return rep;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

Report run_workload(const Options& opts) {
  const Workload& w = find_workload(opts.workload);
  Report rep = opts.trace ? per_layer(w, opts) : end_to_end(w, opts);
  rep.correct = rep.problems.empty() && rep.failed == 0 && rep.attempted > 0;
  return rep;
}

EpisodeSummary run_episode(const std::string& workload, std::uint64_t seed,
                           std::int64_t steps, bool traced) {
  const Episode ep = run_one(find_workload(workload), seed, steps, traced, 0);
  EpisodeSummary s;
  s.counters = ep.counters;
  s.check = ep.check;
  s.timed_steps = ep.step_us.size();
  for (const std::uint64_t c : ep.layers.hook_calls) s.hook_calls += c;
  s.problems = ep.problems;
  return s;
}

}  // namespace perfbench
