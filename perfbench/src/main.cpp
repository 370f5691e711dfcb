// perfbench — the repository benchmark's executable.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Prints a human-readable table, then, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 1 when any answer was wrong or any determinism check
// failed, or the run itself failed; 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (opts.workload.empty()) return usage("--workload is required");
  const std::vector<std::string> names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    return usage(("unknown workload " + opts.workload).c_str());
  }

  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  for (const perfbench::Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      rep.correct = false;
      rep.problems.push_back("metric " + m.name + " is not finite");
    }
  }

  std::printf("# %s seed=%llu trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  for (const perfbench::Metric& m : rep.metrics) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %16.6g %s\n", "invalid_frac",
              rep.attempted > 0
                  ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                  : 1.0,
              "frac");
  for (const std::string& p : rep.problems) std::printf("PROBLEM: %s\n", p.c_str());

  std::string json = "{\"correct\": " + std::string(rep.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    json += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            (std::isfinite(m.value) ? json_number(m.value) : "null") +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.correct ? 0 : 1;
}
