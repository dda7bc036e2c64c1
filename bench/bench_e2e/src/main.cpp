// perfbench: the repository benchmark.
//
//   perfbench --workload ingest|query|ring --seed N --seconds S --trace 0|1
//   perfbench --self-test [--seconds S]
//
// Prints an environment stamp, every metric by name with its unit, and as
// the last line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a correctness or validity check fails, 2 on a usage error
// and 3 on a build that must not be measured (sanitizers, non-Release).
// README.md in this directory documents the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

constexpr std::uint64_t kDefaultSeed = 42;
/// Seed no tuning may look at; a claimed gain must also hold on it.
constexpr std::uint64_t kHeldOutSeed = 1337;

/// The per-layer metric set every traced run prints, in this order. A layer
/// that does not run on a workload (the sim layers on `ring`, the socket
/// layers on `ingest` and `query`) reports 0.
struct LayerDef {
  const char* name;
  const char* unit;
};
const LayerDef kPerLayer[] = {
    {"core.ingest.calls", "count"},
    {"core.ingest.ns_per_call", "ns"},
    {"core.ingest.mbrs_per_call", "ratio"},
    {"routing.transit.events", "count"},
    {"routing.transit.ns_per_event", "ns"},
    {"routing.copies_per_mbr", "ratio"},
    {"routing.copies_per_query", "ratio"},
    {"core.store.events", "count"},
    {"core.store.ns_per_event", "ns"},
    {"core.store.accept_ratio", "ratio"},
    {"core.store.mbrs_resident_peak", "count"},
    {"core.store.subs_resident_peak", "count"},
    {"sim.kernel.events", "count"},
    {"sim.kernel.ns_per_event", "ns"},
    {"core.tick.events", "count"},
    {"core.tick.ns_per_event", "ns"},
    {"core.tick.matches_per_event", "ratio"},
    {"core.subscribe.calls", "count"},
    {"core.subscribe.ns_per_call", "ns"},
    {"core.install.events", "count"},
    {"core.install.ns_per_event", "ns"},
    {"core.report.events", "count"},
    {"core.report.ns_per_event", "ns"},
    {"core.other.events", "count"},
    {"core.other.ns_per_event", "ns"},
    {"core.ingest.share", "ratio"},
    {"core.subscribe.share", "ratio"},
    {"routing.transit.share", "ratio"},
    {"core.store.share", "ratio"},
    {"core.install.share", "ratio"},
    {"core.report.share", "ratio"},
    {"core.tick.share", "ratio"},
    {"core.other.share", "ratio"},
    {"sim.kernel.share", "ratio"},
    {"net.publish.calls", "count"},
    {"net.publish.ns_per_call", "ns"},
    {"net.tick.calls", "count"},
    {"net.tick.ns_per_call", "ns"},
    {"net.deliver.mbr_update.calls", "count"},
    {"net.deliver.mbr_update.ns_per_call", "ns"},
    {"net.deliver.similarity_query.calls", "count"},
    {"net.deliver.similarity_query.ns_per_call", "ns"},
    {"net.deliver.response.calls", "count"},
    {"net.deliver.response.ns_per_call", "ns"},
    {"net.socket.polls", "count"},
    {"net.socket.ns_per_poll", "ns"},
    {"net.socket.frames_per_sample", "ratio"},
    {"net.socket.bytes_per_frame", "bytes"},
    {"net.socket.outbox_peak_bytes", "bytes"},
    {"net.wire.encode_ns_per_frame", "ns"},
    {"net.wire.decode_ns_per_frame", "ns"},
    {"ring.gen_lag_p99_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.self_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

/// Refuses builds whose numbers would mislead. Returns an empty string for
/// a build that may be measured.
std::string build_problem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG)
  return "assertions enabled (NDEBUG not defined)";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type ") + PERFBENCH_BUILD_TYPE +
           " (Release required)";
  }
  return "";
#endif
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string env_stamp(const std::string& workload, const RunOptions& opts) {
  const char* rev = std::getenv("PERFBENCH_GIT_REV");
  std::string s = "{\"git_rev\": \"";
  s += rev != nullptr && *rev != '\0' ? rev : "unknown";
  s += "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": \"" PERFBENCH_CXX_ID "\"";
  s += ", \"network\": \"loopback TCP\"";
  s += ", \"workload\": \"" + workload + "\"";
  s += ", \"seed\": " + std::to_string(opts.seed);
  s += ", \"seconds\": " + number(opts.seconds);
  s += ", \"trace\": " + std::string(opts.trace ? "1" : "0") + "}";
  return s;
}

Result run_workload(const std::string& workload, const RunOptions& opts) {
  if (workload == "ring") {
    return run_ring_workload(opts);
  }
  return run_sim_workload(workload, opts);
}

/// Prints the human-readable lines and returns the JSON result line;
/// clears `correct` when a metric is not a finite number.
std::string render(const Result& r, bool trace, bool& correct) {
  for (const Metric& m : r.end_to_end) {
    std::printf("end_to_end %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.report) {
    std::printf("report     %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::map<std::string, Metric> layers;
  for (const Metric& m : r.per_layer) {
    layers[m.name] = m;
  }
  std::vector<Metric> per_layer;
  if (trace) {
    for (const LayerDef& def : kPerLayer) {
      const auto it = layers.find(def.name);
      per_layer.push_back(
          {def.name, it != layers.end() ? it->second.value : 0.0, def.unit});
      std::printf("per_layer  %-34s %.6g %s\n", def.name,
                  per_layer.back().value, def.unit);
    }
  }
  for (const std::string& problem : r.problems) {
    std::printf("FAILED CHECK: %s\n", problem.c_str());
  }
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const Metric& m : trace ? per_layer : r.end_to_end) {
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += "\"" + m.name + "\": {\"value\": " +
               number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  correct = r.correct && finite;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  return json;
}

double metric(const Result& r, const std::string& name) {
  for (const Metric& m : r.per_layer) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0.0;
}

/// The benchmark's own checks, on the default and the held-out seed:
/// tracing and the oracle are out of band (every round of a run reproduces
/// the checked round's match digest, which run_* verify), the traced spans
/// cover the traced wall time, and the layer split has the shape the
/// workloads were chosen for.
int self_test(double seconds) {
  bool ok = true;
  const auto expect = [&ok](bool cond, const std::string& what) {
    std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
    ok = ok && cond;
  };
  static const char* kSimLayers[] = {
      "core.ingest.share", "core.subscribe.share", "routing.transit.share",
      "core.store.share",  "core.install.share",   "core.report.share",
      "core.tick.share",   "core.other.share",     "sim.kernel.share"};
  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
    RunOptions opts;
    opts.seed = seed;
    opts.seconds = seconds;
    opts.trace = true;
    const std::string tag = " (seed " + std::to_string(seed) + ")";
    for (const char* workload : {"ingest", "query", "ring"}) {
      const Result r = run_workload(workload, opts);
      for (const std::string& problem : r.problems) {
        std::printf("  %s: %s\n", workload, problem.c_str());
      }
      expect(r.correct, std::string(workload) +
                            ": checks pass and the match digest is identical "
                            "with tracing and the oracle on and off" + tag);
      const double coverage = metric(r, "trace.coverage");
      expect(coverage > 0.95 && coverage < 1.01,
             std::string(workload) + ": traced spans cover the traced wall "
                                     "time (coverage " + number(coverage) +
                 ")" + tag);
      if (std::string(workload) == "ring") {
        continue;
      }
      double sum = metric(r, "trace.self_share");
      std::string largest;
      double largest_share = -1.0;
      for (const char* layer : kSimLayers) {
        const double share = metric(r, layer);
        sum += share;
        if (share > largest_share) {
          largest_share = share;
          largest = layer;
        }
      }
      expect(std::abs(sum - 1.0) < 0.05 && metric(r, "sim.kernel.share") >= 0,
             std::string(workload) + ": layers, the tracer's own time and "
                                     "the sim.kernel remainder sum to the "
                                     "traced wall time (" +
                 number(sum) + ")" + tag);
      if (std::string(workload) == "query") {
        expect(largest == "core.tick.share",
               "query: the largest layer is core.tick (largest: " + largest +
                   ")" + tag);
      } else {
        const double write_path = metric(r, "core.store.share") +
                                  metric(r, "routing.transit.share") +
                                  metric(r, "sim.kernel.share");
        expect(write_path > metric(r, "core.tick.share"),
               "ingest: core.store + routing.transit + sim.kernel (" +
                   number(write_path) + ") exceed core.tick (" +
                   number(metric(r, "core.tick.share")) + ")" + tag);
      }
    }
  }
  std::printf("self-test %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|query|ring --seed N "
               "--seconds S --trace 0|1\n"
               "       perfbench --self-test [--seconds S]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opts;
  opts.seed = kDefaultSeed;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") {
        return usage();
      }
      opts.trace = v == "1";
    } else {
      return usage();
    }
  }
  if (!(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
    return usage();
  }
  if (const std::string problem = build_problem(); !problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n",
                 problem.c_str());
    return 3;
  }
  if (self) {
    return self_test(opts.seconds);
  }
  if (workload != "ingest" && workload != "query" && workload != "ring") {
    return usage();
  }
  std::printf("# env %s\n", env_stamp(workload, opts).c_str());
  const Result result = run_workload(workload, opts);
  bool correct = false;
  const std::string json = render(result, opts.trace, correct);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
