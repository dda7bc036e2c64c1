// Scheduler order gate on a full system: the canonical seeded chaos
// scenario (bursty link loss + a crash wave + the self-healing path, as in
// test_chaos.cpp) drives the kernel hard, and every executed event's
// (when, seq) pair must rise strictly — no event runs before one it should
// follow. The kernel-level differential replay against the reference
// binary-heap kernel lives in test_sim.cpp.
//
// Runs under both the chaos-smoke and tsan-smoke labels, mirroring
// test_parallel_equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/experiment.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig chaos_config(const std::string& obs_dir) {
  ExperimentConfig config;
  config.num_nodes = 50;
  config.seed = 42;
  config.warmup = sim::Duration::seconds(60);
  config.measure = sim::Duration::seconds(60);
  config.oracle_sample_period = sim::Duration::millis(500);
  fault::GilbertElliottParams burst;
  burst.p_good_to_bad = 0.25 * 0.1 / 0.9;  // ~10% stationary loss
  burst.p_bad_to_good = 0.25;
  config.faults.burst_loss = burst;
  fault::CrashWave wave;
  wave.at = sim::SimTime::zero() + config.warmup + sim::Duration::seconds(10);
  wave.fraction = 0.2;
  wave.down_for = sim::Duration::seconds(20);
  config.faults.crash_waves.push_back(wave);
  config.mbr_acks = true;
  config.response_acks = true;
  config.mbr_refresh_period = sim::Duration::millis(1500);
  config.query_refresh_period = sim::Duration::millis(2500);
  config.drain = sim::Duration::millis(3000);
  config.obs.dir = obs_dir;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SchedulerEquivalence, ChaosRunExecutesInStrictWhenSeqOrder) {
  const std::string obs_dir = ::testing::TempDir() + "sdsi_sched_order";
  Experiment experiment(chaos_config(obs_dir));
  std::uint64_t events = 0;
  std::uint64_t out_of_order = 0;
  std::pair<std::int64_t, SeqNo> last{-1, 0};
  experiment.simulator().set_execution_probe(
      [&](sim::SimTime when, SeqNo seq) {
        const std::pair<std::int64_t, SeqNo> cur{when.count_micros(), seq};
        if (events > 0 && !(last < cur)) {
          ++out_of_order;
        }
        last = cur;
        ++events;
      });
  experiment.run();

  // The scenario must actually exercise the kernel hard, or the order check
  // proves nothing: tens of thousands of events, real matches, faults,
  // healing.
  ASSERT_GT(events, 10000u);
  EXPECT_EQ(events, experiment.simulator().executed_events());
  ASSERT_GT(experiment.quality_report().matches_reported, 0u);
  ASSERT_GT(experiment.robustness_report().mbr_retries, 0u);
  ASSERT_FALSE(slurp(obs_dir + "/metrics.json").empty());

  EXPECT_EQ(out_of_order, 0u);
}

}  // namespace
}  // namespace sdsi::core
