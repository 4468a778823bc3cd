// perfbench: the BENCH_*.json performance-trajectory harness.
//
// Every "made it faster" claim in this repository is checked against a
// committed baseline, so the measurement protocol has to be boring and
// reproducible:
//
//   * one steady clock (util/clock.hpp — wall-clock jumps cannot
//     corrupt a sample);
//   * a warmup/repeat protocol (run_timed): `warmup` untimed runs to
//     fill caches and branch predictors, then `repeats` timed samples;
//   * outlier-robust aggregation reusing util::Tally / util::OnlineStats:
//     throughput (ops_per_sec, ns_per_op) derives from the MEDIAN
//     sample, not the mean, so one preempted repeat cannot shift the
//     trajectory; p50/p95/p99 expose the spread;
//   * machine metadata (hostname, OS, compiler, hardware threads) so a
//     cross-machine diff is recognizable as one;
//   * a schema-stable emitter (BenchReport::to_json / write_bench_json)
//     producing the BENCH_<name>.json documents tools/bench_compare
//     diffs and rapsim-schema bench validates.
//
// Two aggregation shapes cover every bench:
//
//   aggregate_repeats    N whole-run samples of `items` operations each
//                        (table sweeps, replay runs) — percentiles are
//                        over per-repeat wall time;
//   aggregate_latencies  per-operation samples plus one wall-clock
//                        window (the serve bench) — ops_per_sec is true
//                        throughput, percentiles are per-op latency.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace rapsim::perfbench {

/// Warmup/repeat measurement protocol. quick() is the ctest smoke
/// configuration; protocol_from_args reads the shared bench flags.
struct Protocol {
  std::size_t warmup = 1;
  std::size_t repeats = 7;

  [[nodiscard]] static Protocol quick() noexcept { return {1, 3}; }
};

/// The shared bench flags every BENCH-emitting binary accepts:
/// --quick (smoke protocol), --bench-warmup=N, --bench-repeats=N
/// (repeats clamped to >= 1).
[[nodiscard]] Protocol protocol_from_args(const util::CliArgs& args);

/// Outlier-robust aggregate of timed samples. All ns percentiles refer
/// to the sample population the aggregate was built from (per-repeat
/// wall time or per-operation latency; see header comment).
struct Aggregate {
  std::uint64_t samples = 0;
  std::uint64_t items = 0;          // operations represented per sample
  std::uint64_t total_ns = 0;       // sum over samples (repeats) or the
                                    // wall window (latencies)
  double ops_per_sec = 0.0;
  double ns_per_op = 0.0;           // the trajectory number ("ns/access")
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
  double stddev_ns = 0.0;
};

/// Aggregate `repeats` whole-run samples, each timing `items_per_sample`
/// operations. ops_per_sec and ns_per_op derive from the median sample.
/// Returns a zeroed Aggregate for empty input or zero items.
[[nodiscard]] Aggregate aggregate_repeats(
    const std::vector<std::uint64_t>& sample_ns,
    std::uint64_t items_per_sample);

/// Aggregate per-operation latency samples observed inside one wall
/// window of `wall_ns`: ops_per_sec = samples / wall, ns_per_op = median
/// latency. Returns a zeroed Aggregate for an empty tally.
[[nodiscard]] Aggregate aggregate_latencies(const util::Tally& latency_ns,
                                            std::uint64_t wall_ns);

/// Run `fn` under the warmup/repeat protocol and aggregate the samples.
/// `items` is the operation count one invocation of `fn` represents.
template <typename Fn>
[[nodiscard]] Aggregate run_timed(const Protocol& protocol,
                                  std::uint64_t items, Fn&& fn) {
  for (std::size_t i = 0; i < protocol.warmup; ++i) fn();
  std::vector<std::uint64_t> samples;
  samples.reserve(protocol.repeats);
  for (std::size_t i = 0; i < protocol.repeats; ++i) {
    const util::TimePoint start = util::now();
    fn();
    samples.push_back(util::elapsed_ns(start));
  }
  return aggregate_repeats(samples, items);
}

/// Host identity captured into every BENCH document, so a diff across
/// machines is visibly not a trajectory point.
struct MachineInfo {
  std::string hostname;
  std::string os;        // uname sysname + release
  std::string compiler;  // __VERSION__ of the compiler that built this
  std::uint32_t hardware_threads = 0;
};

[[nodiscard]] MachineInfo capture_machine();

/// One BENCH_<name>.json document under construction. Config entries
/// and metrics serialize in insertion order; the field set per metric is
/// the stable schema rapsim-schema bench pins.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : bench_(std::move(bench_name)), machine_(capture_machine()) {}

  void set_config(const std::string& key, std::uint64_t value);
  void set_config(const std::string& key, const std::string& value);
  void add(const std::string& metric_name, const Aggregate& aggregate);

  [[nodiscard]] const std::string& bench() const noexcept { return bench_; }
  [[nodiscard]] std::size_t metric_count() const noexcept {
    return metrics_.size();
  }

  /// The full document: schema_version, bench, unix_time, machine,
  /// config, metrics[].
  [[nodiscard]] std::string to_json() const;

 private:
  std::string bench_;
  MachineInfo machine_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-serialized
  std::vector<std::pair<std::string, Aggregate>> metrics_;
};

/// Atomic write (tmp + rename, parent dirs created) of report.to_json()
/// + '\n' to `path`. Throws std::runtime_error on IO failure.
void write_bench_json(const std::string& path, const BenchReport& report);

}  // namespace rapsim::perfbench
