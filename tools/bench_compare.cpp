// bench_compare — diff two BENCH_<name>.json perf-trajectory documents.
//
//   $ bench_compare BASELINE.json CURRENT.json [--threshold=0.30]
//
// Prints one line per metric (baseline ns/op, current ns/op, ratio) and
// a verdict. Exit codes, stable for CI:
//
//   0  no metric regressed (ratio < 1 + threshold everywhere)
//   1  at least one metric's ns_per_op degraded by >= threshold
//   2  usage / IO / malformed document (incl. mismatched bench names)
//
// Metrics present on only one side are listed but never fail the run —
// benches grow new metrics across PRs. A hostname mismatch is flagged
// (cross-machine numbers are not a trajectory) but is not a failure.

#include <cstdio>
#include <string>

#include "perfbench/compare.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto& files = args.positional();
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CURRENT.json "
                 "[--threshold=0.30]\n");
    return 2;
  }
  const double threshold =
      args.get_double("threshold", perfbench::kDefaultRegressionThreshold);
  if (threshold <= 0.0) {
    std::fprintf(stderr, "bench_compare: --threshold must be > 0\n");
    return 2;
  }

  perfbench::CompareResult result;
  try {
    result = perfbench::compare_bench_json(util::read_file(files[0]),
                                           util::read_file(files[1]),
                                           threshold);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  std::printf("bench: %s (threshold %.0f%%)\n", result.bench.c_str(),
              threshold * 100.0);
  if (!result.same_machine) {
    std::printf(
        "WARNING: documents come from different machines — ratios are "
        "not a trajectory\n");
  }
  for (const perfbench::MetricDelta& delta : result.deltas) {
    std::printf("  %-32s %12.2f -> %12.2f ns/op  ratio %.3f%s\n",
                delta.name.c_str(), delta.baseline_ns_per_op,
                delta.current_ns_per_op, delta.ratio,
                delta.regressed ? "  REGRESSED" : "");
  }
  for (const std::string& name : result.only_baseline) {
    std::printf("  %-32s only in baseline\n", name.c_str());
  }
  for (const std::string& name : result.only_current) {
    std::printf("  %-32s only in current\n", name.c_str());
  }
  if (result.regression) {
    std::printf("verdict: REGRESSION\n");
    return 1;
  }
  std::printf("verdict: ok\n");
  return 0;
}
