// Extension experiment: hierarchy-simulator scaling — simulation
// throughput and simulated cycle counts as SM count and warp-scheduling
// policy vary.
//
// Runs the bitonic workload (the catalog's most barrier-heavy kernel,
// so scheduling decisions actually matter) at width 32 under RAP across
// sms x scheduler in {1, 2, 4} x {roundrobin, gto, dwr}. The
// global-memory path runs at the defaults except for a 4-line L1 and 2
// MSHRs per SM: bitonic's working set fits the default 64-line L1 after
// one cold pass, which would let every scheduler converge on the same
// steady state — the cut-down front end keeps misses (and therefore
// dispatch-order-dependent completion times) flowing for the whole run.
// Two families of outputs:
//
//   * config entries  cycles_sms<N>_<sched> — the SIMULATED cycle count
//     of each cell. These are the model's scientific outputs: at >= 2
//     SMs the shared-port contention makes them scheduler-dependent
//     (pinned by rapsim-schema hier and
//     tests/hier_differential_test.cpp).
//   * metrics         sim_sms<N>_<sched> — wall-clock throughput of the
//     simulator itself (items = dispatched warp-instructions), the
//     perf-trajectory series BENCH_hier.json tracks.
//
//   $ ext_hier_scaling [--quick] [--bench-warmup=N] [--bench-repeats=N]
//                      [--format=ascii|markdown|csv] [--bench-json=PATH]
//
// Part of tools/run_all.sh ("hier" section); the committed baseline is
// BENCH_hier.json at the repo root.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "hier/hier.hpp"
#include "perfbench/perfbench.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"

namespace {

using namespace rapsim;

constexpr std::uint32_t kWidth = 32;
const std::uint32_t kSmCounts[] = {1, 2, 4};
const char* const kSchedulers[] = {"roundrobin", "gto", "dwr"};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const perfbench::Protocol protocol = perfbench::protocol_from_args(args);

  // The bitonic workload, lowered from its VM program like the catalog
  // does (tools/workload_kernels.cpp); n = 8w keys.
  vm::LoweredProgram lowered = vm::lower_program(
      vm::assemble(vm::suite_program("vm-bitonic", kWidth).text, kWidth));
  const dmm::Kernel& kernel = lowered.kernel;

  const auto map =
      core::make_matrix_map(core::Scheme::kRap, kWidth, lowered.rows, 1);

  struct Cell {
    std::uint32_t sms = 0;
    std::string scheduler;
    hier::HierResult result;
    perfbench::Aggregate timing;
  };
  std::vector<Cell> cells;

  for (const std::uint32_t sms : kSmCounts) {
    for (const char* const scheduler : kSchedulers) {
      hier::HierConfig config;
      config.sms = sms;
      config.width = kWidth;
      config.scheduler = scheduler;
      config.path = hier::PathParams::defaults();
      config.path.l1.lines = 4;  // keep the path hot (see header comment)
      config.path.mshrs = 2;
      hier::HierSim sim(config, *map);

      Cell cell;
      cell.sms = sms;
      cell.scheduler = scheduler;
      cell.result = sim.run(kernel, core::Scheme::kRap);

      volatile std::uint64_t sink = 0;
      cell.timing = perfbench::run_timed(
          protocol, cell.result.dispatches,
          [&] { sink = sink + sim.run(kernel, core::Scheme::kRap).cycles; });
      cells.push_back(std::move(cell));
    }
  }

  if (const auto bench_path = args.get("bench-json")) {
    perfbench::BenchReport report("ext_hier_scaling");
    report.set_config("width", std::uint64_t{kWidth});
    report.set_config("workload", "bitonic");
    report.set_config("scheme", "RAP");
    for (const Cell& cell : cells) {
      report.set_config(
          "cycles_sms" + std::to_string(cell.sms) + "_" + cell.scheduler,
          cell.result.cycles);
    }
    for (const Cell& cell : cells) {
      report.add(
          "sim_sms" + std::to_string(cell.sms) + "_" + cell.scheduler,
          cell.timing);
    }
    perfbench::write_bench_json(*bench_path, report);
    std::printf("wrote %s\n", bench_path->c_str());
    return 0;
  }

  util::TextTable table;
  table.row()
      .add("sms")
      .add("scheduler")
      .add("cycles")
      .add("dispatches")
      .add("l2 hits")
      .add("l2 misses")
      .add("sim ns/dispatch");
  for (const Cell& cell : cells) {
    table.row()
        .add(std::uint64_t{cell.sms})
        .add(cell.scheduler)
        .add(cell.result.cycles)
        .add(cell.result.dispatches)
        .add(cell.result.l2_hits)
        .add(cell.result.l2_misses)
        .add(cell.timing.ns_per_op, 1);
  }
  table.print(std::cout, args.get_table_style());
  return 0;
}
