// Extension experiment: throughput of the workload VM (src/vm/) over
// the Sitchinava suite — the cost of treating workloads as programs
// rather than hand-written kernel builders.
//
// Three phases, all driven by the shared warmup/repeat protocol:
//
//   assemble_lower  assemble the `.rvm` source and interpret it down to
//                   the SIMD kernel — ops_per_sec is PROGRAMS per second
//                   (the capture path's cost per workload)
//   extract         symbolic extraction of loop-nest IR from the same
//                   sources — ops_per_sec is PROGRAMS per second (the
//                   lint/synthesis path's cost per workload)
//   replay          execute every lowered kernel on the DMM under RAW —
//                   ns_per_op is nanoseconds per THREAD-LEVEL ACCESS
//                   (the simulation cost the campaign driver pays)
//
// The per-program table reports lowered size, extracted site/var counts
// and barrier phases, so a throughput regression can be traced to the
// program whose lowering or extraction grew.
//
//   $ ext_vm_workloads [--width=32] [--quick]
//                      [--bench-warmup=N] [--bench-repeats=N]
//                      [--format=ascii|markdown|csv] [--bench-json=PATH]
//
// Part of tools/run_all.sh ("vm" section); the committed baseline is
// BENCH_vm.json at the repo root (schema pinned by
// rapsim-schema vm, ctest entry vm_schema).

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "perfbench/perfbench.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"

namespace {

using namespace rapsim;

std::uint64_t thread_accesses(const dmm::Kernel& kernel) {
  std::uint64_t accesses = 0;
  for (const dmm::Instruction& instr : kernel.instructions) {
    for (const dmm::ThreadOp& op : instr) {
      switch (op.kind) {
        case dmm::OpKind::kLoad:
        case dmm::OpKind::kLoadAdd:
        case dmm::OpKind::kLoadMulAdd:
        case dmm::OpKind::kStore:
        case dmm::OpKind::kStoreImm:
        case dmm::OpKind::kAtomicAdd:
          ++accesses;
          break;
        default:
          break;
      }
    }
  }
  return accesses;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const perfbench::Protocol protocol = perfbench::protocol_from_args(args);

  const std::vector<vm::SuiteProgram> suite = vm::suite_programs(width);

  // Reference pass: one assembled/lowered/extracted instance per
  // program, reused for the table and the replay phase.
  std::vector<vm::Program> programs;
  std::vector<vm::LoweredProgram> lowered;
  std::vector<vm::ExtractResult> extracted;
  std::uint64_t total_accesses = 0;
  for (const vm::SuiteProgram& entry : suite) {
    programs.push_back(vm::assemble(entry.text, width));
    lowered.push_back(vm::lower_program(programs.back()));
    extracted.push_back(vm::extract_kernel(programs.back()));
    total_accesses += thread_accesses(lowered.back().kernel);
  }

  // Pre-built machines so the replay phase times simulation, not setup.
  std::vector<std::unique_ptr<core::AddressMap>> maps;
  std::vector<std::unique_ptr<dmm::Dmm>> machines;
  for (const vm::LoweredProgram& low : lowered) {
    maps.push_back(
        core::make_matrix_map(core::Scheme::kRaw, width, low.rows, 1));
    machines.push_back(
        std::make_unique<dmm::Dmm>(dmm::DmmConfig{width, 1}, *maps.back()));
  }

  volatile std::uint64_t sink = 0;
  const perfbench::Aggregate assemble_lower = perfbench::run_timed(
      protocol, suite.size(), [&] {
        std::uint64_t steps = 0;
        for (const vm::SuiteProgram& entry : suite) {
          steps += vm::lower_program(vm::assemble(entry.text, width)).steps;
        }
        sink = sink + steps;
      });
  const perfbench::Aggregate extract = perfbench::run_timed(
      protocol, suite.size(), [&] {
        std::uint64_t sites = 0;
        for (const vm::Program& program : programs) {
          sites += vm::extract_kernel(program).kernel.sites.size();
        }
        sink = sink + sites;
      });
  const perfbench::Aggregate replay = perfbench::run_timed(
      protocol, total_accesses, [&] {
        std::uint64_t time = 0;
        for (std::size_t i = 0; i < lowered.size(); ++i) {
          time += machines[i]->run(lowered[i].kernel).time;
        }
        sink = sink + time;
      });

  if (const auto bench_path = args.get("bench-json")) {
    perfbench::BenchReport report("ext_vm_workloads");
    report.set_config("width", width);
    report.set_config("programs", suite.size());
    report.set_config("thread_accesses", total_accesses);
    report.add("assemble_lower", assemble_lower);
    report.add("extract", extract);
    report.add("replay", replay);
    perfbench::write_bench_json(*bench_path, report);
    std::printf("wrote %s\n", bench_path->c_str());
    return 0;
  }

  util::TextTable table;
  table.row()
      .add("program")
      .add("simd instrs")
      .add("accesses")
      .add("sites")
      .add("vars")
      .add("barriers");
  for (std::size_t i = 0; i < suite.size(); ++i) {
    table.row()
        .add(suite[i].name)
        .add(lowered[i].kernel.instructions.size())
        .add(thread_accesses(lowered[i].kernel))
        .add(extracted[i].kernel.sites.size())
        .add(extracted[i].kernel.vars.size())
        .add(lowered[i].barriers);
  }
  table.print(std::cout, args.get_table_style());

  std::cout << "\nassemble+lower: " << assemble_lower.ops_per_sec
            << " programs/s (median of " << assemble_lower.samples
            << " repeats)\n"
            << "extract:        " << extract.ops_per_sec << " programs/s\n"
            << "replay:         " << replay.ns_per_op
            << " ns/access over " << total_accesses << " accesses\n";
  return 0;
}
