// catalog_sim: the 13 executable catalog workloads (tools/workload_kernels)
// at w = 32 under RAW and RAP. Per (kernel, scheme) a round runs one
// replay::run_cell on the kernel's captured trace and one hier::HierSim
// run on 2 SMs with PathParams::defaults() under each of the roundrobin,
// gto and dwr schedulers: 13 x 2 x 4 = 104 ops.
//
// `dmm`, the event core and `hier` do the work: one map serves millions
// of translations, the opposite use of `core` from table2_sweep. The
// footprints (256 to 8192 words) sit on both sides of the 2048-word L1.
// Set-up is the catalog build (VM assemble/extract/lower for the program
// kernels) plus one trace capture per kernel.
#include <array>
#include <string>

#include "common.hpp"
#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "hier/hier.hpp"
#include "replay/campaign.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "transpose/algorithms.hpp"
#include "workload_kernels.hpp"

namespace e2ebench {

namespace {

namespace rs = rapsim;

constexpr std::uint32_t kWidth = 32;
constexpr std::array<rs::core::Scheme, 2> kSchemes = {rs::core::Scheme::kRaw,
                                                       rs::core::Scheme::kRap};
constexpr std::array<const char*, 3> kSchedulers = {"roundrobin", "gto", "dwr"};
constexpr std::size_t kOpsPerPair = 1 + kSchedulers.size();

constexpr std::uint64_t kExpected[] = {
#include "expected_catalog_sim.inc"
};

struct Entry {
  rs::tools::WorkloadKernel workload;
  rs::replay::AccessTrace trace;
  std::uint64_t trace_hash = 0;
  bool transpose = false;
};

void add_run(Digest& d, const rs::dmm::RunStats& s) {
  d.add(s.time).add(s.total_stages).add(s.dispatches)
      .add(std::uint64_t{s.max_congestion}).add(s.avg_congestion);
}

class CatalogSim final : public Workload {
 public:
  const char* name() const override { return "catalog_sim"; }

  void setup(std::uint64_t, Tracer* tracer) override {
    const Scoped span(tracer, "catalog_sim.setup", "bench");
    for (auto& w : rs::tools::workload_kernels(kWidth)) {
      Entry e;
      e.transpose = w.name.rfind("transpose-", 0) == 0;
      // Capture records logical addresses, so the map does not matter.
      const auto map = rs::core::make_matrix_map(rs::core::Scheme::kRaw,
                                                 kWidth, w.rows, 1);
      rs::dmm::Dmm machine(rs::dmm::DmmConfig{kWidth, 1}, *map);
      e.trace = rs::replay::capture_run(machine, w.kernel);
      e.trace_hash = rs::replay::content_hash(e.trace);
      e.workload = std::move(w);
      entries_.push_back(std::move(e));
    }
  }

  std::size_t round_size() const override {
    return entries_.size() * kSchemes.size() * kOpsPerPair;
  }

  std::vector<std::uint64_t> expected() const override {
    return {std::begin(kExpected), std::end(kExpected)};
  }

  OpOutcome run_op(std::size_t index, std::uint64_t seed,
                   Tracer* tracer) override {
    const Entry& e = entries_[index / (kSchemes.size() * kOpsPerPair)];
    const rs::core::Scheme scheme =
        kSchemes[(index / kOpsPerPair) % kSchemes.size()];
    const std::size_t kind = index % kOpsPerPair;
    return kind == 0 ? replay_op(e, scheme, seed, tracer)
                     : hier_op(e, scheme, kSchedulers[kind - 1], seed, tracer);
  }

  void layer_metrics(const Tracer& t, Metrics& m) const override {
    m["replay.lower_us"] = {per_call(t, "replay.lower", 1e3), "us"};
    m["replay.cell_us"] = {per_call(t, "replay.cell", 1e3), "us"};
    const double dispatches = t.counter("dmm.dispatches");
    const double run_ns = static_cast<double>(t.total_ns("dmm.run"));
    const double access_ns = static_cast<double>(t.total_ns("dmm.warp_access"));
    m["dmm.warp_access_ns"] = {per_call(t, "dmm.warp_access", 1.0), "ns"};
    m["dmm.run_us"] = {per_call(t, "dmm.run", 1e3), "us"};
    m["dmm.dispatch_ns"] = {ratio(run_ns - access_ns, dispatches), "ns"};
    m["dmm.dispatches"] = {ratio(dispatches, static_cast<double>(t.calls("dmm.run"))),
                           "count"};
    const double hier_dispatches = t.counter("hier.dispatches");
    const double hier_ns = static_cast<double>(t.total_ns("hier.run"));
    m["hier.run_us"] = {per_call(t, "hier.run", 1e3), "us"};
    m["hier.path_ns"] = {
        ratio(hier_ns - static_cast<double>(t.total_ns("hier.run_zero")),
              hier_dispatches),
        "ns"};
    const double l1 = t.counter("hier.l1_hits") + t.counter("hier.l1_misses");
    const double l2 = t.counter("hier.l2_hits") + t.counter("hier.l2_misses");
    m["hier.l1_hit_ratio"] = {ratio(t.counter("hier.l1_hits"), l1), "ratio"};
    m["hier.l1_accesses"] = {l1, "count"};
    m["hier.l2_hit_ratio"] = {ratio(t.counter("hier.l2_hits"), l2), "ratio"};
    m["hier.l2_accesses"] = {l2, "count"};
    const double runs = static_cast<double>(t.calls("hier.run"));
    m["hier.mshr_stall_cycles"] = {ratio(t.counter("hier.mshr_stall_cycles"), runs),
                                   "cycles"};
    m["hier.cycles"] = {ratio(t.counter("hier.cycles"), runs), "cycles"};
    m["sim.host_ns_per_dispatch"] = {ratio(hier_ns, hier_dispatches), "ns"};
  }

 private:
  OpOutcome replay_op(const Entry& e, rs::core::Scheme scheme,
                      std::uint64_t seed, Tracer* tracer) const {
    rs::replay::CampaignCell cell;
    cell.trace_name = e.workload.name;
    cell.trace_hash = e.trace_hash;
    cell.scheme = scheme;
    cell.width = kWidth;
    cell.latency = 1;
    cell.trials = 1;
    cell.seed = seed;
    const Scoped op(tracer, "catalog_sim.replay", "bench");
    rs::replay::CellResult result;
    {
      const Scoped span(tracer, "replay.cell", "replay", op.id());
      result = rs::replay::run_cell(cell, e.trace);
    }
    if (tracer) trace_dmm(e, scheme, seed, *tracer, op.id());

    Digest d;
    for (const auto& t : result.trials) {
      d.add(t.time).add(t.total_stages).add(t.dispatches)
          .add(std::uint64_t{t.max_congestion});
    }
    for (const auto& [value, count] : result.congestion.histogram()) {
      d.add(static_cast<std::uint64_t>(value)).add(static_cast<std::uint64_t>(count));
    }
    OpOutcome out;
    out.digest = d.value();
    if (result.trials.size() != 1 || result.trials[0].dispatches == 0) {
      out.ok = false;
      out.error = "catalog_sim " + e.workload.name + ": replay ran no dispatch";
    }
    return out;
  }

  /// The traced replay op also times the layers run_cell hides: the
  /// lowering, a whole Dmm::run, and the same kernel stepped warp access
  /// by warp access in instruction order (what Dmm::run spends outside
  /// warp_access is the event core's dispatch cost).
  void trace_dmm(const Entry& e, rs::core::Scheme scheme, std::uint64_t seed,
                 Tracer& tracer, std::uint32_t parent) const {
    rs::dmm::Kernel kernel;
    {
      const Scoped span(&tracer, "replay.lower", "replay", parent);
      kernel = rs::replay::lower_to_kernel(e.trace);
    }
    const std::uint64_t rows =
        (e.trace.header.memory_size + kWidth - 1) / kWidth;
    const auto map = rs::core::make_matrix_map(scheme, kWidth, rows, seed);
    rs::dmm::Dmm machine(rs::dmm::DmmConfig{kWidth, 1}, *map);
    rs::dmm::RunStats stats;
    {
      const Scoped span(&tracer, "dmm.run", "dmm", parent);
      stats = machine.run(kernel);
    }
    tracer.count("dmm.dispatches", static_cast<double>(stats.dispatches));
    const std::uint32_t warps = (kernel.num_threads + kWidth - 1) / kWidth;
    std::uint64_t accesses = 0;
    const Clock::time_point t0 = Clock::now();
    machine.begin_run(kernel);
    for (std::uint32_t i = 0; i < kernel.instructions.size(); ++i) {
      if (kernel.instructions[i].front().kind == rs::dmm::OpKind::kBarrier) {
        machine.finish_barrier(i);
        continue;
      }
      for (std::uint32_t w = 0; w < warps; ++w) {
        if (machine.warp_access(kernel, i, w).active_threads) ++accesses;
      }
    }
    tracer.record("dmm.warp_access", "dmm", parent, ns_since(t0), accesses);
  }

  OpOutcome hier_op(const Entry& e, rs::core::Scheme scheme,
                    const char* scheduler, std::uint64_t seed,
                    Tracer* tracer) const {
    const Scoped op(tracer, "catalog_sim.hier", "bench");
    rs::hier::HierConfig config;
    config.sms = 2;
    config.width = kWidth;
    config.scheduler = scheduler;
    config.path = rs::hier::PathParams::defaults();
    const auto map = rs::core::make_matrix_map(scheme, kWidth,
                                               e.workload.rows, seed);
    rs::hier::HierSim sim(config, *map);
    for (std::uint32_t sm = 0; sm < sim.num_sms(); ++sm) {
      sim.sm_machine(sm).fill_identity();
    }
    rs::hier::HierResult r;
    {
      const Scoped span(tracer, "hier.run", "hier", op.id());
      r = sim.run(e.workload.kernel, scheme);
    }
    if (tracer) {
      // hier.path_ns: the same run with the memory path switched off.
      config.path = rs::hier::PathParams::zero();
      rs::hier::HierSim bare(config, *map);
      const Scoped span(tracer, "hier.run_zero", "hier", op.id());
      (void)bare.run(e.workload.kernel, scheme);
    }

    Digest d;
    d.add(r.cycles).add(r.dispatches).add(r.total_stages)
        .add(std::uint64_t{r.max_congestion}).add(r.avg_congestion)
        .add(r.l2_hits).add(r.l2_misses).add(r.l2_queue_cycles).add(r.est_ns);
    for (const auto& sm : r.sms) {
      add_run(d, sm.run);
      d.add(sm.idle_slots).add(sm.warp_stall_slots).add(sm.l1_hits)
          .add(sm.l1_misses).add(sm.l2_hits).add(sm.dram_fills)
          .add(sm.mshr_stall_cycles).add(sm.mem_wait_cycles).add(sm.est_ns);
      for (const std::uint64_t n : sm.warp_dispatches) d.add(n);
    }
    if (tracer) {
      tracer->count("hier.dispatches", static_cast<double>(r.dispatches));
      tracer->count("hier.cycles", static_cast<double>(r.cycles));
      for (const auto& sm : r.sms) {
        tracer->count("hier.l1_hits", static_cast<double>(sm.l1_hits));
        tracer->count("hier.l1_misses", static_cast<double>(sm.l1_misses));
        tracer->count("hier.mshr_stall_cycles",
                      static_cast<double>(sm.mshr_stall_cycles));
      }
      tracer->count("hier.l2_hits", static_cast<double>(r.l2_hits));
      tracer->count("hier.l2_misses", static_cast<double>(r.l2_misses));
    }

    OpOutcome out;
    out.digest = d.value();
    if (r.dispatches == 0 || r.cycles == 0) {
      out.ok = false;
      out.error = "catalog_sim " + e.workload.name + ": hier ran no dispatch";
    } else if (e.transpose) {
      // Every SM must leave B = A^T over identity-filled memory.
      const rs::transpose::MatrixPair pair{kWidth};
      for (std::uint32_t sm = 0; sm < sim.num_sms() && out.ok; ++sm) {
        for (std::uint64_t i = 0; i < kWidth && out.ok; ++i) {
          for (std::uint64_t j = 0; j < kWidth; ++j) {
            if (sim.sm_machine(sm).load(pair.b_index(j, i)) != pair.a_index(i, j)) {
              out.ok = false;
              out.error = "catalog_sim " + e.workload.name + "/" + scheduler +
                          ": B is not the transpose of A";
              break;
            }
          }
        }
      }
    }
    return out;
  }

  std::vector<Entry> entries_;
};

}  // namespace

std::unique_ptr<Workload> make_catalog_sim() {
  return std::make_unique<CatalogSim>();
}

}  // namespace e2ebench
