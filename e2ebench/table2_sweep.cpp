// table2_sweep: the paper's Table II Monte-Carlo sweep. One op is one
// access::estimate_congestion_2d cell — RAW/RAS/RAP x Contiguous/Stride/
// Diagonal/Random x w in {16,32,64,128,256} — at a fixed trial count.
//
// `core` and `access` do almost all the work: every trial draws a fresh
// map, generates one warp's addresses and counts its congestion. No
// other layer is touched. The traced op replays the same trial loop from
// here through the public functions (make_matrix_map, warp_addresses_2d,
// translate, congestion_value) on congestion_distribution_2d's RNG
// stream, so each layer call gets its own span.
#include <array>
#include <string>

#include "access/montecarlo.hpp"
#include "access/pattern2d.hpp"
#include "common.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace {

constexpr std::uint64_t kTrials = 1000;
constexpr std::array<std::uint32_t, 5> kWidths = {16, 32, 64, 128, 256};
constexpr std::array<rapsim::core::Scheme, 3> kSchemes = {
    rapsim::core::Scheme::kRaw, rapsim::core::Scheme::kRas,
    rapsim::core::Scheme::kRap};

struct Cell {
  rapsim::core::Scheme scheme;
  rapsim::access::Pattern2d pattern;
  std::uint32_t width;
};

constexpr std::uint64_t kExpected[] = {
#include "expected_table2_sweep.inc"
};

const char* scheme_key(rapsim::core::Scheme s) {
  switch (s) {
    case rapsim::core::Scheme::kRaw: return "raw";
    case rapsim::core::Scheme::kRas: return "ras";
    default: return "rap";
  }
}

/// The paper's exact Table II cells: congestion that holds on every
/// trial, whatever the seed. Returns 0 where the cell is random.
std::uint32_t exact_cell(const Cell& c) {
  using rapsim::access::Pattern2d;
  using rapsim::core::Scheme;
  if (c.scheme == Scheme::kRap &&
      (c.pattern == Pattern2d::kContiguous || c.pattern == Pattern2d::kStride)) {
    return 1;
  }
  if (c.scheme == Scheme::kRaw) {
    if (c.pattern == Pattern2d::kStride) return c.width;
    if (c.pattern == Pattern2d::kContiguous ||
        c.pattern == Pattern2d::kDiagonal) {
      return 1;
    }
  }
  return 0;
}

class Table2Sweep final : public Workload {
 public:
  const char* name() const override { return "table2_sweep"; }

  void setup(std::uint64_t, Tracer*) override {
    for (const std::uint32_t w : kWidths) {
      for (const auto scheme : kSchemes) {
        for (const auto pattern : rapsim::access::table2_patterns()) {
          cells_.push_back({scheme, pattern, w});
        }
      }
    }
  }

  std::size_t round_size() const override { return cells_.size(); }

  std::vector<std::uint64_t> expected() const override {
    return {std::begin(kExpected), std::end(kExpected)};
  }

  OpOutcome run_op(std::size_t index, std::uint64_t seed,
                   Tracer* tracer) override {
    const Cell& c = cells_[index];
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    double mean = 0.0;
    std::uint64_t trials = 0;
    std::uint64_t translated_sum = 0;
    if (tracer) {
      translated_sum = traced_cell(c, seed, *tracer, lo, hi, mean, trials);
    } else {
      const auto est = rapsim::access::estimate_congestion_2d(
          c.scheme, c.pattern, c.width, kTrials, seed);
      lo = est.min;
      hi = est.max;
      mean = est.mean;
      trials = est.trials;
    }
    OpOutcome out;
    // translated_sum (0 untraced) keeps the traced translate loop live.
    out.digest = Digest().add(mean).add(std::uint64_t{lo}).add(std::uint64_t{hi})
                     .add(trials).add(translated_sum).value();
    const std::uint32_t exact = exact_cell(c);
    const std::string where = std::string("table2_sweep ") +
                              scheme_key(c.scheme) + "/" +
                              rapsim::access::pattern2d_name(c.pattern) +
                              "/w" + std::to_string(c.width);
    if (trials != kTrials || lo < 1 || hi > c.width ||
        mean < static_cast<double>(lo) || mean > static_cast<double>(hi)) {
      out.ok = false;
      out.error = where + ": statistics out of range";
    } else if (exact && (lo != exact || hi != exact)) {
      out.ok = false;
      out.error = where + ": expected exactly " + std::to_string(exact);
    }
    return out;
  }

  void layer_metrics(const Tracer& t, Metrics& m) const override {
    for (const char* s : {"ras", "rap"}) {
      for (const char* w : {"w32", "w256"}) {
        const std::string key = std::string("core.map_draw_ns.") + s + "." + w;
        m[key] = {per_call(t, key, 1.0), "ns"};
      }
    }
    for (const auto scheme : kSchemes) {
      const std::string key = std::string("core.translate_ns.") + scheme_key(scheme);
      m[key] = {per_call(t, key, 1.0), "ns"};
    }
    for (const char* w : {"w32", "w256"}) {
      const std::string key = std::string("core.congestion_ns.") + w;
      m[key] = {per_call(t, key, 1.0), "ns"};
    }
    m["access.pattern_ns"] = {per_call(t, "access.pattern_ns", 1.0), "ns"};
    m["access.trials"] = {t.counter("access.trials"), "count"};
  }

 private:
  /// One cell's trial loop with a span per layer call, folded into one
  /// aggregate span per layer per cell. Same sampling as
  /// access::congestion_distribution_2d (single stream, single thread).
  /// Returns the sum of the translated addresses.
  std::uint64_t traced_cell(const Cell& c, std::uint64_t seed,
                            Tracer& tracer, std::uint32_t& lo,
                            std::uint32_t& hi, double& mean,
                            std::uint64_t& trials) {
    const Scoped op(&tracer, "table2.cell", "bench");
    const std::string w = "w" + std::to_string(c.width);
    const std::string draw_key =
        std::string("core.map_draw_ns.") + scheme_key(c.scheme) + "." + w;
    const std::string translate_key =
        std::string("core.translate_ns.") + scheme_key(c.scheme);
    const std::string congestion_key = "core.congestion_ns." + w;
    std::uint64_t draw_ns = 0;
    std::uint64_t pattern_ns = 0;
    std::uint64_t translate_ns = 0;
    std::uint64_t congestion_ns = 0;
    std::uint64_t translated = 0;
    std::uint64_t sink = 0;
    double sum = 0.0;
    lo = ~0u;
    hi = 0;
    rapsim::util::Pcg32 rng(seed ^ 0x64697374ull, 0);
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      const std::uint64_t map_seed = seed * 0x9e3779b97f4a7c15ull + trial + 1;
      Clock::time_point t0 = Clock::now();
      const auto map =
          rapsim::core::make_matrix_map(c.scheme, c.width, c.width, map_seed);
      draw_ns += ns_since(t0);
      const std::uint32_t warp = rng.bounded(c.width);
      t0 = Clock::now();
      const auto addrs =
          rapsim::access::warp_addresses_2d(c.pattern, *map, warp, rng);
      pattern_ns += ns_since(t0);
      t0 = Clock::now();
      for (const std::uint64_t a : addrs) sink += map->translate(a);
      translate_ns += ns_since(t0);
      translated += addrs.size();
      t0 = Clock::now();
      const std::uint32_t congestion =
          rapsim::core::congestion_value(addrs, *map);
      congestion_ns += ns_since(t0);
      sum += congestion;
      lo = std::min(lo, congestion);
      hi = std::max(hi, congestion);
    }
    tracer.record(draw_key, "core", op.id(), draw_ns, kTrials);
    tracer.record("access.pattern_ns", "access", op.id(), pattern_ns, kTrials);
    tracer.record(translate_key, "core", op.id(), translate_ns, translated);
    tracer.record(congestion_key, "core", op.id(), congestion_ns, kTrials);
    tracer.count("access.trials", static_cast<double>(kTrials));
    mean = sum / static_cast<double>(kTrials);
    trials = kTrials;
    return sink;
  }

  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_table2_sweep() {
  return std::make_unique<Table2Sweep>();
}

}  // namespace e2ebench
