// Per-run telemetry sink for the DMM/UMM machine.
//
// Dmm::run cannot afford registry lookups per memory access, so the
// machine writes into this plain-vector sink instead (one branch on a
// nullable pointer per event — a null sink costs nothing but that branch).
// After the run the sink holds:
//
//   * bank_requests[b]    — unique requests routed to bank b (after CRCW
//                           merging; atomics count each serialized cycle)
//   * bank_peak[b]        — the most requests any single warp-instruction
//                           sent to bank b. Totals are uniform for any
//                           bijective workload (every address touched
//                           once), so this is the column that shows WHICH
//                           banks serialize: a RAW stride write peaks at w
//                           on one bank, RAP at ~1. Filled on both
//                           machine kinds: a UMM slot serves whole rows,
//                           but each bank still receives its requests.
//   * congestion          — exact histogram of per-dispatch congestion
//   * dispatches          — warp-instructions dispatched
//   * total_slots         — pipeline slots consumed (sum of congestion)
//   * warp_stall_slots    — slots warps spent ready-but-undispatched
//                           (round-robin queueing delay)
//   * pipeline_idle_slots — slots the MMU pipeline sat empty waiting for
//                           outstanding requests to drain
//
// flush_into() converts the raw vectors into labeled metrics in a
// MetricsRegistry; BankProfile renders the bank_requests vector as a
// heatmap row.

#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/stats.hpp"

namespace rapsim::telemetry {

struct RunTelemetry {
  std::vector<std::uint64_t> bank_requests;
  std::vector<std::uint64_t> bank_peak;
  util::Tally congestion;
  std::uint64_t dispatches = 0;
  std::uint64_t total_slots = 0;
  std::uint64_t warp_stall_slots = 0;
  std::uint64_t pipeline_idle_slots = 0;

  /// Clear all counters and size the per-bank vector for `width` banks.
  /// Dmm::run calls this at the start of every traced run.
  void reset(std::uint32_t width);

  /// Fraction of consumed pipeline slots in which bank `bank` carried a
  /// request (each unique request occupies its bank for one slot). 0 when
  /// nothing was dispatched.
  [[nodiscard]] double bank_occupancy(std::uint32_t bank) const noexcept;

  /// Register everything under the given labels:
  ///   counters  dmm.bank_requests{bank=b}, dmm.dispatches,
  ///             dmm.pipeline_slots, dmm.warp_stall_slots,
  ///             dmm.pipeline_idle_slots
  ///   gauges    dmm.bank_peak{bank=b} (max-merged),
  ///             dmm.bank_occupancy{bank=b}
  ///   distribution  dmm.congestion
  void flush_into(MetricsRegistry& registry, const Labels& labels) const;
};

}  // namespace rapsim::telemetry
