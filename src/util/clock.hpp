// The one monotonic clock the repository times with.
//
// Benches, telemetry's SpanTracer and the serve transport all read the
// steady clock through this header (header-only, in the bottom layer, so
// every library can share it without a link dependency). No experiment
// ever times with a wall-clock that NTP or a suspend/resume can move
// backwards.

#pragma once

#include <chrono>
#include <cstdint>

namespace rapsim::util {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// Monotonic timestamp; the only clock timing code should read.
[[nodiscard]] inline TimePoint now() noexcept { return Clock::now(); }

/// Nanoseconds from `start` to `end` (0 when end precedes start, which
/// a steady clock never produces but saturating beats wrapping).
[[nodiscard]] inline std::uint64_t elapsed_ns(TimePoint start,
                                              TimePoint end) noexcept {
  if (end <= start) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

/// Nanoseconds from `start` to now().
[[nodiscard]] inline std::uint64_t elapsed_ns(TimePoint start) noexcept {
  return elapsed_ns(start, now());
}

}  // namespace rapsim::util
