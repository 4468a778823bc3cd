// Memory-access congestion (the paper's central metric).
//
// The congestion of one warp access is the maximum, over banks, of the
// number of *unique* addresses the warp sends to that bank. Duplicate
// addresses merge into one request (the DMM is CRCW with arbitrary write
// resolution), so w threads reading the same cell have congestion 1
// (Figure 2(3)), while w threads reading w distinct cells of one bank have
// congestion w (Figure 2(2)). Atomics never merge. BankCounter is the
// one per-bank counter of the code base; the free functions wrap it.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/mapping.hpp"

namespace rapsim::core {

/// Per-bank load of one warp access at a time, reused across warps:
/// reset() is O(1) (64-bit epoch stamps never wrap), and nothing
/// allocates while a warp's distinct addresses fit `capacity`
/// (0 means width, one warp).
class BankCounter {
 public:
  explicit BankCounter(std::uint32_t width, std::size_t capacity = 0);

  void reset() noexcept {
    ++epoch_;
    congestion_ = 0;
    requests_ = 0;
    distinct_.clear();
  }

  /// Count one request to `bank` < width without merging. Branch-free,
  /// as banks are data-dependent: a stale stamp masks the old load away.
  void add_bank(std::uint32_t bank) noexcept {
    ++requests_;
    Bank& b = banks_[bank];
    const std::uint32_t live = 0u - std::uint32_t{b.stamp == epoch_};
    b = {epoch_, (b.load & live) + 1};
    congestion_ = std::max(congestion_, b.load);
  }

  /// Count a request to `physical` (bank physical mod width) unless the
  /// address was seen since reset() (CRCW merge). True if it was new.
  bool add_merged(std::uint64_t physical) {
    const auto bank = static_cast<std::uint32_t>(physical % width_);
    std::size_t slot = home(physical);
    while (slots_[slot].stamp == epoch_) {
      if (slots_[slot].address == physical) return false;
      slot = next(slot);
    }
    slots_[slot] = {physical, epoch_};
    distinct_.push_back(physical);
    add_bank(bank);
    if (distinct_.size() * 4 > slots_.size()) grow();
    return true;
  }

  /// Max load over banks.
  [[nodiscard]] std::uint32_t congestion() const noexcept {
    return congestion_;
  }
  /// Requests counted (merged ones excluded).
  [[nodiscard]] std::uint32_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::uint32_t load(std::uint32_t bank) const noexcept {
    return banks_[bank].stamp == epoch_ ? banks_[bank].load : 0;
  }
  /// Addresses given to add_merged, each once, in first-seen order.
  [[nodiscard]] std::span<const std::uint64_t> distinct() const noexcept {
    return distinct_;
  }

 private:
  struct Bank {
    std::uint64_t stamp = 0;  // `load` counts this warp iff stamp == epoch_
    std::uint32_t load = 0;
  };
  struct Slot {
    std::uint64_t address = 0;
    std::uint64_t stamp = 0;  // slot holds `address` iff stamp == epoch_
  };

  // Open addressing: Fibonacci hash, linear probing, load <= 1/4.
  [[nodiscard]] std::size_t home(std::uint64_t physical) const noexcept {
    return static_cast<std::size_t>((physical * 0x9e3779b97f4a7c15ull) >>
                                    shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t slot) const noexcept {
    return (slot + 1) & (slots_.size() - 1);
  }

  void grow();  // double slots_, re-insert distinct_

  std::uint32_t width_;
  std::uint64_t epoch_ = 1;
  std::uint32_t congestion_ = 0;
  std::uint32_t requests_ = 0;
  std::vector<Bank> banks_;
  std::vector<Slot> slots_;  // power-of-two size
  unsigned shift_ = 0;       // 64 - log2(slots_.size())
  std::vector<std::uint64_t> distinct_;
};

/// Per-bank unique-request counts plus the maximum (the congestion).
struct CongestionResult {
  std::uint32_t congestion = 0;          // max over banks
  std::vector<std::uint32_t> per_bank;   // unique requests per bank
  std::uint32_t unique_requests = 0;     // after CRCW merging
};

/// Congestion of a warp issuing `physical` addresses to a memory of
/// `width` banks. Duplicate addresses are merged first.
[[nodiscard]] CongestionResult congestion_of_physical(
    std::span<const std::uint64_t> physical, std::uint32_t width);

/// Congestion of a warp issuing `logical` addresses through `map`.
[[nodiscard]] CongestionResult congestion_of_logical(
    std::span<const std::uint64_t> logical, const AddressMap& map);

/// Just the max value (cheaper call for Monte-Carlo inner loops).
[[nodiscard]] std::uint32_t congestion_value(
    std::span<const std::uint64_t> logical, const AddressMap& map);

}  // namespace rapsim::core
