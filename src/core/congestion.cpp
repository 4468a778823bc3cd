#include "core/congestion.hpp"

#include <bit>

namespace rapsim::core {

BankCounter::BankCounter(std::uint32_t width, std::size_t capacity)
    : width_(width), banks_(width) {
  if (capacity == 0) capacity = std::max<std::size_t>(width, 1);
  slots_.resize(std::bit_ceil(4 * capacity));
  shift_ = 64u - static_cast<unsigned>(std::countr_zero(slots_.size()));
  distinct_.reserve(capacity);
}

void BankCounter::grow() {
  slots_.assign(slots_.size() * 2, Slot{});
  --shift_;
  for (const std::uint64_t physical : distinct_) {
    std::size_t slot = home(physical);
    while (slots_[slot].stamp == epoch_) slot = next(slot);
    slots_[slot] = {physical, epoch_};
  }
}

namespace {

BankCounter count_merged(std::span<const std::uint64_t> physical,
                         std::uint32_t width) {
  BankCounter banks(width, physical.size());
  for (const std::uint64_t addr : physical) banks.add_merged(addr);
  return banks;
}

/// Translating the whole warp before counting lets the translations'
/// divisions overlap instead of waiting on the counter's branches.
std::vector<std::uint64_t> translate_all(
    std::span<const std::uint64_t> logical, const AddressMap& map) {
  std::vector<std::uint64_t> physical(logical.size());
  for (std::size_t i = 0; i < logical.size(); ++i) {
    physical[i] = map.translate(logical[i]);
  }
  return physical;
}

}  // namespace

CongestionResult congestion_of_physical(
    std::span<const std::uint64_t> physical, std::uint32_t width) {
  const BankCounter banks = count_merged(physical, width);
  CongestionResult result{banks.congestion(),
                          std::vector<std::uint32_t>(width),
                          banks.requests()};
  for (std::uint32_t b = 0; b < width; ++b) result.per_bank[b] = banks.load(b);
  return result;
}

CongestionResult congestion_of_logical(std::span<const std::uint64_t> logical,
                                       const AddressMap& map) {
  return congestion_of_physical(translate_all(logical, map), map.width());
}

std::uint32_t congestion_value(std::span<const std::uint64_t> logical,
                               const AddressMap& map) {
  return count_merged(translate_all(logical, map), map.width()).congestion();
}

}  // namespace rapsim::core
