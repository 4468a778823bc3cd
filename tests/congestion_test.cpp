// Unit tests for core/congestion.hpp — including the paper's Figure 2
// worked examples.

#include "core/congestion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "core/mapping2d.hpp"
#include "util/rng.hpp"

namespace rapsim::core {
namespace {

// Figure 2 (1): w = 4 threads access 7, 5, 2, 0 — distinct banks 3,1,2,0.
TEST(Congestion, Figure2Example1_DistinctBanks) {
  const std::vector<std::uint64_t> addrs = {7, 5, 2, 0};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 1u);
  EXPECT_EQ(r.unique_requests, 4u);
}

// Figure 2 (2): all requests to bank 1 (addresses 1, 5, 9, 13).
TEST(Congestion, Figure2Example2_SameBank) {
  const std::vector<std::uint64_t> addrs = {1, 5, 9, 13};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 4u);
  EXPECT_EQ(r.per_bank[1], 4u);
  EXPECT_EQ(r.per_bank[0], 0u);
}

// Figure 2 (3): all threads access the same address — merged, congestion 1.
TEST(Congestion, Figure2Example3_MergedAccess) {
  const std::vector<std::uint64_t> addrs = {10, 10, 10, 10};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 1u);
  EXPECT_EQ(r.unique_requests, 1u);
}

TEST(Congestion, PartialMergeCountsUniquePerBank) {
  // Bank 0: addresses 0, 0, 4 -> 2 unique; bank 1: 1 -> 1 unique.
  const std::vector<std::uint64_t> addrs = {0, 0, 4, 1};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 2u);
  EXPECT_EQ(r.per_bank[0], 2u);
  EXPECT_EQ(r.per_bank[1], 1u);
  EXPECT_EQ(r.unique_requests, 3u);
}

TEST(Congestion, EmptyAccessHasZeroCongestion) {
  const std::vector<std::uint64_t> addrs;
  const auto r = congestion_of_physical(addrs, 8);
  EXPECT_EQ(r.congestion, 0u);
  EXPECT_EQ(r.unique_requests, 0u);
}

TEST(Congestion, SingleRequest) {
  const std::vector<std::uint64_t> addrs = {5};
  EXPECT_EQ(congestion_of_physical(addrs, 4).congestion, 1u);
}

TEST(Congestion, WidthOnePutsEverythingInOneBank) {
  const std::vector<std::uint64_t> addrs = {0, 1, 2, 3};
  EXPECT_EQ(congestion_of_physical(addrs, 1).congestion, 4u);
}

TEST(Congestion, LogicalGoesThroughMapping) {
  // RAW stride on a 4x4 matrix: column 0 -> all in bank 0.
  RawMap raw(4, 4);
  std::vector<std::uint64_t> col;
  for (std::uint64_t i = 0; i < 4; ++i) col.push_back(raw.index(i, 0));
  EXPECT_EQ(congestion_value(col, raw), 4u);

  // Same logical access through the Figure 6 RAP map: banks become
  // (0 + p_i) mod 4 = {2, 0, 3, 1} — all distinct.
  RapMap rap(4, 4, Permutation({2, 0, 3, 1}));
  EXPECT_EQ(congestion_value(col, rap), 1u);
}

TEST(Congestion, AllDuplicatesMergeToSingleRequest) {
  // A full warp (and more) hammering one cell is the paper's Figure 2(3)
  // broadcast: CRCW merging turns it into ONE request, whatever the width.
  const std::vector<std::uint64_t> addrs(64, 17);
  const auto r = congestion_of_physical(addrs, 32);
  EXPECT_EQ(r.congestion, 1u);
  EXPECT_EQ(r.unique_requests, 1u);
  EXPECT_EQ(r.per_bank[17 % 32], 1u);
}

TEST(Congestion, WidthOneMergesDuplicatesBeforeCounting) {
  // One bank, but duplicates still merge first: {5,5,5,2,2} is two
  // unique requests, not five.
  const std::vector<std::uint64_t> addrs = {5, 5, 5, 2, 2};
  const auto r = congestion_of_physical(addrs, 1);
  EXPECT_EQ(r.congestion, 2u);
  EXPECT_EQ(r.unique_requests, 2u);
  ASSERT_EQ(r.per_bank.size(), 1u);
  EXPECT_EQ(r.per_bank[0], 2u);
}

TEST(Congestion, EmptyWarpOnWidthOneMemory) {
  const std::vector<std::uint64_t> addrs;
  const auto r = congestion_of_physical(addrs, 1);
  EXPECT_EQ(r.congestion, 0u);
  EXPECT_EQ(r.unique_requests, 0u);
  ASSERT_EQ(r.per_bank.size(), 1u);
  EXPECT_EQ(r.per_bank[0], 0u);
}

TEST(Congestion, PerBankSumsToUniqueRequests) {
  const std::vector<std::uint64_t> addrs = {0, 1, 2, 3, 4, 5, 6, 7, 0, 4};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(std::accumulate(r.per_bank.begin(), r.per_bank.end(), 0u),
            r.unique_requests);
}

// --- BankCounter against a brute-force reference --------------------------

/// A seeded stream of `length` addresses over a few rows of a `width`-bank
/// memory, about a third of them forced repeats of an earlier address.
std::vector<std::uint64_t> stream_with_duplicates(util::Pcg32& rng,
                                                  std::uint32_t width,
                                                  std::uint32_t length) {
  std::vector<std::uint64_t> addrs;
  for (std::uint32_t i = 0; i < length; ++i) {
    if (!addrs.empty() && rng.bounded(3) == 0) {
      addrs.push_back(addrs[rng.bounded(static_cast<std::uint32_t>(
          addrs.size()))]);
    } else {
      addrs.push_back(rng.bounded(4 * width));
    }
  }
  return addrs;
}

/// Checks one reset()-and-count round of `counter` against sort+unique
/// plus a histogram (merged) and a plain histogram (add_bank).
void expect_matches_reference(BankCounter& counter, std::uint32_t w,
                              const std::vector<std::uint64_t>& addrs) {

  counter.reset();
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> first_seen;
  for (const std::uint64_t a : addrs) {
    const bool is_new = seen.insert(a).second;
    if (is_new) first_seen.push_back(a);
    ASSERT_EQ(counter.add_merged(a), is_new) << "address " << a;
  }
  std::vector<std::uint64_t> unique(addrs);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::vector<std::uint32_t> merged(w, 0);
  for (const std::uint64_t a : unique) ++merged[a % w];
  EXPECT_EQ(counter.requests(), unique.size());
  EXPECT_EQ(counter.congestion(),
            *std::max_element(merged.begin(), merged.end()));
  for (std::uint32_t b = 0; b < w; ++b) EXPECT_EQ(counter.load(b), merged[b]);
  EXPECT_TRUE(std::equal(counter.distinct().begin(), counter.distinct().end(),
                         first_seen.begin(), first_seen.end()));

  counter.reset();
  std::vector<std::uint32_t> plain(w, 0);
  for (const std::uint64_t a : addrs) {
    counter.add_bank(static_cast<std::uint32_t>(a % w));
    ++plain[a % w];
  }
  EXPECT_EQ(counter.requests(), addrs.size());
  EXPECT_EQ(counter.congestion(),
            *std::max_element(plain.begin(), plain.end()));
  for (std::uint32_t b = 0; b < w; ++b) EXPECT_EQ(counter.load(b), plain[b]);
  EXPECT_TRUE(counter.distinct().empty());
}

TEST(BankCounter, MatchesBruteForceAtEveryLength) {
  for (const std::uint32_t w : {1u, 3u, 4u, 32u, 256u}) {
    util::Pcg32 rng(w);
    // Default capacity is one warp: lengths past w also exercise growth.
    BankCounter counter(w);
    for (std::uint32_t length = 0; length <= 2 * w; ++length) {
      SCOPED_TRACE("w=" + std::to_string(w) +
                   " length=" + std::to_string(length));
      expect_matches_reference(counter, w,
                               stream_with_duplicates(rng, w, length));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BankCounter, TenThousandResetsLeaveNoStaleCounts) {
  const std::uint32_t w = 32;
  util::Pcg32 rng(2014);
  BankCounter counter(w);
  for (int round = 0; round < 10000; ++round) {
    const std::uint32_t length = rng.bounded(2 * w + 1);
    expect_matches_reference(counter, w,
                             stream_with_duplicates(rng, w, length));
    if (HasFailure()) {
      ADD_FAILURE() << "round " << round;
      return;
    }
  }
}

TEST(BankCounter, ResetForgetsEverything) {
  BankCounter counter(4);
  EXPECT_TRUE(counter.add_merged(6));
  EXPECT_FALSE(counter.add_merged(6));
  counter.reset();
  EXPECT_EQ(counter.congestion(), 0u);
  EXPECT_EQ(counter.requests(), 0u);
  EXPECT_EQ(counter.load(2), 0u);
  EXPECT_TRUE(counter.add_merged(6));  // new again after reset
}

// The prover counts RAW and PAD banks through the maps themselves; they
// must agree with the closed forms a % w and (a / w + a) mod w, also on
// addresses past the matrix.
TEST(BankCounter, RawAndPadBanksMatchTheirClosedForms) {
  for (const std::uint32_t w : {4u, 32u}) {
    const RawMap raw(w, w);
    const PadMap pad(w, w);
    for (std::uint64_t a = 0; a < raw.size() + 3 * w; ++a) {
      EXPECT_EQ(raw.bank_of(a), a % w) << "w=" << w << " a=" << a;
      EXPECT_EQ(pad.bank_of(a), (a / w + a) % w) << "w=" << w << " a=" << a;
    }
  }
}

}  // namespace
}  // namespace rapsim::core
