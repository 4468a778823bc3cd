#include "analyze/certificate.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/theory.hpp"
#include "telemetry/json.hpp"

namespace rapsim::analyze {

namespace {

/// Max multiplicity of the residues (c + step*t) mod w over t = 0..n-1:
/// the residues cycle with period w / gcd(step, w), so the most-visited
/// one is hit ceil(n / period) times. gcd(0, w) = w makes the constant
/// progression (period 1, multiplicity n) fall out of the same formula.
std::uint64_t progression_multiplicity(std::uint64_t n, std::uint64_t step,
                                       std::uint32_t w) {
  const std::uint64_t period = w / std::gcd(step % w, std::uint64_t{w});
  return (n + period - 1) / period;
}

/// Canonical representative of a signed step in [0, w).
std::uint64_t canonical_mod(std::int64_t step, std::uint32_t w) {
  const std::int64_t m = static_cast<std::int64_t>(w);
  return static_cast<std::uint64_t>(((step % m) + m) % m);
}

CongestionCertificate make(const AffineClass& cls, core::Scheme scheme,
                           BoundKind kind, double bound, std::string rule,
                           std::string claim) {
  CongestionCertificate cert;
  cert.scheme = scheme;
  cert.kind = kind;
  cert.bound = bound;
  cert.rule = std::move(rule);
  cert.claim = std::move(claim);
  cert.pattern = cls.describe();
  return cert;
}

CongestionCertificate exact(const AffineClass& cls, core::Scheme scheme,
                            std::uint64_t value, std::string rule,
                            std::string claim) {
  return make(cls, scheme, BoundKind::kExact, static_cast<double>(value),
              std::move(rule), std::move(claim));
}

std::string gcd_claim(const char* what, std::uint64_t step, std::uint32_t w,
                      std::uint64_t value) {
  std::ostringstream claim;
  claim << what << " step " << step << " mod " << w << " -> congestion "
        << value;
  return claim.str();
}

/// Expected-value envelope for the randomized schemes on patterns no
/// deterministic rule covers. Theorem 2 covers any access pattern under
/// RAP; the same Chernoff + union-bound machinery covers RAS (per-bank
/// loads are sums of negatively associated indicators with mean <= 1).
/// Preconditions: the Lemma 4 constants need n <= w and w >= 3; outside
/// that the certificate degrades to the trivial bound n.
CongestionCertificate randomized_envelope(const AffineClass& cls,
                                          core::Scheme scheme,
                                          const std::string& rule_suffix) {
  const std::uint64_t n = cls.threads;
  if (cls.width < 3 || n > cls.width) {
    return make(cls, scheme, BoundKind::kExpectedUpper,
                static_cast<double>(n), "trivial-upper",
                "congestion never exceeds the number of lanes");
  }
  const double envelope = std::min<double>(
      static_cast<double>(n), core::theorem2_expectation_bound(cls.width));
  std::ostringstream claim;
  claim << "expected congestion <= " << envelope
        << " (Theorem 2 envelope, 6 ln w / ln ln w + 1)";
  return make(cls, scheme, BoundKind::kExpectedUpper, envelope,
              "theorem2-" + rule_suffix, claim.str());
}

CongestionCertificate prove_affine_2d(const AffineClass& cls,
                                      core::Scheme scheme) {
  const std::uint32_t w = cls.width;
  const std::uint64_t n = cls.threads;

  if (cls.row_step == 0) {
    // One row: the columns that survive CRCW merging are distinct, and a
    // row-rotation scheme adds one common shift — banks stay distinct.
    return exact(cls, scheme, 1, "row-local",
                 "single-row access: distinct columns + a common rotation "
                 "occupy distinct banks");
  }

  // row_step != 0: the rows are distinct integers, so all n addresses are
  // distinct and nothing merges.
  switch (scheme) {
    case core::Scheme::kRaw: {
      const std::uint64_t value = progression_multiplicity(n, cls.col_step, w);
      return exact(cls, scheme, value, "raw-gcd",
                   gcd_claim("RAW bank is the column alone:", cls.col_step, w,
                             value));
    }
    case core::Scheme::kPad: {
      const std::uint64_t skewed =
          canonical_mod(cls.row_step + static_cast<std::int64_t>(cls.col_step),
                        w);
      const std::uint64_t value = progression_multiplicity(n, skewed, w);
      return exact(cls, scheme, value, "pad-gcd",
                   gcd_claim("PAD skews by the row: effective column",
                             skewed, w, value));
    }
    case core::Scheme::kRap: {
      const std::uint64_t row_residue_step = canonical_mod(cls.row_step, w);
      if (cls.col_step == 0) {
        // Column-constant access down distinct rows: distinct row residues
        // pick distinct permutation entries, hence distinct banks, for ANY
        // permutation. Congestion = the residues' multiplicity.
        const std::uint64_t value =
            progression_multiplicity(n, row_residue_step, w);
        return exact(
            cls, scheme, value, "rap-distinct-shifts",
            gcd_claim("permutation entries of distinct row residues are "
                      "distinct: row",
                      row_residue_step, w, value));
      }
      if (row_residue_step == 0) {
        // Every lane reads the same row residue: one shift applies to the
        // whole warp and the RAW gcd law takes over.
        const std::uint64_t value =
            progression_multiplicity(n, cls.col_step, w);
        return exact(cls, scheme, value, "rap-fixed-shift",
                     gcd_claim("one permutation entry shifts the whole "
                               "warp: column",
                               cls.col_step, w, value));
      }
      return randomized_envelope(cls, scheme, "affine");
    }
    case core::Scheme::kRas: {
      // Distinct rows draw independent uniform offsets, so the banks are
      // i.i.d. uniform regardless of col_step: balls in bins. Lemma 4 +
      // union bound: E[C] <= 3 ln w / ln ln w + 1 (needs n <= w, w >= 3).
      if (w < 3 || n > w) {
        return make(cls, scheme, BoundKind::kExpectedUpper,
                    static_cast<double>(n), "trivial-upper",
                    "congestion never exceeds the number of lanes");
      }
      const double envelope = std::min<double>(
          static_cast<double>(n), core::balls_in_bins_expectation_bound(w));
      std::ostringstream claim;
      claim << "independent row offsets make the banks i.i.d. uniform: "
               "E[C] <= "
            << envelope << " (Lemma 4 + union bound)";
      return make(cls, scheme, BoundKind::kExpectedUpper, envelope,
                  "ras-balls-in-bins", claim.str());
    }
    default:
      break;
  }
  throw std::invalid_argument(
      "prove_congestion: scheme must be one of RAW, PAD, RAS, RAP");
}

CongestionCertificate prove_affine_1d(const AffineClass& cls,
                                      core::Scheme scheme) {
  const std::uint32_t w = cls.width;
  const std::uint64_t n = cls.threads;
  const std::uint64_t m = cls.size;

  switch (scheme) {
    case core::Scheme::kRaw: {
      // Addresses repeat with period m / gcd(stride, m); after CRCW
      // merging the survivors are an arithmetic progression whose bank
      // multiplicity is the gcd law again. size % width == 0 guarantees
      // (x mod m) mod w == x mod w, so the mod-m wrap never moves a bank.
      const std::uint64_t g = std::gcd(cls.stride, m);
      const std::uint64_t address_period = m / g;
      std::uint64_t value = 0;
      if (n <= address_period) {
        value = progression_multiplicity(n, cls.stride, w);
      } else {
        value = progression_multiplicity(address_period, g, w);
      }
      return exact(cls, scheme, value, "raw-gcd-1d",
                   gcd_claim("flat affine stream:", cls.stride % w, w, value));
    }
    case core::Scheme::kPad: {
      // The PAD bank is not affine in the lane when the stream straddles
      // rows; count the layout's banks directly.
      std::vector<std::uint64_t> addrs(n);
      for (std::uint64_t t = 0; t < n; ++t) {
        addrs[t] = (cls.base + cls.stride * t) % m;
      }
      const core::PadMap pad(w, m / w);
      return exact(cls, scheme, core::congestion_value(addrs, pad),
                   "direct-eval",
                   "PAD banks evaluated from the closed form (i + j) mod w");
    }
    case core::Scheme::kRap:
      return randomized_envelope(cls, scheme, "flat");
    case core::Scheme::kRas:
      return randomized_envelope(cls, scheme, "flat");
    default:
      break;
  }
  throw std::invalid_argument(
      "prove_congestion: scheme must be one of RAW, PAD, RAS, RAP");
}

bool scheme_supported(core::Scheme scheme) {
  return scheme == core::Scheme::kRaw || scheme == core::Scheme::kPad ||
         scheme == core::Scheme::kRas || scheme == core::Scheme::kRap;
}

}  // namespace

std::string CongestionCertificate::to_json() const {
  telemetry::JsonWriter json;
  json.begin_object()
      .kv("scheme", core::scheme_name(scheme))
      .kv("kind", kind == BoundKind::kExact ? "exact" : "expected-upper")
      .kv("bound", bound)
      .kv("rule", rule)
      .kv("claim", claim)
      .kv("pattern", pattern)
      .end_object();
  return json.str();
}

CongestionCertificate prove_congestion(const AffineClass& cls,
                                       core::Scheme scheme) {
  if (!scheme_supported(scheme)) {
    throw std::invalid_argument(
        "prove_congestion: scheme must be one of RAW, PAD, RAS, RAP");
  }
  switch (cls.kind) {
    case AffineKind::kEmpty:
      return exact(cls, scheme, 0, "empty-warp",
                   "no active lanes, nothing is dispatched");
    case AffineKind::kConstant:
      return exact(cls, scheme, 1, "crcw-merge",
                   "all lanes share one address: CRCW merges them into a "
                   "single request");
    case AffineKind::kAffine2d:
      return prove_affine_2d(cls, scheme);
    case AffineKind::kAffine1d:
      return prove_affine_1d(cls, scheme);
    case AffineKind::kNotAffine:
      throw std::invalid_argument(
          "prove_congestion: stream is not affine (" + cls.reason +
          "); use prove_trace for arbitrary streams");
  }
  throw std::logic_error("prove_congestion: unreachable");
}

CongestionCertificate prove_trace(std::span<const std::uint64_t> trace,
                                  std::uint32_t width, std::uint64_t size,
                                  core::Scheme scheme) {
  if (!scheme_supported(scheme)) {
    throw std::invalid_argument(
        "prove_trace: scheme must be one of RAW, PAD, RAS, RAP");
  }
  const AffineClass cls = classify_warp(trace, width, size);
  if (cls.kind != AffineKind::kNotAffine) {
    return prove_congestion(cls, scheme);
  }
  if (scheme == core::Scheme::kRaw || scheme == core::Scheme::kPad) {
    // Deterministic schemes stay exactly analyzable on arbitrary streams:
    // their layouts draw no random numbers, so count bank multiplicity
    // after CRCW merging on the layout itself, without a machine.
    const auto map = core::make_matrix_map(scheme, width, size / width, 0);
    return exact(cls, scheme, core::congestion_value(trace, *map),
                 "direct-eval",
                 "banks evaluated from the scheme's closed form");
  }
  return randomized_envelope(cls, scheme, "arbitrary");
}

CongestionCertificate prove_worst_warp(
    const std::vector<std::vector<std::uint64_t>>& traces, std::uint32_t width,
    std::uint64_t size, core::Scheme scheme) {
  if (traces.empty()) {
    throw std::invalid_argument("prove_worst_warp: no traces given");
  }
  CongestionCertificate worst;
  bool all_exact = true;
  bool first = true;
  for (const auto& warp : traces) {
    CongestionCertificate cert = prove_trace(warp, width, size, scheme);
    all_exact = all_exact && cert.exact();
    if (first || cert.bound > worst.bound) {
      worst = std::move(cert);
      first = false;
    }
  }
  if (!all_exact && worst.kind == BoundKind::kExact) {
    // A mix of exact and expected bounds only supports an expected-value
    // claim for the trace as a whole.
    worst.kind = BoundKind::kExpectedUpper;
  }
  return worst;
}

}  // namespace rapsim::analyze
