#include "analyze/passes.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/congestion.hpp"
#include "core/factory.hpp"

namespace rapsim::analyze {

namespace {

using Binding = std::vector<std::uint64_t>;

/// States past this product leave the symbolic path (a user kernel with a
/// huge row_mod or width); the site is then enumerated instead.
constexpr std::uint64_t kStateCap = 1u << 16;

std::uint64_t mod_pos(std::int64_t value, std::uint64_t m) {
  const std::int64_t sm = static_cast<std::int64_t>(m);
  return static_cast<std::uint64_t>(((value % sm) + sm) % sm);
}

/// Residues a coefficient can reach: c*i mod m cycles with this period.
std::uint64_t residue_period(std::int64_t coeff, std::uint64_t m) {
  return m / std::gcd(mod_pos(coeff, m), m);
}

/// The stride-lattice closure. States are pairs (a mod ma, b mod mb)
/// encoded as a*mb + b; for flat sites mb = 1 and `a` is the base
/// address, for row/col sites `a` is the row expression's constant part
/// and `b` the column's. Returns one witness binding per reachable
/// state; bindings list every kernel variable in declaration order.
std::vector<std::optional<Binding>> reach_residues(
    const KernelDesc& kernel, std::int64_t base_a, std::int64_t base_b,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& coeffs,
    std::uint64_t ma, std::uint64_t mb) {
  const std::uint64_t states = ma * mb;
  std::vector<std::optional<Binding>> reach(states);
  reach[mod_pos(base_a, ma) * mb + mod_pos(base_b, mb)] = Binding{};

  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    const std::uint64_t trip = kernel.vars[v].count;
    const auto [ca, cb] = coeffs[v];
    const std::uint64_t pa = residue_period(ca, ma);
    const std::uint64_t pb = residue_period(cb, mb);
    const std::uint64_t period = std::lcm(pa, pb);
    const std::uint64_t limit = std::min(trip, period);
    const std::uint64_t step_a = mod_pos(ca, ma);
    const std::uint64_t step_b = mod_pos(cb, mb);

    std::vector<std::optional<Binding>> next(states);
    for (std::uint64_t s = 0; s < states; ++s) {
      if (!reach[s]) continue;
      std::uint64_t ra = s / mb;
      std::uint64_t rb = s % mb;
      for (std::uint64_t i = 0; i < limit; ++i) {
        const std::uint64_t idx = ra * mb + rb;
        if (!next[idx]) {
          Binding binding = *reach[s];
          binding.push_back(i);
          next[idx] = std::move(binding);
        }
        ra = (ra + step_a) % ma;
        rb = (rb + step_b) % mb;
      }
    }
    reach = std::move(next);
  }
  return reach;
}

/// Min/max of an affine expression over the binding box and the active
/// lanes — attained at per-variable extremes, so O(#vars).
std::pair<std::int64_t, std::int64_t> expr_interval(
    const KernelDesc& kernel, const AffineExpr& expr, std::uint32_t lanes) {
  std::int64_t lo = expr.base;
  std::int64_t hi = expr.base;
  const auto widen = [&](std::int64_t coeff, std::uint64_t count) {
    const std::int64_t span =
        coeff * static_cast<std::int64_t>(count - 1);
    if (span >= 0) {
      hi += span;
    } else {
      lo += span;
    }
  };
  widen(expr.lane_coeff, lanes);
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    widen(expr.coeff(v), kernel.vars[v].count);
  }
  return {lo, hi};
}

/// Binding attaining the expression's maximum (or minimum).
Binding extreme_binding(const KernelDesc& kernel, const AffineExpr& expr,
                        bool maximize) {
  Binding binding;
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    const bool take_top = (expr.coeff(v) > 0) == maximize;
    binding.push_back(take_top ? kernel.vars[v].count - 1 : 0);
  }
  return binding;
}

/// Prove one materialized class. Atomics need care only when addresses
/// repeat: same-address atomic requests do NOT merge (each needs its own
/// bank cycle), so the CRCW-merging rules would under-count them.
CongestionCertificate prove_class(const std::vector<std::uint64_t>& trace,
                                  std::uint32_t width, std::uint64_t size,
                                  core::Scheme scheme, AccessDir dir) {
  if (dir == AccessDir::kAtomic) {
    core::BankCounter banks(width, trace.size());
    for (const std::uint64_t a : trace) banks.add_merged(a);
    if (banks.requests() < trace.size()) {
      CongestionCertificate cert;
      cert.scheme = scheme;
      cert.pattern = "atomic stream of " + std::to_string(trace.size()) +
                     " requests with repeated addresses";
      if (banks.requests() == 1) {
        cert.kind = BoundKind::kExact;
        cert.bound = static_cast<double>(trace.size());
        cert.rule = "atomic-broadcast";
        cert.claim =
            "atomics to one address serialize: every request needs its own "
            "bank cycle under any scheme";
        return cert;
      }
      if (scheme == core::Scheme::kRaw || scheme == core::Scheme::kPad) {
        const auto map = core::make_matrix_map(scheme, width, size / width, 0);
        banks.reset();
        for (const std::uint64_t a : trace) banks.add_bank(map->bank_of(a));
        cert.kind = BoundKind::kExact;
        cert.bound = static_cast<double>(banks.congestion());
        cert.rule = "atomic-direct-eval";
        cert.claim =
            "unmerged atomic requests counted against the scheme's closed "
            "bank form";
        return cert;
      }
      cert.kind = BoundKind::kExpectedUpper;
      cert.bound = static_cast<double>(trace.size());
      cert.rule = "atomic-trivial-upper";
      cert.claim =
          "repeated-address atomics under a randomized scheme: congestion "
          "never exceeds the request count";
      return cert;
    }
  }
  // Loads/stores, and atomics whose addresses are pairwise distinct (no
  // merging can occur, so the merge-based rules are exact).
  return prove_trace(trace, width, size, scheme);
}

CongestionCertificate out_of_bounds_certificate(core::Scheme scheme,
                                                std::uint32_t lanes,
                                                std::int64_t lo,
                                                std::int64_t hi,
                                                std::uint64_t size) {
  CongestionCertificate cert;
  cert.scheme = scheme;
  cert.kind = BoundKind::kExpectedUpper;
  cert.bound = static_cast<double>(lanes);
  cert.rule = "out-of-bounds";
  std::ostringstream claim;
  claim << "some binding addresses [" << lo << ", " << hi
        << "], outside the " << size << "-word memory; congestion is "
        << "bounded only by the lane count";
  cert.claim = claim.str();
  cert.pattern = "out-of-bounds access site";
  return cert;
}

void record_witness(const KernelDesc& kernel, SiteAnalysis& analysis,
                    const Binding& binding,
                    const std::vector<std::int64_t>& trace) {
  analysis.witness.clear();
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    analysis.witness.emplace_back(kernel.vars[v].name,
                                  v < binding.size() ? binding[v] : 0);
  }
  analysis.witness_trace.assign(trace.begin(), trace.end());
}

/// Fold one proven class into the running worst, mirroring the
/// prove_worst_warp convention: the bound is the max, the kind is exact
/// only if every class is exact.
struct WorstTracker {
  CongestionCertificate cert;
  Binding binding;
  std::vector<std::int64_t> trace;
  bool all_exact = true;
  bool first = true;

  void fold(CongestionCertificate candidate, const Binding& b,
            const std::vector<std::int64_t>& t) {
    all_exact = all_exact && candidate.exact();
    if (first || candidate.bound > cert.bound) {
      cert = std::move(candidate);
      binding = b;
      trace = t;
      first = false;
    }
  }
  void finish() {
    if (!all_exact && cert.kind == BoundKind::kExact) {
      cert.kind = BoundKind::kExpectedUpper;
    }
  }
};

bool scheme_supported(core::Scheme scheme) {
  return scheme == core::Scheme::kRaw || scheme == core::Scheme::kPad ||
         scheme == core::Scheme::kRas || scheme == core::Scheme::kRap;
}

void require_valid(const KernelDesc& kernel, core::Scheme scheme) {
  if (!scheme_supported(scheme)) {
    throw std::invalid_argument(
        "analyze_kernel: scheme must be one of RAW, PAD, RAS, RAP");
  }
  const auto errors = validate_kernel(kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("analyze_kernel: kernel '" + kernel.name +
                                "' is invalid: " + errors.front());
  }
}

/// Deterministic stratified sample of `want` values from [0, count):
/// always includes both endpoints, spreads the rest evenly.
std::vector<std::uint64_t> sample_values(std::uint64_t count,
                                         std::uint64_t want) {
  std::vector<std::uint64_t> values;
  if (want >= count) {
    for (std::uint64_t i = 0; i < count; ++i) values.push_back(i);
    return values;
  }
  for (std::uint64_t k = 0; k < want; ++k) {
    values.push_back(k * (count - 1) / (want - 1));
  }
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

SiteAnalysis analyze_site_enumerated(const KernelDesc& kernel,
                                     const AccessSite& site,
                                     core::Scheme scheme) {
  SiteAnalysis analysis;
  analysis.site = site.name;
  analysis.dir = site.dir;
  analysis.binding_count = kernel.binding_count();

  // Per-variable value lists; halve the largest until the product fits.
  std::vector<std::uint64_t> counts;
  counts.reserve(kernel.vars.size());
  for (const LoopVar& var : kernel.vars) counts.push_back(var.count);
  const auto product = [&] {
    std::uint64_t p = 1;
    for (const std::uint64_t c : counts) {
      if (c != 0 && p > kEnumerationCap * 4 / c) return kEnumerationCap + 1;
      p *= c;
    }
    return p;
  };
  bool sampled = false;
  while (product() > kEnumerationCap) {
    auto widest = std::max_element(counts.begin(), counts.end());
    if (*widest <= 2) break;
    *widest = (*widest + 1) / 2;
    sampled = true;
  }
  analysis.coverage = sampled ? Coverage::kSampled : Coverage::kEnumerated;

  std::vector<std::vector<std::uint64_t>> values;
  values.reserve(kernel.vars.size());
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    values.push_back(sample_values(kernel.vars[v].count, counts[v]));
  }

  const std::uint64_t size = kernel.size();
  std::map<std::vector<std::int64_t>, Binding> classes;
  Binding odometer(kernel.vars.size(), 0);
  bool done = false;
  while (!done) {
    Binding binding;
    binding.reserve(kernel.vars.size());
    for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
      binding.push_back(values[v][odometer[v]]);
    }
    classes.emplace(materialize_site(kernel, site, binding), binding);

    done = true;
    for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
      if (++odometer[v] < values[v].size()) {
        done = false;
        break;
      }
      odometer[v] = 0;
    }
    if (kernel.vars.empty()) break;
  }

  WorstTracker worst;
  const std::uint32_t lanes = site.lanes == 0 ? kernel.width : site.lanes;
  for (const auto& [trace, binding] : classes) {
    const auto bad = std::find_if(trace.begin(), trace.end(), [&](auto a) {
      return a < 0 || static_cast<std::uint64_t>(a) >= size;
    });
    if (bad != trace.end()) {
      if (!analysis.out_of_bounds) {
        analysis.out_of_bounds = true;
        analysis.address_low = *std::min_element(trace.begin(), trace.end());
        analysis.address_high = *std::max_element(trace.begin(), trace.end());
        worst.fold(out_of_bounds_certificate(scheme, lanes,
                                             analysis.address_low,
                                             analysis.address_high, size),
                   binding, trace);
      }
      continue;
    }
    const std::vector<std::uint64_t> addrs(trace.begin(), trace.end());
    worst.fold(prove_class(addrs, kernel.width, size, scheme, site.dir),
               binding, trace);
  }
  analysis.classes_analyzed = classes.size();
  worst.finish();
  if (sampled && worst.cert.kind == BoundKind::kExact) {
    // An exact claim needs every binding; a sample only observed a max.
    worst.cert.kind = BoundKind::kExpectedUpper;
    worst.cert.claim += " (sampled bindings; coverage is not exhaustive)";
  }
  analysis.cert = std::move(worst.cert);
  record_witness(kernel, analysis, worst.binding, worst.trace);
  return analysis;
}

SiteAnalysis analyze_site_symbolic(const KernelDesc& kernel,
                                   const AccessSite& site,
                                   core::Scheme scheme) {
  SiteAnalysis analysis;
  analysis.site = site.name;
  analysis.dir = site.dir;
  analysis.coverage = Coverage::kSymbolic;
  analysis.binding_count = kernel.binding_count();

  const std::uint32_t w = kernel.width;
  const std::uint32_t lanes = site.lanes == 0 ? w : site.lanes;
  const std::uint64_t size = kernel.size();

  // Interval pass: decide out-of-bounds before trusting residues (the
  // lattice collapses absolute addresses, so it cannot see bounds).
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  AffineExpr oob_probe;  // expression whose extreme binding witnesses OOB
  if (site.form == IndexForm::kFlat) {
    std::tie(lo, hi) = expr_interval(kernel, site.flat, lanes);
    oob_probe = site.flat;
  } else if (site.row_mod != 0) {
    lo = site.row_base * static_cast<std::int64_t>(w);
    hi = (site.row_base + static_cast<std::int64_t>(site.row_mod)) *
             static_cast<std::int64_t>(w) -
         1;
    oob_probe = site.row;
  } else {
    const auto [row_lo, row_hi] = expr_interval(kernel, site.row, lanes);
    lo = (row_lo + site.row_base) * static_cast<std::int64_t>(w);
    hi = (row_hi + site.row_base + 1) * static_cast<std::int64_t>(w) - 1;
    oob_probe = site.row;
  }
  analysis.address_low = lo;
  analysis.address_high = hi;
  if (lo < 0 || hi >= static_cast<std::int64_t>(size)) {
    analysis.out_of_bounds = true;
    analysis.cert = out_of_bounds_certificate(scheme, lanes, lo, hi, size);
    const Binding binding =
        extreme_binding(kernel, oob_probe, /*maximize=*/hi >= 0);
    record_witness(kernel, analysis, binding,
                   materialize_site(kernel, site, binding));
    analysis.classes_analyzed = 0;
    return analysis;
  }

  // Stride-lattice pass: one representative binding per residue class.
  std::vector<std::pair<std::int64_t, std::int64_t>> coeffs;
  std::int64_t base_a = 0;
  std::int64_t base_b = 0;
  std::uint64_t ma = 1;
  std::uint64_t mb = 1;
  if (site.form == IndexForm::kFlat) {
    // Bank behaviour is periodic in the base address with period w^2.
    ma = static_cast<std::uint64_t>(w) * w;
    base_a = site.flat.base;
    for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
      coeffs.emplace_back(site.flat.coeff(v), 0);
    }
  } else {
    // Row and column constants evolve jointly over the bindings.
    ma = site.row_mod != 0 ? site.row_mod : w;
    mb = w;
    base_a = site.row.base;
    base_b = site.col.base;
    for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
      coeffs.emplace_back(site.row.coeff(v), site.col.coeff(v));
    }
  }

  const auto reach =
      reach_residues(kernel, base_a, base_b, coeffs, ma, mb);

  WorstTracker worst;
  for (const auto& entry : reach) {
    if (!entry) continue;
    ++analysis.classes_analyzed;
    const std::vector<std::int64_t> trace =
        materialize_site(kernel, site, *entry);
    const std::vector<std::uint64_t> addrs(trace.begin(), trace.end());
    worst.fold(prove_class(addrs, w, size, scheme, site.dir), *entry, trace);
  }
  worst.finish();
  analysis.cert = std::move(worst.cert);
  record_witness(kernel, analysis, worst.binding, worst.trace);
  return analysis;
}

bool symbolic_applicable(const KernelDesc& kernel, const AccessSite& site) {
  if (site.form == IndexForm::kOpaque) return false;
  const std::uint64_t w = kernel.width;
  const std::uint64_t states =
      site.form == IndexForm::kFlat
          ? w * w
          : (site.row_mod != 0 ? site.row_mod : w) * w;
  return states <= kStateCap;
}

}  // namespace

const char* coverage_name(Coverage coverage) noexcept {
  switch (coverage) {
    case Coverage::kSymbolic: return "symbolic";
    case Coverage::kEnumerated: return "enumerated";
    case Coverage::kSampled: return "sampled";
  }
  return "?";
}

SiteAnalysis analyze_site(const KernelDesc& kernel, const AccessSite& site,
                          core::Scheme scheme) {
  require_valid(kernel, scheme);
  return symbolic_applicable(kernel, site)
             ? analyze_site_symbolic(kernel, site, scheme)
             : analyze_site_enumerated(kernel, site, scheme);
}

KernelAnalysis analyze_kernel(const KernelDesc& kernel, core::Scheme scheme) {
  require_valid(kernel, scheme);
  KernelAnalysis analysis;
  analysis.kernel = kernel.name;
  analysis.width = kernel.width;
  analysis.rows = kernel.rows;
  analysis.scheme = scheme;

  bool all_exact = true;
  bool first = true;
  for (const AccessSite& site : kernel.sites) {
    SiteAnalysis sa = symbolic_applicable(kernel, site)
                          ? analyze_site_symbolic(kernel, site, scheme)
                          : analyze_site_enumerated(kernel, site, scheme);
    analysis.any_out_of_bounds =
        analysis.any_out_of_bounds || sa.out_of_bounds;
    all_exact = all_exact && sa.cert.exact();
    if (first || sa.cert.bound > analysis.worst.bound) {
      analysis.worst = sa.cert;
      analysis.worst_site = analysis.sites.size();
      first = false;
    }
    analysis.sites.push_back(std::move(sa));
  }
  if (!all_exact && analysis.worst.kind == BoundKind::kExact) {
    // Same convention as prove_worst_warp: a mix of exact and expected
    // per-site bounds only supports an expected-value claim overall.
    analysis.worst.kind = BoundKind::kExpectedUpper;
  }
  return analysis;
}

std::vector<std::vector<std::uint64_t>> enumerate_warp_traces(
    const KernelDesc& kernel, std::size_t max_traces) {
  const auto errors = validate_kernel(kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("enumerate_warp_traces: kernel '" +
                                kernel.name + "' is invalid: " +
                                errors.front());
  }
  const std::uint64_t size = kernel.size();
  std::vector<std::vector<std::uint64_t>> traces;
  for (const AccessSite& site : kernel.sites) {
    if (traces.size() >= max_traces) break;
    // RAW is cheap and scheme-independent here: we only need the
    // materialized classes, which do not depend on the scheme.
    const SiteAnalysis sa = symbolic_applicable(kernel, site)
                                ? analyze_site_symbolic(kernel, site,
                                                        core::Scheme::kRaw)
                                : analyze_site_enumerated(
                                      kernel, site, core::Scheme::kRaw);
    if (sa.out_of_bounds) continue;
    // Re-enumerate the classes to materialize each one (the analysis
    // keeps only the worst witness); the class count is small.
    if (symbolic_applicable(kernel, site)) {
      std::vector<std::pair<std::int64_t, std::int64_t>> coeffs;
      std::int64_t base_a = 0;
      std::int64_t base_b = 0;
      std::uint64_t ma = 1;
      std::uint64_t mb = 1;
      if (site.form == IndexForm::kFlat) {
        ma = static_cast<std::uint64_t>(kernel.width) * kernel.width;
        base_a = site.flat.base;
        for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
          coeffs.emplace_back(site.flat.coeff(v), 0);
        }
      } else {
        ma = site.row_mod != 0 ? site.row_mod : kernel.width;
        mb = kernel.width;
        base_a = site.row.base;
        base_b = site.col.base;
        for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
          coeffs.emplace_back(site.row.coeff(v), site.col.coeff(v));
        }
      }
      for (const auto& entry :
           reach_residues(kernel, base_a, base_b, coeffs, ma, mb)) {
        if (!entry) continue;
        if (traces.size() >= max_traces) break;
        const auto trace = materialize_site(kernel, site, *entry);
        if (std::any_of(trace.begin(), trace.end(), [&](auto a) {
              return a < 0 || static_cast<std::uint64_t>(a) >= size;
            })) {
          continue;
        }
        traces.emplace_back(trace.begin(), trace.end());
      }
    } else if (!sa.witness_trace.empty()) {
      traces.push_back(sa.witness_trace);
    }
  }
  return traces;
}

}  // namespace rapsim::analyze
