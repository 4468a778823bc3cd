// catalog_lint: the 17-kernel lint catalog (tools/builtin_kernels) at
// w in {16, 32}. One op is one analyze::lint_kernel call under RAW with
// synthesis and the race pass on — what `rapsim-lint --synthesize` runs
// — plus rendering its JSON report.
//
// `vm` (set-up: the catalog's VM-program members are assembled and
// extracted) and `analyze` do the work; no simulator runs. Op costs span
// about two orders of magnitude (the sorting programs against the small
// transposes), so op_p50_us follows the cheap kernels and op_p90_us and
// ops_per_s the expensive ones. Every site of this catalog closes
// symbolically at present; analyze.enumerated_kernels counts the kernels
// that need enumeration, should that change. --seed only sets the order
// the run visits the catalog in; synthesis keeps its own default seed so
// the recorded bounds and witness kinds hold at every --seed.
#include <algorithm>
#include <string>

#include "analyze/lint.hpp"
#include "analyze/passes.hpp"
#include "analyze/race.hpp"
#include "analyze/synth.hpp"
#include "builtin_kernels.hpp"
#include "common.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"

namespace e2ebench {

namespace {

namespace an = rapsim::analyze;

constexpr std::uint32_t kWidths[] = {16, 32};

constexpr std::uint64_t kExpected[] = {
#include "expected_catalog_lint.inc"
};

an::LintOptions lint_options() {
  an::LintOptions options;
  options.synthesize = true;
  options.races = true;
  return options;
}

/// A kernel whose closure had to materialize bindings (opaque sites or
/// small nests) rather than close them symbolically.
bool enumerated(const an::KernelAnalysis& analysis) {
  return std::any_of(analysis.sites.begin(), analysis.sites.end(),
                     [](const an::SiteAnalysis& s) {
                       return s.coverage != an::Coverage::kSymbolic;
                     });
}

/// The claims a lint report makes: every site's certified bound, rule
/// and coverage, the synthesized mapping with its bound and witness, and
/// the race verdict. Message wording is left out on purpose.
std::uint64_t report_digest(const an::LintReport& r) {
  Digest d;
  d.add(r.kernel).add(std::uint64_t{r.width}).add(r.rows)
      .add(r.worst.bound).add(r.worst.rule);
  for (const an::Diagnostic& diag : r.diagnostics) {
    d.add(diag.site).add(static_cast<std::uint64_t>(diag.severity))
        .add(diag.analysis.cert.bound).add(diag.analysis.cert.rule)
        .add(static_cast<std::uint64_t>(diag.analysis.coverage))
        .add(static_cast<std::uint64_t>(diag.fixits.size()));
  }
  if (r.synthesis) {
    d.add(r.synthesis->mapping.spec()).add(r.synthesis->certificate.bound)
        .add(an::witness_kind_name(r.synthesis->witness.kind))
        .add(r.synthesis->witness.reason);
  }
  if (r.races) {
    d.add(std::uint64_t{r.races->race_free()})
        .add(static_cast<std::uint64_t>(r.races->findings.size()));
  }
  return d.value();
}

class CatalogLint final : public Workload {
 public:
  const char* name() const override { return "catalog_lint"; }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    const Scoped span(tracer, "catalog_lint.setup", "bench");
    for (const std::uint32_t w : kWidths) {
      for (auto& k : rapsim::tools::builtin_kernels(w)) {
        kernels_.push_back(std::move(k));
      }
      if (tracer) trace_vm(w, *tracer, span.id());
    }
    // One seeded visiting order for every round of the run.
    order_.resize(kernels_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    rapsim::util::Pcg32 rng(seed ^ 0x6c696e74ull, 0);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1],
                order_[rng.bounded(static_cast<std::uint32_t>(i))]);
    }
  }

  std::size_t round_size() const override { return kernels_.size(); }

  std::vector<std::uint64_t> expected() const override {
    return {std::begin(kExpected), std::end(kExpected)};
  }

  std::size_t slot(std::size_t index) const override { return order_[index]; }

  OpOutcome run_op(std::size_t index, std::uint64_t,
                   Tracer* tracer) override {
    return lint_op(kernels_[order_[index]], tracer);
  }

  void layer_metrics(const Tracer& t, Metrics& m) const override {
    m["vm.assemble_us"] = {per_call(t, "vm.assemble", 1e3), "us"};
    m["vm.extract_us"] = {per_call(t, "vm.extract", 1e3), "us"};
    m["vm.lower_us"] = {per_call(t, "vm.lower", 1e3), "us"};
    m["analyze.closure_us"] = {per_call(t, "analyze.closure", 1e3), "us"};
    m["analyze.enumerated_kernels"] = {t.counter("analyze.enumerated_kernels"),
                                       "count"};
    m["analyze.race_us"] = {per_call(t, "analyze.race", 1e3), "us"};
    m["analyze.synth_us"] = {per_call(t, "analyze.synth", 1e3), "us"};
    m["analyze.certify_us"] = {per_call(t, "analyze.certify", 1e3), "us"};
    m["analyze.render_us"] = {per_call(t, "analyze.render", 1e3), "us"};
    m["analyze.lint_us"] = {per_call(t, "analyze.lint", 1e3), "us"};
    const double tried = t.counter("analyze.synth_candidates");
    m["analyze.synth_pruned_ratio"] = {
        ratio(t.counter("analyze.synth_pruned"), tried), "ratio"};
    const double calls = static_cast<double>(t.calls("analyze.synth"));
    m["analyze.synth_candidates"] = {ratio(tried, calls), "count"};
    m["analyze.synth_classes"] = {ratio(t.counter("analyze.synth_classes"), calls),
                                  "count"};
  }

 private:
  OpOutcome lint_op(const an::KernelDesc& kernel, Tracer* tracer) {
    const Scoped op(tracer, "catalog_lint.op", "bench");
    if (tracer) trace_parts(kernel, *tracer, op.id());
    an::LintReport report;
    {
      const Scoped span(tracer, "analyze.lint", "analyze", op.id());
      report = an::lint_kernel(kernel, rapsim::core::Scheme::kRaw,
                               lint_options());
    }
    std::string json;
    {
      const Scoped span(tracer, "analyze.render", "analyze", op.id());
      json = an::lint_report_json(report);
    }
    OpOutcome out;
    out.digest = report_digest(report);
    if (json.empty() || !report.synthesis || !report.races ||
        report.diagnostics.size() != kernel.sites.size()) {
      out.ok = false;
      out.error = "catalog_lint " + kernel.name + "/w" +
                  std::to_string(kernel.width) + ": incomplete report";
    } else if (report.synthesis->certificate.bound >
               report.synthesis->baseline_bound) {
      out.ok = false;
      out.error = "catalog_lint " + kernel.name + ": synthesized bound " +
                  "exceeds the RAW bound it should improve on";
    }
    return out;
  }

  /// The traced op also calls the passes lint_kernel runs, one span each.
  static void trace_parts(const an::KernelDesc& kernel, Tracer& tracer,
                          std::uint32_t parent) {
    const Clock::time_point t0 = Clock::now();
    const an::KernelAnalysis analysis =
        an::analyze_kernel(kernel, rapsim::core::Scheme::kRaw);
    tracer.record("analyze.closure", "analyze", parent, ns_since(t0));
    tracer.count("analyze.enumerated_kernels", enumerated(analysis) ? 1 : 0);
    {
      const Scoped span(&tracer, "analyze.race", "analyze", parent);
      (void)an::analyze_races(kernel);
    }
    an::SynthesisResult synth;
    {
      const Scoped span(&tracer, "analyze.synth", "analyze", parent);
      synth = an::synthesize_mapping(kernel, lint_options().synth);
    }
    tracer.count("analyze.synth_candidates",
                 static_cast<double>(synth.witness.evaluated + synth.witness.pruned));
    tracer.count("analyze.synth_pruned", static_cast<double>(synth.witness.pruned));
    tracer.count("analyze.synth_classes", static_cast<double>(synth.classes));
    const Scoped span(&tracer, "analyze.certify", "analyze", parent);
    (void)an::certify_mapping(kernel, synth.mapping);
  }

  /// VM front end of the catalog's program members, timed per stage.
  static void trace_vm(std::uint32_t width, Tracer& tracer,
                       std::uint32_t parent) {
    for (const auto& program : rapsim::vm::suite_programs(width)) {
      rapsim::vm::Program assembled;
      {
        const Scoped span(&tracer, "vm.assemble", "vm", parent);
        assembled = rapsim::vm::assemble(program.text, width);
      }
      {
        const Scoped span(&tracer, "vm.extract", "vm", parent);
        (void)rapsim::vm::extract_kernel(assembled);
      }
      const Scoped span(&tracer, "vm.lower", "vm", parent);
      (void)rapsim::vm::lower_program(assembled);
    }
  }

  std::vector<an::KernelDesc> kernels_;
  std::vector<std::size_t> order_;
};

}  // namespace

std::unique_ptr<Workload> make_catalog_lint() {
  return std::make_unique<CatalogLint>();
}

}  // namespace e2ebench
