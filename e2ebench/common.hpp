// Shared pieces of the repository benchmark: the workload interface the
// harness drives, the in-memory span recorder of the traced run, and the
// FNV-1a digest that pins every op's output.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// The seed the recorded digests (expected.inc) were taken at. Every
/// run checks its untimed warm-up round against them, whatever --seed
/// the measured rounds use.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Incremental FNV-1a over the canonical bytes of an op's output.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  Digest& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One recorded span. Spans around calls that take tens of nanoseconds
/// are folded into one aggregate per op: `count` calls whose durations
/// sum to `dur_ns`, parented like the calls they stand for.
struct Span {
  std::string name;
  std::string layer;  // bench, core, access, replay, dmm, hier, vm, analyze, serve
  std::uint32_t parent = kNoParent;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t count = 1;
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
};

/// In-memory span and counter store of the traced run; written out once
/// at exit. A null Tracer* means "untraced": workloads test the pointer
/// and skip every span, so the untraced run pays nothing for it.
/// Single-threaded except where a workload serializes access itself.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  std::uint32_t begin(std::string name, std::string layer,
                      std::uint32_t parent = Span::kNoParent) {
    return record(std::move(name), std::move(layer), parent, 0);
  }
  void end(std::uint32_t id) {
    spans_[id].dur_ns = ns_since(epoch_) - spans_[id].start_ns;
  }
  /// A finished span measured by the caller (for spans timed on another
  /// thread, or folded aggregates).
  std::uint32_t record(std::string name, std::string layer,
                       std::uint32_t parent, std::uint64_t dur_ns,
                       std::uint64_t count = 1) {
    Span span;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.parent = parent;
    span.start_ns = ns_since(epoch_);
    span.dur_ns = dur_ns;
    span.count = count;
    spans_.push_back(std::move(span));
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void count(const std::string& name, double delta) { counters_[name] += delta; }

  /// Sum of durations and of call counts over every span named `name`.
  [[nodiscard]] std::uint64_t total_ns(std::string_view name) const;
  [[nodiscard]] std::uint64_t calls(std::string_view name) const;
  [[nodiscard]] double counter(const std::string& name) const;
  /// Self time per layer: each span's duration minus the part its
  /// children cover, summed by layer.
  [[nodiscard]] std::map<std::string, std::uint64_t> self_ns_by_layer() const;
  /// Chrome trace-event JSON of every span (aggregates as one slice).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span; a no-op when the tracer is null.
class Scoped {
 public:
  Scoped(Tracer* tracer, std::string name, std::string layer,
         std::uint32_t parent = Span::kNoParent)
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin(std::move(name), std::move(layer), parent);
  }
  ~Scoped() {
    if (tracer_) tracer_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_ = Span::kNoParent;
};

/// Outcome of one op: whether every check on its output held, and the
/// digest of that output (compared against recorded values at the
/// default seed and against the op's first measured round otherwise).
struct OpOutcome {
  bool ok = true;
  std::uint64_t digest = 0;
  std::string error;
};

/// A run's reported metrics, by name; unit alongside.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// A measured run is cut into windows of at least this long and this
/// many ops; ops_per_s (and serve_mix's percentiles) are medians over
/// windows, so a burst of interference from outside the process moves
/// one window rather than the run's figure.
inline constexpr std::uint64_t kWindowNs = 1'000'000'000;
inline constexpr std::size_t kWindowMinOps = 100;

/// What a measured stretch (or a warm-up round) did: per-op latencies in
/// completion order, the windows they fall in, ops attempted and failed,
/// and the first failures' reasons.
struct Tally {
  std::vector<double> latencies_us;
  std::vector<std::size_t> window_ends;  // one past each window's last op
  std::vector<std::uint64_t> window_ns;  // each window's wall time
  /// Round-based runs: each op's median latency over the rounds. A
  /// round repeats the same ops, so a percentile over all executions
  /// sits on the boundary between two ops' clusters whenever q times the
  /// round size is whole, and reads one op's tail; over these medians
  /// it reads that op's typical latency instead.
  std::vector<double> op_median_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr

  void note(const OpOutcome& outcome, double latency_us);
  /// Add `other`'s attempted and failed counts and its errors.
  void absorb(const Tally& other);
  void close_window(std::uint64_t ns) {
    window_ends.push_back(latencies_us.size());
    window_ns.push_back(ns);
  }
};

/// A benchmark workload. The harness owns the clock: it times setup()
/// plus warm_up(), and measure() times each op; the workload does the
/// work and checks every output.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Build every input the ops need (catalogs, traces, servers).
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;
  /// Ops in one round; a run measures whole rounds.
  [[nodiscard]] virtual std::size_t round_size() const = 0;
  /// Run op `index` of a round at `seed` and check its output. Used by
  /// the default warm_up() and measure(); a workload that overrides both
  /// need not define it.
  virtual OpOutcome run_op(std::size_t index, std::uint64_t seed,
                           Tracer* tracer);
  /// Recorded digests of the ops at kDefaultSeed, by slot (empty: the
  /// workload pins its outputs another way).
  [[nodiscard]] virtual std::vector<std::uint64_t> expected() const = 0;
  /// The recorded-digest slot of op `index`; workloads that visit their
  /// inputs in a seeded order map the op back to its input here.
  [[nodiscard]] virtual std::size_t slot(std::size_t index) const {
    return index;
  }
  /// Fold this workload's spans and counters into per-layer metrics.
  virtual void layer_metrics(const Tracer& tracer, Metrics& out) const = 0;

  /// The untimed warm-up: one round at kDefaultSeed, each op's digest
  /// checked against expected(). `corrupt` flips the expected digests
  /// (the self-test's proof that a wrong output counts as a failure).
  virtual Tally warm_up(bool corrupt);
  /// Whole rounds at `seed` until `seconds` have passed; every op is
  /// checked, and its digest must repeat the op's first-round digest
  /// (and the recorded one when seed == kDefaultSeed).
  virtual Tally measure(double seconds, std::uint64_t seed, Tracer* tracer);
  /// Digests of the last warm-up round by slot, for --record.
  [[nodiscard]] const std::vector<std::uint64_t>& warm_digests() const {
    return warm_digests_;
  }

 private:
  std::vector<std::uint64_t> warm_digests_;
};

std::unique_ptr<Workload> make_table2_sweep();
std::unique_ptr<Workload> make_catalog_sim();
std::unique_ptr<Workload> make_catalog_lint();
std::unique_ptr<Workload> make_serve_mix();

/// Helpers for layer_metrics.
inline double per_call(const Tracer& t, std::string_view name, double scale) {
  const std::uint64_t n = t.calls(name);
  return n ? static_cast<double>(t.total_ns(name)) / scale /
                 static_cast<double>(n)
           : 0.0;
}
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace e2ebench
