// e2ebench: the repository benchmark's executable. run.py builds it and
// runs it once per measurement:
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--quick] [--record] [--corrupt-expected]
//
// and it prints one JSON object as its last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// --trace 0 reports the end-to-end metrics: setup_s (median of several
// set-ups, each the workload's one-time work plus its checked warm-up
// round), ops_per_s, op_p50_us, op_p90_us, peak_rss_mb and success_ratio.
// --trace 1 splits --seconds into an untraced and a traced half, then
// runs one traced round of every other workload so each layer is timed,
// and reports the per-layer metrics plus the tracing overhead. Spans are
// kept in memory and written to .bench_build/e2ebench-trace.json at exit.
//
// --quick sets up once (the self-test's mode); --record prints the
// warm-up digests as expected.inc rows; --corrupt-expected flips the
// recorded digests, which must make every warm-up op fail.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

namespace e2ebench {

namespace {

constexpr std::size_t kMaxErrors = 5;
constexpr int kSetupRepeats = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile of `q` in (0, 1].
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace

void Tally::note(const OpOutcome& outcome, double latency_us) {
  ++attempted;
  latencies_us.push_back(latency_us);
  if (!outcome.ok) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(outcome.error);
  }
}

OpOutcome Workload::run_op(std::size_t, std::uint64_t, Tracer*) {
  throw std::logic_error(std::string(name()) + " defines no single op");
}

void Tally::absorb(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(e);
  }
}

Tally Workload::warm_up(bool corrupt) {
  const std::vector<std::uint64_t> want = expected();
  Tally tally;
  warm_digests_.assign(round_size(), 0);
  for (std::size_t i = 0; i < round_size(); ++i) {
    OpOutcome outcome = run_op(i, kDefaultSeed, nullptr);
    const std::size_t k = slot(i);
    warm_digests_[k] = outcome.digest;
    if (outcome.ok && !want.empty()) {
      const std::uint64_t recorded =
          k < want.size() ? want[k] ^ (corrupt ? 1ull : 0ull) : 0;
      if (outcome.digest != recorded) {
        outcome.ok = false;
        outcome.error = std::string(name()) + " op " + std::to_string(i) +
                        ": digest " + std::to_string(outcome.digest) +
                        " != recorded " + std::to_string(recorded);
      }
    }
    tally.note(outcome, 0.0);
  }
  tally.latencies_us.clear();  // warm-up ops are untimed
  return tally;
}

Tally Workload::measure(double seconds, std::uint64_t seed, Tracer* tracer) {
  // Traced ops may take another route to the same answer (table2_sweep
  // replays the trial loop on its own stream), so only untraced ops are
  // held to the recorded digests.
  const std::vector<std::uint64_t> want =
      seed == kDefaultSeed && !tracer ? expected()
                                      : std::vector<std::uint64_t>{};
  std::vector<std::uint64_t> first(round_size(), 0);
  Tally tally;
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  const Clock::time_point start = Clock::now();
  Clock::time_point window = start;
  std::size_t window_first = 0;
  for (std::uint64_t round = 0; round == 0 || ns_since(start) < budget;
       ++round) {
    for (std::size_t i = 0; i < round_size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      OpOutcome outcome = run_op(i, seed, tracer);
      const double us = static_cast<double>(ns_since(t0)) / 1e3;
      if (round == 0) first[i] = outcome.digest;
      if (outcome.ok && (outcome.digest != first[i] ||
                         (slot(i) < want.size() &&
                          outcome.digest != want[slot(i)]))) {
        outcome.ok = false;
        outcome.error = std::string(name()) + " op " + std::to_string(i) +
                        ": digest changed between rounds or differs from "
                        "the recorded one";
      }
      tally.note(outcome, us);
    }
    // Windows close on round boundaries, so each holds whole rounds and
    // the same op mix.
    if (ns_since(window) >= kWindowNs &&
        tally.latencies_us.size() - window_first >= kWindowMinOps) {
      tally.close_window(ns_since(window));
      window = Clock::now();
      window_first = tally.latencies_us.size();
    }
  }
  if (tally.window_ends.empty()) tally.close_window(ns_since(window));
  const std::size_t n = round_size();
  const std::size_t rounds = tally.latencies_us.size() / n;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> samples(rounds);
    for (std::size_t r = 0; r < rounds; ++r) {
      samples[r] = tally.latencies_us[r * n + i];
    }
    tally.op_median_us.push_back(median(std::move(samples)));
  }
  return tally;
}

std::uint64_t Tracer::total_ns(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.dur_ns;
  }
  return sum;
}

std::uint64_t Tracer::calls(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.count;
  }
  return sum;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, std::uint64_t> Tracer::self_ns_by_layer() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != Span::kNoParent) child_ns[s.parent] += s.dur_ns;
  }
  std::map<std::string, std::uint64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].dur_ns;
    // Children measured apart from their parent (re-runs of a layer
    // beside the op) can exceed it; clamp rather than go negative.
    self[spans_[i].layer] += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return self;
}

std::string Tracer::to_chrome_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ',';
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"args\":{\"calls\":" << s.count << ",\"id\":" << i
        << ",\"parent\":"
        << (s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent))
        << "}}";
  }
  out << "]}\n";
  return out.str();
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool record = false;
  bool corrupt = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--record") {
      args.record = true;
    } else if (flag == "--corrupt-expected") {
      args.corrupt = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table2_sweep", "catalog_sim", "catalog_lint", "serve_mix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "table2_sweep") return make_table2_sweep();
  if (name == "catalog_sim") return make_catalog_sim();
  if (name == "catalog_lint") return make_catalog_lint();
  if (name == "serve_mix") return make_serve_mix();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Rate, p50 and p90 of a measured stretch: the rate is the median over
/// its windows; the percentiles are taken over the per-op medians of a
/// round-based run, else are medians over the windows.
struct WindowStats {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
};

WindowStats window_stats(const Tally& t) {
  std::vector<double> rate, p50, p90;
  std::size_t begin = 0;
  for (std::size_t w = 0; w < t.window_ends.size(); ++w) {
    const std::size_t end = t.window_ends[w];
    const std::vector<double> slice(t.latencies_us.begin() + static_cast<std::ptrdiff_t>(begin),
                                    t.latencies_us.begin() + static_cast<std::ptrdiff_t>(end));
    rate.push_back(static_cast<double>(end - begin) /
                   (static_cast<double>(t.window_ns[w]) / 1e9));
    p50.push_back(percentile(slice, 0.50));
    p90.push_back(percentile(slice, 0.90));
    begin = end;
  }
  if (!t.op_median_us.empty()) {
    return {median(rate), percentile(t.op_median_us, 0.50),
            percentile(t.op_median_us, 0.90)};
  }
  return {median(rate), median(p50), median(p90)};
}

/// The process's own high-water RSS (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries it over from the parent across fork and exec, so
/// it would report run.py's interpreter for the small workloads.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

void print_result(const Tally& checks, const Metrics& metrics) {
  for (const std::string& e : checks.errors) std::cerr << "FAILED: " << e << '\n';
  std::ostringstream out;
  out << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted
      << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out << ", ";
    first = false;
    out << '"' << name << "\": {\"value\": " << fmt(metric.value)
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Set the workload up `repeats` times from scratch (each time: setup
/// plus the checked warm-up round) and keep the last instance. Returns
/// the median set-up time in seconds; warm-up checks fold into `checks`
/// from the last set-up only, so a run counts each warm-up op once.
double set_up(std::unique_ptr<Workload>& workload, const Args& args,
              int repeats, Tracer* tracer, Tally& checks) {
  std::vector<double> seconds;
  Tally warm;
  for (int r = 0; r < repeats; ++r) {
    workload.reset();  // tear the previous instance down untimed
    workload = make_workload(args.workload);
    const Clock::time_point t0 = Clock::now();
    workload->setup(args.seed, tracer);
    warm = workload->warm_up(args.corrupt);
    seconds.push_back(static_cast<double>(ns_since(t0)) / 1e9);
  }
  checks.absorb(warm);
  return median(seconds);
}

void end_to_end(const Args& args) {
  std::unique_ptr<Workload> workload;
  Tally checks;
  const double setup_s = set_up(workload, args,
                                args.quick ? 1 : kSetupRepeats, nullptr, checks);
  if (args.record) {
    for (const std::uint64_t d : workload->warm_digests()) {
      std::cout << "    0x" << std::hex << d << std::dec << "ull,\n";
    }
    return;
  }
  const Tally run = workload->measure(args.seconds, args.seed, nullptr);
  checks.absorb(run);
  Metrics m;
  m["setup_s"] = {setup_s, "s"};
  const WindowStats stats = window_stats(run);
  m["ops_per_s"] = {stats.ops_per_s, "1/s"};
  m["op_p50_us"] = {stats.p50_us, "us"};
  m["op_p90_us"] = {stats.p90_us, "us"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["success_ratio"] = {1.0 - ratio(static_cast<double>(checks.failed),
                                    static_cast<double>(checks.attempted)),
                        "ratio"};
  print_result(checks, m);
}

void traced(const Args& args) {
  Tracer tracer;
  Tally checks;
  std::unique_ptr<Workload> workload;
  set_up(workload, args, 1, &tracer, checks);
  const Tally plain = workload->measure(args.seconds / 2, args.seed, nullptr);
  const Tally with = workload->measure(args.seconds / 2, args.seed, &tracer);
  checks.absorb(plain);
  checks.absorb(with);
  Metrics m;
  workload->layer_metrics(tracer, m);
  // Every other workload runs one traced round, so each run reports
  // every layer; their spans land in the same tracer.
  for (const std::string& other : workload_names()) {
    if (other == args.workload) continue;
    Args probe = args;
    probe.workload = other;
    std::unique_ptr<Workload> w;
    set_up(w, probe, 1, &tracer, checks);
    checks.absorb(w->measure(1e-9, args.seed, &tracer));
    w->layer_metrics(tracer, m);
  }
  const auto rate = [](const Tally& t) { return window_stats(t).ops_per_s; };
  m["trace.untraced_ops_per_s"] = {rate(plain), "1/s"};
  m["trace.traced_ops_per_s"] = {rate(with), "1/s"};
  m["trace.overhead_ratio"] = {1.0 - rate(with) / rate(plain), "ratio"};
  for (const auto& [layer, ns] : tracer.self_ns_by_layer()) {
    m["self_ms." + layer] = {static_cast<double>(ns) / 1e6, "ms"};
  }
  std::ofstream(".bench_build/e2ebench-trace.json") << tracer.to_chrome_json();
  print_result(checks, m);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    const e2ebench::Args args = e2ebench::parse_args(argc, argv);
    if (args.trace) {
      e2ebench::traced(args);
    } else {
      e2ebench::end_to_end(args);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << '\n';
    return 1;
  }
}
