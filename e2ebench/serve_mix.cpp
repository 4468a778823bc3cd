// serve_mix: an in-process serve::Server on a Unix-domain socket with 2
// worker threads (set here, never derived from the hardware) and 2
// closed-loop serve::Client connections, each on its own thread.
//
// Each client's seeded request stream cycles certify / lint (small
// transpose kernels) / replay (inline traces). Every other request of a
// method repeats one of that client's last few served identities, so it
// hits the response cache; the rest are new. On a hit the `serve` layer
// (JSON parse, cache, transport) is the whole cost; on a miss it is a
// thin shell around `analyze` and `replay`, so a change that helps one
// path and hurts the other shows here. This is the only workload that
// touches `serve`. Set-up is server start, connect, and one warm-up
// round per client in an identity namespace the measured rounds never
// use.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "serve/client.hpp"
#include "serve/jsonvalue.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace {

namespace sv = rapsim::serve;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRoundPerClient = 24;
constexpr std::size_t kRecent = 8;  // repeat pool per method, per client
// The warm-up runs this many rounds per client, both clients at once as
// in the measured run: enough requests that set-up times the serving
// path rather than thread start-up.
constexpr std::size_t kWarmRounds = 60;
constexpr std::array<const char*, 3> kMethods = {"certify", "lint", "replay"};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
  }
  return out + '"';
}

/// One client's request stream: seeded content, a repeat pool per
/// method, and the first result bytes seen for every identity.
class Stream {
 public:
  /// Streams of different namespaces never share an identity.
  Stream(std::string ns, std::uint64_t seed, std::size_t client)
      : ns_(std::move(ns)), rng_(seed ^ rapsim::util::fnv1a(ns_), client * 2 + 1),
        client_(client) {}

  /// Next request line and its method index.
  std::pair<std::string, std::size_t> next() {
    const std::size_t i = count_++;
    const std::size_t method = i % kMethods.size();
    auto& pool = recent_[method];
    const bool repeat = (i / kMethods.size()) % 2 == 1 && !pool.empty();
    std::string params =
        repeat ? pool[rng_.bounded(static_cast<std::uint32_t>(pool.size()))]
               : fresh(method, i);
    return {"{\"id\":" + std::to_string(i) + ",\"method\":\"" +
                kMethods[method] + "\",\"params\":" + params + "}",
            method};
  }

  /// Check one response; remember a new identity once it has been served.
  bool check(const std::string& line, std::size_t method,
             const sv::ClientResponse& r, std::string& error) {
    if (!r.ok) {
      error = std::string("serve_mix ") + kMethods[method] + ": error " +
              std::to_string(r.error_code) + " " + r.error_message;
      return false;
    }
    std::string params = line.substr(line.find("\"params\":") + 9);
    params.pop_back();  // the request's closing brace
    auto& pool = recent_[method];
    const auto it = first_.find(params);
    if (it != first_.end()) {
      if (it->second == r.result_json) return true;
      error = std::string("serve_mix ") + kMethods[method] +
              ": cached result differs from the first response";
      return false;
    }
    // Only identities in a repeat pool can come back, so only they keep
    // their first result bytes.
    if (pool.size() == kRecent) {
      first_.erase(pool.front());
      pool.erase(pool.begin());
    }
    pool.push_back(params);
    first_.emplace(std::move(params), r.result_json);
    return true;
  }

 private:
  std::string fresh(std::size_t method, std::size_t i) {
    std::ostringstream p;
    if (method == 0) {  // certify: four warps of strided addresses
      p << R"({"scheme":"rap","width":32,"addresses":[)";
      for (int w = 0; w < 4; ++w) {
        const std::uint64_t stride = 1 + rng_.bounded(64);
        const std::uint64_t base = rng_.bounded(1024);
        p << (w ? ",[" : "[");
        for (std::uint64_t lane = 0; lane < 32; ++lane) {
          p << (lane ? "," : "") << base + lane * stride;
        }
        p << ']';
      }
      p << "]}";
    } else if (method == 1) {  // lint: a transpose with a seeded stride
      std::ostringstream k;
      k << "kernel " << ns_ << "-" << client_ << "-" << i
        << "\nwidth 16\nrows 64\nvar u 16\n"
        << "site read-A load flat lane=1 u=16\n"
        << "site write-B store flat lane=" << 1 + rng_.bounded(32)
        << " u=1 const=256\n";
      p << R"({"scheme":"raw","width":16,"kernel":)" << json_string(k.str())
        << '}';
    } else {  // replay: an inline 4-warp trace under a seeded RAP draw
      std::ostringstream t;
      t << "rapsim-trace v1\nwidth 16\nthreads 64\nsize 1024\n";
      for (int instr = 0; instr < 8; ++instr) {
        const std::uint64_t stride = 1 + rng_.bounded(32);
        const std::uint64_t base = rng_.bounded(1024);
        t << (instr % 2 ? "write " : "read ") << instr << ' ' << instr % 4
          << " ffff";
        for (std::uint64_t lane = 0; lane < 16; ++lane) {
          t << ' ' << (base + lane * stride) % 1024;
        }
        t << '\n';
      }
      t << "end\n";
      p << R"({"scheme":"rap","seed":)" << 1 + rng_.bounded(1u << 30)
        << R"(,"trace":)" << json_string(t.str()) << '}';
    }
    return p.str();
  }

  std::string ns_;
  rapsim::util::Pcg32 rng_;
  std::size_t client_;
  std::size_t count_ = 0;
  std::array<std::vector<std::string>, kMethods.size()> recent_;
  std::map<std::string, std::string> first_;
};

/// Per-client span sums of a traced run, merged after the threads join.
struct ClientTrace {
  std::array<std::uint64_t, kMethods.size()> parse_ns{};
  std::array<std::uint64_t, kMethods.size()> parse_n{};
  std::uint64_t hit_ns = 0, hit_n = 0, miss_ns = 0, miss_n = 0;
  std::uint64_t roundtrip_ns = 0, roundtrip_n = 0;
};

class ServeMix final : public Workload {
 public:
  ServeMix() = default;
  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;
  ~ServeMix() override {
    clients_.clear();  // close connections before the server drains
    if (server_) server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
  }

  const char* name() const override { return "serve_mix"; }

  void setup(std::uint64_t, Tracer* tracer) override {
    const Scoped span(tracer, "serve_mix.setup", "bench");
    sv::ServerConfig config;
    // Relative, so the socket stays inside the checkout and under the
    // sun_path length limit wherever the checkout lives.
    config.endpoint.path =
        ".bench_build/e2ebench-" + std::to_string(::getpid()) + ".sock";
    config.service.workers = kWorkers;
    server_ = std::make_unique<sv::Server>(config);
    server_thread_ = std::thread([this] { server_->run(); });
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<sv::Client>(server_->endpoint()));
      warm_.emplace_back("warm", kDefaultSeed, c);
    }
    if (tracer) {
      sv::ServiceConfig engine;
      engine.workers = kWorkers;
      engine_ = std::make_unique<sv::Service>(engine);
    }
  }

  std::size_t round_size() const override { return kRoundPerClient * kClients; }
  std::vector<std::uint64_t> expected() const override { return {}; }

  Tally warm_up(bool) override {
    Tally tally = drive(warm_, kWarmRounds, 0, nullptr);
    tally.latencies_us.clear();  // warm-up requests are untimed
    tally.window_ends.clear();
    tally.window_ns.clear();
    return tally;
  }

  Tally measure(double seconds, std::uint64_t seed, Tracer* tracer) override {
    const std::array<double, 2> before =
        tracer ? cache_stats() : std::array<double, 2>{};
    std::vector<Stream> streams;
    for (std::size_t c = 0; c < kClients; ++c) {
      streams.emplace_back("run" + std::to_string(runs_), seed, c);
    }
    ++runs_;
    std::vector<ClientTrace> traces(kClients);
    const Clock::time_point start = Clock::now();
    Tally total = drive(streams, 1, static_cast<std::uint64_t>(seconds * 1e9),
                        tracer ? &traces : nullptr);
    if (tracer) {
      const std::array<double, 2> after = cache_stats();
      tracer->count("serve.cache_hits", after[0] - before[0]);
      tracer->count("serve.cache_misses", after[1] - before[1]);
      record(*tracer, traces, ns_since(start));
      const sv::JsonValue doc = sv::parse_json(stats_body());
      tracer->count("serve.shed_total",
                    static_cast<double>(doc.find("shed_total")->as_integer()));
      tracer->count("serve.coalesced_total",
                    static_cast<double>(doc.find("coalesced_total")->as_integer()));
    }
    return total;
  }

  void layer_metrics(const Tracer& t, Metrics& m) const override {
    for (const char* method : kMethods) {
      const std::string key = std::string("serve.parse.") + method;
      m[std::string("serve.parse_us.") + method] = {per_call(t, key, 1e3), "us"};
    }
    m["serve.engine_us.hit"] = {per_call(t, "serve.engine.hit", 1e3), "us"};
    m["serve.engine_us.miss"] = {per_call(t, "serve.engine.miss", 1e3), "us"};
    const double engine_ns = static_cast<double>(t.total_ns("serve.engine.hit") +
                                                  t.total_ns("serve.engine.miss"));
    m["serve.transport_us"] = {
        ratio(static_cast<double>(t.total_ns("serve.roundtrip")) - engine_ns,
              static_cast<double>(t.calls("serve.roundtrip"))) / 1e3,
        "us"};
    const double lookups =
        t.counter("serve.cache_hits") + t.counter("serve.cache_misses");
    m["serve.cache_hit_ratio"] = {ratio(t.counter("serve.cache_hits"), lookups),
                                  "ratio"};
    m["serve.cache_lookups"] = {lookups, "count"};
    m["serve.shed_total"] = {t.counter("serve.shed_total"), "count"};
    m["serve.coalesced_total"] = {t.counter("serve.coalesced_total"), "count"};
  }

 private:
  /// Both clients at once, each closed-loop on its own thread: at least
  /// `rounds` rounds each, and more until `budget_ns` has passed. The
  /// merged latencies are cut into windows by completion time.
  Tally drive(std::vector<Stream>& streams, std::size_t rounds,
              std::uint64_t budget_ns, std::vector<ClientTrace>* traces) {
    struct Done {
      std::uint64_t at_ns;
      double us;
    };
    std::vector<std::vector<Done>> done(kClients);
    std::vector<Tally> tallies(kClients);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t r = 0; r < rounds || ns_since(start) < budget_ns;
             ++r) {
          for (std::size_t i = 0; i < kRoundPerClient; ++i) {
            const double us = request(*clients_[c], streams[c],
                                      traces ? &(*traces)[c] : nullptr,
                                      tallies[c]);
            done[c].push_back({ns_since(start), us});
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    Tally total;
    std::vector<Done> all;
    for (std::size_t c = 0; c < kClients; ++c) {
      total.absorb(tallies[c]);
      all.insert(all.end(), done[c].begin(), done[c].end());
    }
    std::sort(all.begin(), all.end(),
              [](const Done& a, const Done& b) { return a.at_ns < b.at_ns; });
    std::uint64_t window_start = 0;
    std::size_t window_first = 0;
    for (const Done& d : all) {
      total.latencies_us.push_back(d.us);
      if (d.at_ns - window_start >= kWindowNs &&
          total.latencies_us.size() - window_first >= kWindowMinOps) {
        total.close_window(d.at_ns - window_start);
        window_start = d.at_ns;
        window_first = total.latencies_us.size();
      }
    }
    if (total.window_ends.empty()) total.close_window(ns_since(start));
    return total;
  }

  /// Send one request, check the response, return its latency.
  double request(sv::Client& client, Stream& stream, ClientTrace* trace,
                 Tally& tally) {
    const auto [line, method] = stream.next();
    if (trace) {
      // parse_request and the engine are timed on a twin Service that
      // sees the same requests; transport is the round trip minus it.
      Clock::time_point t0 = Clock::now();
      (void)sv::parse_request(line);
      trace->parse_ns[method] += ns_since(t0);
      ++trace->parse_n[method];
      t0 = Clock::now();
      const std::string reply = engine_->handle_line(line);
      const std::uint64_t engine_ns = ns_since(t0);
      if (sv::parse_response(reply).cached) {
        trace->hit_ns += engine_ns;
        ++trace->hit_n;
      } else {
        trace->miss_ns += engine_ns;
        ++trace->miss_n;
      }
    }
    const Clock::time_point t0 = Clock::now();
    const std::string raw = client.roundtrip(line);
    const std::uint64_t ns = ns_since(t0);
    if (trace) {
      trace->roundtrip_ns += ns;
      ++trace->roundtrip_n;
    }
    OpOutcome out;
    out.ok = stream.check(line, method, sv::parse_response(raw), out.error);
    const double us = static_cast<double>(ns) / 1e3;
    tally.note(out, us);
    return us;
  }

  static void record(Tracer& tracer, const std::vector<ClientTrace>& traces,
                     std::uint64_t wall_ns) {
    for (const ClientTrace& t : traces) {
      const std::uint32_t root =
          tracer.record("serve_mix.client", "bench", Span::kNoParent, wall_ns);
      for (std::size_t m = 0; m < kMethods.size(); ++m) {
        tracer.record(std::string("serve.parse.") + kMethods[m], "serve", root,
                      t.parse_ns[m], t.parse_n[m]);
      }
      tracer.record("serve.engine.hit", "serve", root, t.hit_ns, t.hit_n);
      tracer.record("serve.engine.miss", "serve", root, t.miss_ns, t.miss_n);
      tracer.record("serve.roundtrip", "serve", root, t.roundtrip_ns,
                    t.roundtrip_n);
    }
  }

  std::string stats_body() {
    return sv::parse_response(clients_[0]->roundtrip(R"({"method":"stats"})"))
        .result_json;
  }

  /// {hits, misses} of the server's response cache.
  std::array<double, 2> cache_stats() {
    const sv::JsonValue doc = sv::parse_json(stats_body());
    const sv::JsonValue* cache = doc.find("cache");
    return {cache->find("hits")->as_number(), cache->find("misses")->as_number()};
  }

  std::unique_ptr<sv::Server> server_;
  std::thread server_thread_;
  std::vector<std::unique_ptr<sv::Client>> clients_;
  std::unique_ptr<sv::Service> engine_;
  std::vector<Stream> warm_;
  std::size_t runs_ = 0;  // measure() calls so far: each gets fresh identities
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix() {
  return std::make_unique<ServeMix>();
}

}  // namespace e2ebench
