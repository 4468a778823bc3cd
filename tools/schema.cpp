#include "schema.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>

namespace rapsim::schema {

namespace {

constexpr std::size_t kNpos = std::string_view::npos;
using Names = std::set<std::string>;

/// The non-empty pieces of `text` between `sep` characters.
std::vector<std::string_view> split(std::string_view text, char sep = ' ') {
  std::vector<std::string_view> out;
  for (std::size_t start = 0, end = 0; start < text.size(); start = end + 1) {
    end = std::min(text.find(sep, start), text.size());
    if (end > start) out.push_back(text.substr(start, end - start));
  }
  return out;
}

}  // namespace

Node Node::parse(std::string_view text, const std::string& name) {
  try {
    return Node(telemetry::parse_json(text), name + "$");
  } catch (const std::invalid_argument& e) {
    throw Violation(name + "$: not a JSON document (" + e.what() + ")");
  }
}

void Node::fail(const std::string& what) const {
  throw Violation(path_ + ": " + what);
}

Node Node::operator[](std::string_view key) const {
  const std::string at = path_ + "." + std::string(key);
  if (!has(key)) throw Violation(at + ": missing");
  return Node(*value_.find(key), at);
}

bool Node::has(std::string_view key) const {
  require(value_.is_object(), "object expected");
  return value_.find(key) != nullptr;
}

std::string Node::names() const {
  require(value_.is_object(), "object expected");
  std::string out;
  for (const auto& member : value_.as_object()) {
    out += (out.empty() ? "" : " ") + member.first;
  }
  return out;
}

void Node::keys(std::string_view spec) const {
  for (const std::string_view entry : split(spec)) {
    const std::size_t cut = entry.find_first_of(":=");
    const Node member = (*this)[entry.substr(0, cut)];
    if (cut != kNpos && entry[cut] == ':') member.kind(entry.substr(cut + 1));
    if (cut != kNpos && entry[cut] == '=') member.equals(entry.substr(cut + 1));
  }
}

void Node::kind(std::string_view kind) const {
  if (kind == "int" || kind == "n" || kind == "pos") {
    const std::int64_t n = integer();
    require(kind != "n" || n >= 0, ">= 0 expected");
    require(kind != "pos" || n > 0, "> 0 expected");
  } else if (kind == "num" || kind == "frac") {
    const double f = number();
    require(kind != "frac" || (f >= 0.0 && f <= 1.0),
            "a fraction in [0, 1] expected");
  } else if (kind == "str" || kind == "text") {
    require(!str().empty() || kind == "str", "non-empty string expected");
  } else if (kind == "arr" || kind == "list") {
    (void)(kind == "arr" ? items() : nonempty());
  } else {
    const bool obj = kind == "obj";
    require(obj ? value_.is_object() : value_.is_bool(),
            obj ? "object expected" : "bool expected");
  }
}

void Node::equals(std::string_view allowed) const {
  for (const std::string_view want : split(allowed, '|')) {
    if (want == "true" || want == "false") {
      if (value_.is_bool() && value_.as_bool() == (want == "true")) return;
    } else if (want.find_first_not_of("-0123456789") == kNpos) {
      if (value_.is_integer() && std::to_string(value_.as_integer()) == want) {
        return;
      }
    } else if (value_.is_string() && value_.as_string() == want) {
      return;
    }
  }
  fail(std::string(allowed) + " expected" +
       (value_.is_string() ? ", got \"" + value_.as_string() + "\"" : ""));
}

std::vector<Node> Node::items() const {
  require(value_.is_array(), "array expected");
  std::vector<Node> out;
  for (const telemetry::JsonValue& item : value_.as_array()) {
    out.push_back(Node(item, path_ + "[" + std::to_string(out.size()) + "]"));
  }
  return out;
}

std::vector<Node> Node::nonempty() const {
  std::vector<Node> out = items();
  require(!out.empty(), "non-empty array expected");
  return out;
}

std::int64_t Node::integer() const {
  require(value_.is_integer(), "integer expected");
  return value_.as_integer();
}

double Node::number() const {
  require(value_.is_number(), "number expected");
  return value_.as_number();
}

const std::string& Node::str() const {
  require(value_.is_string(), "string expected");
  return value_.as_string();
}

namespace {

const std::string& text(const Documents& docs, const std::string& name) {
  const auto it = docs.find(name);
  if (it == docs.end()) throw Violation(name + ": document missing");
  return it->second;
}

/// Document `name`, its paths prefixed with the name when `named`.
Node parse(const Documents& docs, const std::string& name,
           bool named = true) {
  return Node::parse(text(docs, name), named ? name : "");
}

/// Fails at `at` unless every word of `wanted` is in `have`.
void require_each(const Node& at, const Names& have, std::string_view wanted,
                  const std::string& what) {
  for (const std::string_view w : split(wanted)) {
    at.require(have.count(std::string(w)) != 0,
               what + " \"" + std::string(w) + "\" expected");
  }
}

/// Fails at `array` unless its items' `key` strings take every word of
/// `wanted`.
void require_values(const Node& array, std::string_view key,
                    std::string_view wanted) {
  Names have;
  for (const Node& item : array.items()) have.insert(item[key].str());
  require_each(array, have, wanted, std::string(key));
}

void require_count(const Node& array, std::int64_t count,
                   const std::string& what) {
  array.require(static_cast<std::int64_t>(array.items().size()) == count,
                what);
}

/// The generic BENCH_*.json document.
void check_bench_doc(const Node& doc) {
  doc.keys("schema_version=1 bench:text unix_time:int machine config:obj");
  doc["machine"].keys("hostname:text os:text compiler:text "
                      "hardware_threads:int");
  for (const Node& metric : doc["metrics"].nonempty()) {
    metric.keys("name:text samples:pos items:n total_ns:n p50_ns:n p95_ns:n "
                "p99_ns:n min_ns:n max_ns:n ops_per_sec:num ns_per_op:num "
                "mean_ns:num stddev_ns:num");
    metric["ns_per_op"].require(metric["ns_per_op"].number() > 0,
                                "> 0 expected");
    const std::int64_t p50 = metric["p50_ns"].integer();
    metric["p50_ns"].require(metric["min_ns"].integer() <= p50 &&
                                 p50 <= metric["max_ns"].integer(),
                             "min_ns <= p50_ns <= max_ns expected");
  }
}

constexpr std::string_view kCertificate = "scheme kind bound rule claim";

/// Checks every fix-it; true when one has `action`.
bool check_fixits(const Node& fixits, std::string_view action = "") {
  bool found = false;
  for (const Node& fixit : fixits.items()) {
    fixit.keys("action:str detail");
    found = found || fixit["action"].str() == action;
  }
  return found;
}

/// A barrier-correct lint report; returns its warnings with fix-its.
int check_report(const Node& report) {
  report.keys("kernel width rows scheme severity=info|warning|error clean "
              "worst worst_site diagnostics");
  int warnings_with_fixits = 0;
  for (const Node& diag : report["diagnostics"].nonempty()) {
    diag.keys("severity:str site dir message certificate rule coverage "
              "bindings classes out_of_bounds witness:obj witness_trace:arr "
              "fixits:arr");
    diag["certificate"].keys(kCertificate);
    check_fixits(diag["fixits"]);
    warnings_with_fixits += diag["severity"].str() == "warning" &&
                            !diag["fixits"].items().empty();
  }
  const Node races = report["races"];
  races.keys("phases pairs_checked exhaustive race_free=true findings");
  require_count(races["findings"], 0, "no findings expected");
  races["certificate"].keys("kind=race-freedom-certificate kernel width rows "
                            "phases pairs_checked claim proofs");
  for (const Node& proof : races["certificate"]["proofs"].items()) {
    proof.keys("first_site second_site detail rule=interval-disjoint|"
               "residue-disjoint|no-zero-sum|single-warp|enumerated-disjoint");
  }
  return warnings_with_fixits;
}

/// A tile kernel without its barrier: an error-severity race whose
/// witness crosses warps on one word, with an INSERT-BARRIER fix-it.
void check_racy_report(const Node& report) {
  report.keys("severity=error races");
  const Node races = report["races"];
  races.keys("race_free=false");
  races.require(!races.has("certificate"), "no certificate expected");
  bool insert_barrier = false;
  for (const Node& finding : races["findings"].nonempty()) {
    finding.keys("kind=RAW|WAW|WAR phase detail first second fixits");
    const Node first = finding["first"];
    const Node second = finding["second"];
    for (const Node& access : {first, second}) {
      access.keys("site dir lane warp:int address:int binding:obj");
    }
    second["address"].require(
        second["address"].integer() == first["address"].integer(),
        "the first access's address expected");
    second["warp"].require(second["warp"].integer() != first["warp"].integer(),
                           "a warp other than the first access's expected");
    insert_barrier |= check_fixits(finding["fixits"], "INSERT-BARRIER");
  }
  races["findings"].require(insert_barrier,
                            "an INSERT-BARRIER fix-it expected");
}

/// A synthesis result (lint's "synthesis" block, advise.synthesize).
void check_synthesis(const Node& synth) {
  synth.keys("kernel width rows mapping certificate witness coverage "
             "classes candidates site_bounds witness_site witness_trace "
             "baseline");
  synth["mapping"].keys("spec:str transform digits tables");
  synth["mapping"]["spec"].require(
      synth["mapping"]["spec"].str().rfind("ps1:", 0) == 0,
      "a spec starting \"ps1:\" expected");
  synth["certificate"].keys(kCertificate);
  synth["certificate"].keys("scheme=SYNTH");
  synth["witness"].keys("kind lower_bound reason detail family_size "
                        "evaluated pruned");
}

/// The only report of a one-kernel lint document.
Node only_report(const Node& doc) {
  require_count(doc["reports"], 1, "one report expected");
  return doc["reports"].items()[0];
}

void require_order(const Node& doc, const std::string& order) {
  doc.require(doc.names() == order, "members \"" + order +
                                        "\" in order expected, got \"" +
                                        doc.names() + "\"");
}

/// A success envelope and the raw bytes of its result.
std::pair<Node, std::string> check_success(const Documents& docs,
                                           const std::string& name,
                                           const std::string& method) {
  std::string raw = text(docs, name);
  raw.erase(raw.find_last_not_of(" \t\r\n") + 1);
  const Node doc = Node::parse(raw, name);
  require_order(doc, "id ok method cached coalesced elapsed_us result");
  doc.keys("ok=true method=" + method +
           " cached:bool coalesced:bool elapsed_us:n");
  // "result" is last, so its bytes run from its key to the closing brace.
  const std::size_t at = raw.find("\"result\":");
  doc.require(at != std::string::npos && raw.back() == '}',
              "result as the last member expected");
  return {doc, raw.substr(at + 9, raw.size() - at - 10)};
}

void check_registry(const Node& registry) {
  Names methods;
  Names phases;
  bool latency = false;
  for (const Node& counter : registry["counters"].items()) {
    if (counter["name"].str() != "serve.requests") continue;
    counter["labels"].keys("method:str status:str");
    if (counter["labels"]["status"].str() == "ok") {
      methods.insert(counter["labels"]["method"].str());
    }
  }
  require_each(registry["counters"], methods,
               "certify lint replay advise advise.synthesize",
               "an ok serve.requests count for method");
  for (const Node& dist : registry["distributions"].items()) {
    if (dist["name"].str() == "serve.latency_us") {
      latency = true;
      dist.keys("count mean p50 p95 p99");
    } else if (dist["name"].str() == "serve.phase_us") {
      phases.insert(dist["labels"]["phase"].str());
    }
  }
  registry["distributions"].require(latency,
                                    "serve.latency_us distributions expected");
  require_each(registry["distributions"], phases,
               "admission cache_lookup queue_wait execute write",
               "a serve.phase_us distribution for phase");
}

void check_stats(const Node& envelope) {
  envelope.keys("cached=false");  // control plane: never served cached
  const Node stats = envelope["result"];
  stats.keys("uptime_ms workers:int queue_depth queue_capacity in_flight "
             "draining busy_workers:n utilization:frac shed_total "
             "coalesced_total cache metrics");
  // hits >= 1 (the warm certify) makes the exact hit_rate positive.
  const Node cache = stats["cache"];
  cache.keys("hits:pos misses:n insertions evictions entries capacity "
             "hit_rate:frac occupancy:frac");
  const double hits = cache["hits"].number();
  cache["hit_rate"].require(
      std::abs(cache["hit_rate"].number() -
               hits / (hits + cache["misses"].number())) < 1e-9,
      "hits / (hits + misses) expected");
  stats["busy_workers"].require(
      stats["busy_workers"].integer() <= stats["workers"].integer(),
      "at most the pool size expected");
  check_registry(stats["metrics"]);
}

/// The --trace-out document: one replay request renders as one flame,
/// every phase nested under a root "request" span on one track.
void check_trace(const Node& doc) {
  std::vector<Node> events;
  std::map<std::int64_t, std::size_t> by_id;
  for (const Node& event : doc["traceEvents"].items()) {
    if (!event.has("ph") || event["ph"].str() != "X") continue;
    event.keys("name:str pid tid:int ts dur args");
    event["args"].keys("span:int parent:int");
    by_id[event["args"]["span"].integer()] = events.size();
    events.push_back(event);
  }
  // The event at the root of event `at`'s parent chain (cycles stop).
  const auto root_of = [&](std::size_t at) {
    for (std::size_t step = 0; step < events.size(); ++step) {
      const auto it = by_id.find(events[at]["args"]["parent"].integer());
      if (it == by_id.end()) break;
      at = it->second;
    }
    return at;
  };
  const auto replay =
      std::find_if(events.begin(), events.end(), [](const Node& event) {
        return event["name"].str() == "execute:replay";
      });
  doc["traceEvents"].require(replay != events.end(),
                             "an execute:replay span expected");
  const std::size_t root =
      root_of(static_cast<std::size_t>(replay - events.begin()));
  events[root].keys("name=request");
  Names nested;
  std::set<std::int64_t> tracks;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (root_of(i) != root) continue;
    tracks.insert(events[i]["tid"].integer());
    if (i != root) nested.insert(events[i]["name"].str());
  }
  require_each(events[root], nested,
               "admission cache_lookup queue_wait execute:replay write",
               "a nested span");
  events[root]["tid"].require(tracks.size() == 1,
                              "every span of the request on this track "
                              "expected");
}

}  // namespace

void check_metrics(const Documents& docs) {
  const Node doc = parse(docs, "metrics", false);
  doc.keys("schema_version=1 experiment=table2_congestion_sim");
  doc["config"].keys("widths:list trials:int seed:int");
  for (const Node& cell : doc["results"].nonempty()) {
    cell.keys("scheme:str pattern width:int congestion bank_requests");
    cell["congestion"].keys("mean ci95 min max p50 p95 p99");
    require_count(cell["bank_requests"], cell["width"].integer(),
                  "one total per bank expected");
  }
  require_values(doc["results"], "scheme", "RAW RAS RAP");
}

void check_certificates(const Documents& docs) {
  Names schemes;
  Names rules;
  std::size_t count = 0;
  for (const std::string_view line : split(text(docs, "certificates"), '\n')) {
    if (line.find_first_not_of(" \t\r") == kNpos) continue;
    const Node cert =
        Node::parse(line, "certificates[" + std::to_string(count++) + "]");
    cert.keys("scheme:str kind=exact|expected-upper bound:num rule:text "
              "claim pattern");
    cert["bound"].require(cert["bound"].number() >= 0, ">= 0 expected");
    rules.insert(cert["rule"].str());
    schemes.insert(cert["scheme"].str());
  }
  const auto require = [](bool cond, const std::string& what) {
    if (!cond) throw Violation("certificates: " + what);
  };
  require(count == 12, "12 certificates expected, got " +
                           std::to_string(count));
  require(schemes == Names{"RAW", "PAD", "RAS", "RAP"},
          "schemes exactly RAW, PAD, RAS, RAP expected");
  require(rules.count("rap-distinct-shifts") && rules.count("direct-eval"),
          "rules rap-distinct-shifts and direct-eval expected");
}

void check_lint(const Documents& docs) {
  const Node catalog = parse(docs, "catalog");
  catalog.keys("tool=rapsim-lint version=1 width:int scheme=RAW");
  int warnings_with_fixits = 0;
  for (const Node& report : catalog["reports"].nonempty()) {
    warnings_with_fixits += check_report(report);
  }
  catalog["reports"].require(warnings_with_fixits >= 1,
                             "a warning with fix-its (the stride "
                             "transpose) expected");
  require_values(catalog["reports"], "kernel", "transpose-CRSW");
  check_racy_report(only_report(parse(docs, "racy")));

  // transpose-CRSW under RAW synthesizes to bound 1, and the first
  // SYNTHESIZE fix-it quotes the spec.
  const Node report = only_report(parse(docs, "synthesis"));
  const Node synth = report["synthesis"];
  check_synthesis(synth);
  synth["certificate"].keys("bound=1");
  synth["witness"].keys("kind=global-optimal");
  for (const Node& diag : report["diagnostics"].items()) {
    for (const Node& fixit : diag["fixits"].items()) {
      if (fixit["action"].str() != "SYNTHESIZE") continue;
      return fixit["detail"].require(
          fixit["detail"].str().find(synth["mapping"]["spec"].str()) !=
              std::string::npos,
          "the synthesized spec expected");
    }
  }
  report["diagnostics"].fail("a SYNTHESIZE fix-it expected");
}

void check_replay(const Documents& docs) {
  const Node manifest = parse(docs, "manifest.json");
  const Node summary = parse(docs, "summary.json");
  for (const Node& doc : {manifest, summary}) {
    doc.keys("schema_version=1 experiment=rapsim_replay_campaign");
    doc["config"].keys("latency trials seed schemes traces:list");
    for (const Node& trace : doc["config"]["traces"].items()) {
      trace.keys("name hash width threads memory_size records");
    }
  }
  std::vector<std::string> manifest_keys;
  for (const Node& cell : manifest["cells"].nonempty()) {
    cell.keys("key:str trace scheme width status=cached|pending");
    manifest_keys.push_back(cell["key"].str());
  }
  std::vector<std::string> keys;
  std::int64_t samples = 0;
  for (const Node& cell : summary["cells"].nonempty()) {
    cell.keys("key:str trace trace_hash scheme width latency trials:int seed "
              "time pipeline_slots dispatches congestion trial_times");
    cell["time"].keys("mean min max");
    cell["congestion"].keys("count:int mean min max p50 p95 p99");
    require_count(cell["trial_times"], cell["trials"].integer(),
                  "one entry per trial expected");
    keys.push_back(cell["key"].str());
    samples += cell["congestion"]["count"].integer();
  }
  summary["cells"].require(std::is_sorted(keys.begin(), keys.end()),
                           "cells sorted by key expected");
  summary["cells"].require(keys == manifest_keys,
                           "the cell keys of manifest.json expected");
  const Node merged = summary["congestion_merged"];
  merged.keys("count:int mean min max p50 p95 p99");
  merged["count"].require(merged["count"].integer() == samples,
                          "the sum of the cells' counts expected");
}

void check_bench(const Documents& docs) {
  check_bench_doc(parse(docs, "bench", false));
}

void check_vm(const Documents& docs) {
  const Node doc = parse(docs, "bench", false);
  check_bench_doc(doc);
  doc.keys("bench=ext_vm_workloads");
  const Node config = doc["config"];
  config.keys("width:pos programs:pos thread_accesses:pos");
  config["programs"].require(config["programs"].integer() >= 6,
                             "the six suite programs expected");
  require_values(doc["metrics"], "name", "assemble_lower extract replay");
}

void check_hier(const Documents& docs) {
  const Node run = parse(docs, "run");
  run.keys("schema_version=1");
  run["config"].keys("workload=bitonic width=16 sms=2 scheduler=gto "
                     "scheme:text");
  run["config"]["path"].keys("enabled=true line_words:n l1_lines:n "
                             "l1_latency:n l2_lines:n l2_latency:n "
                             "l2_service:n dram_latency:n dram_service:n "
                             "mshrs:n");
  const Node total = run["total"];
  total.keys("cycles:pos dispatches:n total_stages:n max_congestion:n "
             "l2_hits:n l2_misses:n l2_queue_cycles:n avg_congestion:num "
             "est_ns:num");
  const std::vector<Node> sms = run["sms"].items();
  run["sms"].require(sms.size() == 2, "2 entries expected");
  std::int64_t dispatches = 0;
  std::int64_t cycles = 0;
  for (std::size_t i = 0; i < sms.size(); ++i) {
    sms[i].keys("sm=" + std::to_string(i) +
                " cycles:n dispatches:n total_stages:n max_congestion:n "
                "l1_hits:n l1_misses:n l2_hits:n dram_fills:n "
                "mshr_stall_cycles:n mem_wait_cycles:n idle_slots:n "
                "warp_stall_slots:n");
    dispatches += sms[i]["dispatches"].integer();
    cycles = std::max(cycles, sms[i]["cycles"].integer());
  }
  total["dispatches"].require(total["dispatches"].integer() == dispatches,
                              "the sum over SMs expected");
  total["cycles"].require(total["cycles"].integer() == cycles,
                          "the max over SMs expected");
  require_values(run["metrics"]["counters"], "name",
                 "hier.cycles hier.dispatches hier.l2_hits hier.sm_cycles "
                 "hier.l1_misses");

  const Node bench = parse(docs, "bench");
  check_bench_doc(bench);
  bench.keys("bench=ext_hier_scaling");
  for (const std::string count : {"1", "2", "4"}) {
    std::set<std::int64_t> cycles_by_scheduler;
    for (const char* sched : {"roundrobin", "gto", "dwr"}) {
      const std::string key = "cycles_sms" + count + "_" + sched;
      bench["config"].keys(key + ":pos");
      cycles_by_scheduler.insert(bench["config"][key].integer());
    }
    // The scheduler must matter once SMs contend for the shared ports.
    bench["config"].require(count == "1" || cycles_by_scheduler.size() > 1,
                            "scheduler-dependent cycles at " + count +
                                " SMs expected");
  }
  require_count(bench["metrics"], 9,
                "the nine sim_sms<N>_<sched> series expected");
  for (const Node& metric : bench["metrics"].items()) {
    metric["name"].require(metric["name"].str().rfind("sim_sms", 0) == 0,
                           "a sim_sms<N>_<sched> name expected");
  }
}

void check_serve(const Documents& docs) {
  const auto [cold, cold_body] = check_success(docs, "certify_cold", "certify");
  const auto [warm, warm_body] = check_success(docs, "certify_warm", "certify");
  cold.keys("id=cold cached=false");
  warm.keys("id=warm cached=true");
  warm["result"].require(warm_body == cold_body,
                         "the cold certify's bytes expected");
  cold["result"]["certificate"].keys(kCertificate);

  (void)check_report(check_success(docs, "lint", "lint").first["result"]);
  check_racy_report(check_success(docs, "lint_racy", "lint").first["result"]);
  const Node noraces =
      check_success(docs, "lint_noraces", "lint").first["result"];
  noraces.require(!noraces.has("races"),
                  "no races block under params.races=false expected");
  noraces["severity"].require(noraces["severity"].str() != "error",
                              "a severity below error without the race "
                              "pass expected");

  check_success(docs, "replay", "replay").first["result"].keys(
      "trace_hash scheme width latency seed time pipeline_slots dispatches "
      "max_congestion avg_congestion");
  const Node advise = check_success(docs, "advise", "advise").first["result"];
  advise.keys("scores recommended rationale");
  require_count(advise["scores"], 4,
                "a score for each of the four schemes expected");

  const auto [synth, synth_body] =
      check_success(docs, "synth_cold", "advise.synthesize");
  const auto [synth_warm, synth_warm_body] =
      check_success(docs, "synth_warm", "advise.synthesize");
  check_synthesis(synth["result"]);
  synth_warm.keys("cached=true");
  synth_warm["result"].require(synth_warm_body == synth_body,
                               "the cold synthesize's bytes expected");

  check_stats(check_success(docs, "stats", "stats").first);

  const Node error = parse(docs, "error");
  require_order(error, "id ok method error");
  error.keys("ok=false id=1");
  // A stable code <-> name pair.
  error["error"].keys("code=404 name=unknown_method message:text");

  const Node metrics = parse(docs, "metrics.json");
  metrics.keys("schema_version=1 experiment=rapsim_served uptime_ms workers "
               "queue_capacity shed_total coalesced_total cache metrics");
  check_registry(metrics["metrics"]);

  check_trace(parse(docs, "spans.trace.json"));
}

}  // namespace rapsim::schema
