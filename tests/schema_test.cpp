// rapsim-schema's contracts on hand-made documents: each fixture set is
// accepted as written, and one corruption per test (a missing key, a
// wrong type, a broken invariant) is rejected with the JSON path of the
// broken check in the message.

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>

#include "schema.hpp"

namespace {

using namespace rapsim;
using schema::Documents;
using Check = void (*)(const Documents&);

/// The violation `check` reports on `docs`, or "" when it accepts them.
std::string violation(Check check, const Documents& docs) {
  try {
    check(docs);
  } catch (const schema::Violation& v) {
    return v.what();
  }
  return "";
}

/// `docs` with the first `from` in document `name` replaced by `to`.
Documents corrupt(Documents docs, const std::string& name,
                  std::string_view from, std::string_view to) {
  std::string& text = docs.at(name);
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "fixture " << name << " lacks " << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return docs;
}

std::string join(std::initializer_list<std::string> parts) {
  std::string out;
  for (const std::string& part : parts) out += (out.empty() ? "" : ",") + part;
  return out;
}

// -------------------------------------------------------------- metrics

Documents metrics_docs() {
  std::string cells;
  for (const char* scheme : {"RAW", "RAS", "RAP"}) {
    cells += std::string(cells.empty() ? "" : ",") + R"({"scheme":")" +
             scheme +
             R"(","pattern":"Stride","width":2,"congestion":{"mean":1,)"
             R"("ci95":0,"min":1,"max":1,"p50":1,"p95":1,"p99":1},)"
             R"("bank_requests":[4,4]})";
  }
  return {{"metrics",
           R"({"schema_version":1,"experiment":"table2_congestion_sim",)"
           R"("config":{"widths":[2],"trials":4,"seed":1},"results":[)" +
               cells + "]}"}};
}

TEST(SchemaMetrics, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_metrics, metrics_docs()), "");
}

TEST(SchemaMetrics, RejectsShortBankList) {
  EXPECT_EQ(violation(schema::check_metrics,
                      corrupt(metrics_docs(), "metrics", "[4,4]", "[8]")),
            "$.results[0].bank_requests: one total per bank expected");
}

// ---------------------------------------------------------- certificate

Documents certificate_docs() {
  std::string lines;
  for (int pattern = 0; pattern < 3; ++pattern) {
    for (const char* scheme : {"RAW", "PAD", "RAS", "RAP"}) {
      const std::string rule = std::string(scheme) == "RAP"
                                   ? "rap-distinct-shifts"
                                   : "direct-eval";
      lines += R"({"scheme":")" + std::string(scheme) +
               R"(","kind":"exact","bound":)" + std::to_string(pattern) +
               R"(,"rule":")" + rule +
               R"(","claim":"c","pattern":"p"})" + "\n";
    }
  }
  return {{"certificates", lines}};
}

TEST(SchemaCertificate, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_certificates, certificate_docs()), "");
}

TEST(SchemaCertificate, RejectsNegativeBound) {
  EXPECT_EQ(violation(schema::check_certificates,
                      corrupt(certificate_docs(), "certificates",
                              R"("bound":0)", R"("bound":-1)")),
            "certificates[0]$.bound: >= 0 expected");
}

// ----------------------------------------------------------------- lint

constexpr const char* kFinding =
    R"({"kind":"RAW","phase":0,"detail":"d",)"
    R"("first":{"site":"stage","dir":"store","lane":1,"warp":0,)"
    R"("address":17,"binding":{"u":1}},)"
    R"("second":{"site":"drain","dir":"load","lane":1,"warp":1,)"
    R"("address":17,"binding":{"u":0}},)"
    R"("fixits":[{"action":"INSERT-BARRIER","detail":"d"}]})";

/// A race-free lint report of transpose-CRSW with one warning.
std::string lint_report() {
  return R"({"kernel":"transpose-CRSW","width":16,"rows":16,"scheme":"RAW",)"
         R"("severity":"warning","clean":false,"worst":16,"worst_site":"s",)"
         R"("diagnostics":[{"severity":"warning","site":"s","dir":"load",)"
         R"("message":"m","certificate":{"scheme":"RAW","kind":"exact",)"
         R"("bound":16,"rule":"r","claim":"c"},"rule":"r","coverage":)"
         R"("exact","bindings":1,"classes":1,"out_of_bounds":0,)"
         R"("witness":{},"witness_trace":[],"fixits":[{"action":"USE-RAP",)"
         R"("detail":"d"}]}],"races":{"phases":2,"pairs_checked":1,)"
         R"("exhaustive":true,"race_free":true,"findings":[],"certificate":)"
         R"({"kind":"race-freedom-certificate","kernel":"transpose-CRSW",)"
         R"("width":16,"rows":16,"phases":2,"pairs_checked":1,"claim":"c",)"
         R"("proofs":[{"first_site":"a","second_site":"b",)"
         R"("rule":"single-warp","detail":"d"}]}}})";
}

/// A synthesis result certifying bound 1.
constexpr const char* kSynthesis =
    R"({"kernel":"k","width":16,"rows":16,"mapping":{"spec":"ps1:x",)"
    R"("transform":"t","digits":1,"tables":[]},"certificate":{"scheme":)"
    R"("SYNTH","kind":"exact","bound":1,"rule":"r","claim":"c"},"witness":)"
    R"({"kind":"global-optimal","lower_bound":1,"reason":"r","detail":"d",)"
    R"("family_size":1,"evaluated":1,"pruned":0},"coverage":"exact",)"
    R"("classes":1,"candidates":1,"site_bounds":[],"witness_site":"s",)"
    R"("witness_trace":[],"baseline":16})";

/// The racy tile kernel's report.
std::string racy_report() {
  return R"({"severity":"error","races":{"race_free":false,"findings":[)" +
         std::string(kFinding) + "]}}";
}

Documents lint_docs() {
  return {{"catalog",
           R"({"tool":"rapsim-lint","version":1,"width":16,"scheme":"RAW",)"
           R"("reports":[)" +
               lint_report() + "]}"},
          {"synthesis",
           R"({"reports":[{"diagnostics":[{"fixits":[{"action":)"
           R"("SYNTHESIZE","detail":"use ps1:x"}]}],"synthesis":)" +
               std::string(kSynthesis) + "}]}"},
          {"racy", R"({"reports":[)" + racy_report() + "]}"}};
}

TEST(SchemaLint, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_lint, lint_docs()), "");
}

TEST(SchemaLint, RejectsUnknownProofRule) {
  EXPECT_EQ(violation(schema::check_lint,
                      corrupt(lint_docs(), "catalog", R"("single-warp")",
                              R"("guess")")),
            "catalog$.reports[0].races.certificate.proofs[0].rule: "
            "interval-disjoint|residue-disjoint|no-zero-sum|single-warp|"
            "enumerated-disjoint expected, got \"guess\"");
}

TEST(SchemaLint, RejectsSingleWarpRaceWitness) {
  EXPECT_EQ(violation(schema::check_lint, corrupt(lint_docs(), "racy",
                                                  R"("warp":1)",
                                                  R"("warp":0)")),
            "racy$.reports[0].races.findings[0].second.warp: a warp other "
            "than the first access's expected");
}

// --------------------------------------------------------------- replay

Documents replay_docs() {
  const std::string head =
      R"({"schema_version":1,"experiment":"rapsim_replay_campaign",)"
      R"("config":{"latency":1,"trials":2,"seed":1,"schemes":["raw"],)"
      R"("traces":[{"name":"t","hash":"h","width":16,"threads":32,)"
      R"("memory_size":64,"records":2}]},"cells":[)";
  std::string manifest;
  std::string summary;
  for (const char* key : {"a", "b"}) {
    manifest += std::string(manifest.empty() ? "" : ",") + R"({"key":")" +
                key +
                R"(","trace":"t","scheme":"RAW","width":16,)"
                R"("status":"pending"})";
    summary += std::string(summary.empty() ? "" : ",") + R"({"key":")" +
               key +
               R"(","trace":"t","trace_hash":"h","scheme":"RAW",)"
               R"("width":16,"latency":1,"trials":2,"seed":1,"time":)"
               R"({"mean":1,"min":1,"max":1},"pipeline_slots":1,)"
               R"("dispatches":1,"congestion":{"count":3,"mean":1,"min":1,)"
               R"("max":1,"p50":1,"p95":1,"p99":1},"trial_times":[1,1]})";
  }
  return {{"manifest.json", head + manifest + "]}"},
          {"summary.json",
           head + summary +
               R"(],"congestion_merged":{"count":6,"mean":1,"min":1,)"
               R"("max":1,"p50":1,"p95":1,"p99":1}})"}};
}

TEST(SchemaReplay, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_replay, replay_docs()), "");
}

TEST(SchemaReplay, RejectsMissingTrialTime) {
  EXPECT_EQ(violation(schema::check_replay,
                      corrupt(replay_docs(), "summary.json", "[1,1]", "[1]")),
            "summary.json$.cells[0].trial_times: one entry per trial "
            "expected");
}

TEST(SchemaReplay, RejectsMergedCountOffTheCells) {
  EXPECT_EQ(violation(schema::check_replay,
                      corrupt(replay_docs(), "summary.json", R"("count":6)",
                              R"("count":5)")),
            "summary.json$.congestion_merged.count: the sum of the cells' "
            "counts expected");
}

// ------------------------------------------------------------ bench, vm

std::string metric(const std::string& name) {
  return R"({"name":")" + name +
         R"(","samples":3,"items":30,"total_ns":900,"ops_per_sec":1e7,)"
         R"("ns_per_op":30.5,"p50_ns":300,"p95_ns":310,"p99_ns":310,)"
         R"("min_ns":290,"max_ns":310,"mean_ns":300,"stddev_ns":8.1})";
}

std::string bench_doc(const std::string& bench, const std::string& config,
                      const std::string& metrics) {
  return R"({"schema_version":1,"bench":")" + bench +
         R"(","unix_time":1,"machine":{"hostname":"h","os":"Linux",)"
         R"("compiler":"12","hardware_threads":1},"config":)" +
         config + R"(,"metrics":[)" + metrics + "]}";
}

Documents bench_docs() {
  return {{"bench", bench_doc("theorem2_bound_sweep", "{}",
                              metric("bound_sweep"))}};
}

TEST(SchemaBench, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_bench, bench_docs()), "");
}

TEST(SchemaBench, RejectsNegativePercentile) {
  EXPECT_EQ(violation(schema::check_bench,
                      corrupt(bench_docs(), "bench", R"("p50_ns":300)",
                              R"("p50_ns":-1)")),
            "$.metrics[0].p50_ns: >= 0 expected");
}

TEST(SchemaBench, RejectsPercentilesOutOfOrder) {
  EXPECT_EQ(violation(schema::check_bench,
                      corrupt(bench_docs(), "bench", R"("p50_ns":300)",
                              R"("p50_ns":400)")),
            "$.metrics[0].p50_ns: min_ns <= p50_ns <= max_ns expected");
}

TEST(SchemaBench, RejectsStringWhereAnIntegerBelongs) {
  EXPECT_EQ(violation(schema::check_bench,
                      corrupt(bench_docs(), "bench", R"("unix_time":1)",
                              R"("unix_time":"1")")),
            "$.unix_time: integer expected");
}

Documents vm_docs() {
  return {{"bench",
           bench_doc("ext_vm_workloads",
                     R"({"width":16,"programs":6,"thread_accesses":100})",
                     join({metric("assemble_lower"), metric("extract"),
                           metric("replay")}))}};
}

TEST(SchemaVm, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_vm, vm_docs()), "");
}

TEST(SchemaVm, RejectsMissingPhase) {
  EXPECT_EQ(violation(schema::check_vm,
                      corrupt(vm_docs(), "bench", R"("extract")",
                              R"("extraction")")),
            "$.metrics: name \"extract\" expected");
}

// ----------------------------------------------------------------- hier

std::string sm(int index, int cycles, int dispatches) {
  return R"({"sm":)" + std::to_string(index) + R"(,"cycles":)" +
         std::to_string(cycles) + R"(,"dispatches":)" +
         std::to_string(dispatches) + R"(,"total_stages":1,)"
         R"("max_congestion":1,"l1_hits":1,"l1_misses":1,"l2_hits":0,)"
         R"("dram_fills":1,"mshr_stall_cycles":0,"mem_wait_cycles":0,)"
         R"("idle_slots":0,"warp_stall_slots":0})";
}

Documents hier_docs() {
  std::string counters;
  for (const char* name : {"hier.cycles", "hier.dispatches", "hier.l2_hits",
                           "hier.sm_cycles", "hier.l1_misses"}) {
    counters += std::string(counters.empty() ? "" : ",") + R"({"name":")" +
                name + R"(","labels":{},"value":1})";
  }
  std::string config;
  std::string metrics;
  int cycles = 100;
  for (const char* sms : {"1", "2", "4"}) {
    for (const char* sched : {"roundrobin", "gto", "dwr"}) {
      const std::string cell = std::string("sms") + sms + "_" + sched;
      config += std::string(config.empty() ? "" : ",") + R"("cycles_)" +
                cell + R"(":)" + std::to_string(cycles += 10);
      metrics += std::string(metrics.empty() ? "" : ",") +
                 metric("sim_" + cell);
    }
  }
  return {
      {"run",
       R"({"schema_version":1,"config":{"workload":"bitonic","width":16,)"
       R"("sms":2,"scheduler":"gto","scheme":"RAP","path":{"enabled":true,)"
       R"("line_words":32,"l1_lines":64,"l1_latency":4,"l2_lines":512,)"
       R"("l2_latency":16,"l2_service":2,"dram_latency":200,)"
       R"("dram_service":4,"mshrs":8}},"total":{"cycles":90,)"
       R"("dispatches":30,"total_stages":2,"max_congestion":1,)"
       R"("avg_congestion":1,"l2_hits":1,"l2_misses":1,)"
       R"("l2_queue_cycles":0,"est_ns":50.5},"sms":[)" +
           join({sm(0, 90, 10), sm(1, 80, 20)}) +
           R"(],"metrics":{"counters":[)" + counters + "]}}"},
      {"bench", bench_doc("ext_hier_scaling", "{" + config + "}", metrics)}};
}

TEST(SchemaHier, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_hier, hier_docs()), "");
}

TEST(SchemaHier, RejectsTotalCyclesOffTheSlowestSm) {
  EXPECT_EQ(violation(schema::check_hier,
                      corrupt(hier_docs(), "run", R"("total":{"cycles":90)",
                              R"("total":{"cycles":80)")),
            "run$.total.cycles: the max over SMs expected");
}

TEST(SchemaHier, RejectsSchedulerIndependentContention) {
  Documents docs = corrupt(hier_docs(), "bench", R"("cycles_sms2_gto":150)",
                           R"("cycles_sms2_gto":140)");
  docs = corrupt(docs, "bench", R"("cycles_sms2_dwr":160)",
                 R"("cycles_sms2_dwr":140)");
  EXPECT_EQ(violation(schema::check_hier, docs),
            "bench$.config: scheduler-dependent cycles at 2 SMs expected");
}

// ---------------------------------------------------------------- serve

std::string envelope(const std::string& id, const std::string& method,
                     bool cached, const std::string& result) {
  return R"({"id":)" + id + R"(,"ok":true,"method":")" + method +
         R"(","cached":)" + (cached ? "true" : "false") +
         R"(,"coalesced":false,"elapsed_us":3,"result":)" + result + "}\n";
}

Documents serve_docs() {
  std::string counters;
  for (const char* method :
       {"certify", "lint", "replay", "advise", "advise.synthesize"}) {
    counters += std::string(counters.empty() ? "" : ",") +
                R"({"name":"serve.requests","labels":{"method":")" + method +
                R"(","status":"ok"},"value":1})";
  }
  std::string distributions =
      R"({"name":"serve.latency_us","labels":{},"count":1,"mean":1,)"
      R"("p50":1,"p95":1,"p99":1})";
  for (const char* phase :
       {"admission", "cache_lookup", "queue_wait", "execute", "write"}) {
    distributions += std::string(R"(,{"name":"serve.phase_us","labels":{)") +
                     R"("phase":")" + phase + R"("},"count":1})";
  }
  const std::string registry = R"({"counters":[)" + counters +
                               R"(],"distributions":[)" + distributions +
                               "]}";
  const std::string certify =
      R"({"certificate":{"scheme":"RAP","kind":"exact","bound":1,)"
      R"("rule":"r","claim":"c"}})";
  std::string spans;
  int span = 0;
  for (const char* name : {"request", "admission", "cache_lookup",
                           "queue_wait", "execute:replay", "write"}) {
    ++span;
    spans += std::string(spans.empty() ? "" : ",") + R"({"name":")" + name +
             R"(","ph":"X","pid":1,"tid":7,"ts":)" + std::to_string(span) +
             R"(,"dur":1,"args":{"span":)" + std::to_string(span) +
             R"(,"parent":)" + (span == 1 ? "0" : "1") + "}}";
  }
  return {
      {"certify_cold", envelope(R"("cold")", "certify", false, certify)},
      {"certify_warm", envelope(R"("warm")", "certify", true, certify)},
      {"lint", envelope("2", "lint", false, lint_report())},
      {"lint_racy", envelope(R"("racy")", "lint", false, racy_report())},
      {"lint_noraces", envelope(R"("noraces")", "lint", false,
                                R"({"severity":"warning"})")},
      {"replay", envelope("3", "replay", false,
                          R"({"trace_hash":"h","scheme":"RAW","width":16,)"
                          R"("latency":1,"seed":1,"time":9,)"
                          R"("pipeline_slots":9,"dispatches":2,)"
                          R"("max_congestion":4,"avg_congestion":2.5})")},
      {"advise", envelope("4", "advise", false,
                          R"({"scores":[1,2,3,4],"recommended":"RAP",)"
                          R"("rationale":"r"})")},
      {"synth_cold", envelope(R"("synth-cold")", "advise.synthesize", false,
                              kSynthesis)},
      {"synth_warm", envelope(R"("synth-warm")", "advise.synthesize", true,
                              kSynthesis)},
      {"stats", envelope("5", "stats", false,
                         R"({"uptime_ms":1,"workers":2,"queue_depth":0,)"
                         R"("queue_capacity":8,"in_flight":0,)"
                         R"("draining":false,"busy_workers":1,)"
                         R"("utilization":0.5,"shed_total":0,)"
                         R"("coalesced_total":0,"cache":{"hits":1,)"
                         R"("misses":3,"insertions":3,"evictions":0,)"
                         R"("entries":3,"capacity":64,"hit_rate":0.25,)"
                         R"("occupancy":0.046875},"metrics":)" +
                             registry + "}")},
      {"error", R"({"id":1,"ok":false,"method":"no-such-method",)"
                R"("error":{"code":404,"name":"unknown_method",)"
                R"("message":"m"}})"},
      {"metrics.json",
       R"({"schema_version":1,"experiment":"rapsim_served","uptime_ms":1,)"
       R"("workers":2,"queue_capacity":8,"shed_total":0,)"
       R"("coalesced_total":0,"cache":{},"metrics":)" +
           registry + "}"},
      {"spans.trace.json", R"({"traceEvents":[)" + spans + "]}"}};
}

TEST(SchemaServe, AcceptsFixture) {
  EXPECT_EQ(violation(schema::check_serve, serve_docs()), "");
}

TEST(SchemaServe, RejectsEnvelopeMembersOutOfOrder) {
  EXPECT_EQ(violation(schema::check_serve,
                      corrupt(serve_docs(), "certify_cold",
                              R"("ok":true,"method":"certify")",
                              R"("method":"certify","ok":true)")),
            "certify_cold$: members \"id ok method cached coalesced "
            "elapsed_us result\" in order expected, got \"id method ok "
            "cached coalesced elapsed_us result\"");
}

TEST(SchemaServe, RejectsCachedBodyThatDiffers) {
  EXPECT_EQ(violation(schema::check_serve,
                      corrupt(serve_docs(), "certify_warm", R"("bound":1)",
                              R"("bound":1.0)")),
            "certify_warm$.result: the cold certify's bytes expected");
}

TEST(SchemaServe, RejectsUnstableErrorCode) {
  EXPECT_EQ(violation(schema::check_serve,
                      corrupt(serve_docs(), "error", R"("code":404)",
                              R"("code":400)")),
            "error$.error.code: 404 expected");
}

TEST(SchemaServe, RejectsPhaseOutsideTheRequestFlame) {
  // The write span (id 6) re-parented onto itself: it no longer roots at
  // the request span.
  EXPECT_EQ(violation(schema::check_serve,
                      corrupt(serve_docs(), "spans.trace.json",
                              R"("span":6,"parent":1)",
                              R"("span":6,"parent":6)")),
            "spans.trace.json$.traceEvents[0]: a nested span \"write\" "
            "expected");
}

TEST(SchemaServe, RejectsRequestSpreadOverTwoTracks) {
  EXPECT_EQ(violation(schema::check_serve,
                      corrupt(serve_docs(), "spans.trace.json",
                              R"("tid":7,"ts":3)", R"("tid":8,"ts":3)")),
            "spans.trace.json$.traceEvents[0].tid: every span of the request "
            "on this track expected");
}

TEST(SchemaDoc, RejectsMalformedJsonWithItsByteOffset) {
  EXPECT_EQ(violation(schema::check_bench, {{"bench", "{\"a\":}"}}),
            "$: not a JSON document (json: byte 5: expected a value)");
}

}  // namespace
