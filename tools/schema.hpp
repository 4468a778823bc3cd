// The JSON contracts of rapsim's machine-readable outputs, checked
// through one path-tracking accessor: a failed check throws a Violation
// naming the JSON path it stood on, so no check needs its own message:
//
//   $.metrics[0].p50_ns: >= 0 expected
//   summary.json$.cells: the cell keys of manifest.json expected
//
// The contracts are pure functions of document text; rapsim_schema.cpp
// runs the producers and feeds them their output.

#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace rapsim::schema {

/// A broken contract. what() is "<json path>: <what was expected>".
class Violation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value plus the path that reached it. Accessors check the kind
/// they read and fail at this node's path.
class Node {
 public:
  /// The root of document `text`; `name` prefixes its path ("name$").
  static Node parse(std::string_view text, const std::string& name = "");

  [[noreturn]] void fail(const std::string& what) const;
  void require(bool cond, const std::string& what) const {
    if (!cond) fail(what);
  }

  /// Object member; fails when this is not an object or `key` is absent.
  [[nodiscard]] Node operator[](std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::string names() const;  // member names, space-joined

  /// Checks members against a space-separated spec. Each entry is a key,
  /// optionally followed by a kind (`key:int`) or by the allowed values
  /// (`key=a|b`, where true/false and integer literals match those JSON
  /// values). Kinds: int, n (int >= 0), pos (int > 0), num, str, text
  /// (non-empty string), obj, arr, list (non-empty array), bool.
  void keys(std::string_view spec) const;

  [[nodiscard]] std::vector<Node> items() const;     // an array
  [[nodiscard]] std::vector<Node> nonempty() const;  // a non-empty array
  [[nodiscard]] std::int64_t integer() const;
  [[nodiscard]] double number() const;
  [[nodiscard]] const std::string& str() const;

 private:
  Node(telemetry::JsonValue value, std::string path)
      : value_(std::move(value)), path_(std::move(path)) {}
  void kind(std::string_view kind) const;
  void equals(std::string_view allowed) const;

  telemetry::JsonValue value_;  // copies share their arrays and objects
  std::string path_;
};

/// A contract's input: document name -> document text.
using Documents = std::map<std::string, std::string>;

// One function per contract; each throws Violation on the first broken
// check. Document names: metrics "metrics"; certificates "certificates"
// (one per line); lint "catalog", "synthesis", "racy"; replay
// "manifest.json", "summary.json"; bench and vm "bench"; hier "run",
// "bench"; serve the rapsim-client --verbose envelopes "certify_cold",
// "certify_warm", "lint", "lint_racy", "lint_noraces", "replay",
// "advise", "synth_cold", "synth_warm", "stats", "error" and the daemon's
// "metrics.json", "spans.trace.json". rapsim_schema.cpp makes them.
void check_metrics(const Documents& docs);
void check_certificates(const Documents& docs);
void check_lint(const Documents& docs);
void check_replay(const Documents& docs);
void check_bench(const Documents& docs);
void check_vm(const Documents& docs);
void check_hier(const Documents& docs);
void check_serve(const Documents& docs);

}  // namespace rapsim::schema
