// The serve protocol's names for the JSON DOM. The parser and JsonValue
// live in telemetry/json.hpp beside JsonWriter; this header keeps the
// serve spelling (serve::JsonValue, serve::parse_json) for its callers.

#pragma once

#include "telemetry/json.hpp"

namespace rapsim::serve {

using telemetry::JsonArray;
using telemetry::JsonMembers;
using telemetry::JsonValue;
using telemetry::kMaxJsonDepth;
using telemetry::parse_json;

}  // namespace rapsim::serve
