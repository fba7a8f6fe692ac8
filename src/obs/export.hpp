// Exporters for the observability layer (obs/obs.hpp): the Chrome
// trace-event JSON array consumed by chrome://tracing and Perfetto, a
// flat JSON metrics snapshot, and the JSON form of one histogram.
//
// Both serialize through JsonValue, so output is deterministic given the
// recorded data: trace events are sorted by timestamp (enclosing spans
// before their children at equal start), metrics counters by name.
// Formats are documented in docs/observability.md; tests/test_obs.cpp
// holds both to their schemas.
#pragma once

#include <string>

#include "service/json.hpp"

namespace shufflebound::obs {

class Histogram;

/// The recorded spans as a Chrome trace-event array: one complete
/// ("ph":"X") event per span with `name`, `cat`, `ts`/`dur` in
/// microseconds, constant `pid` 1, and the obs-assigned thread id as
/// `tid`. Load the file in Perfetto (ui.perfetto.dev) or
/// chrome://tracing as-is.
JsonValue trace_to_json();

/// Flat metrics snapshot:
///   {"enabled":bool,"spans":N,"spans_dropped":N,
///    "counters":{"<name>":value,...}}   (counters sorted by name)
JsonValue metrics_to_json();

/// {"count":..,"sum_us":..,"max_us":..,"buckets":{"le_<upper>us":count,...}}
/// with empty buckets omitted.
JsonValue histogram_to_json(const Histogram& histogram);

/// Writes trace_to_json() / metrics_to_json() to `path` ("-" = stderr).
/// On failure returns false and, when `error` is non-null, explains why.
bool write_trace_file(const std::string& path, std::string* error = nullptr);
bool write_metrics_file(const std::string& path, std::string* error = nullptr);

}  // namespace shufflebound::obs
