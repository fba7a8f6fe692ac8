#include "obs/export.hpp"

#include <cstdio>
#include <fstream>

#include "obs/obs.hpp"

namespace shufflebound::obs {

JsonValue trace_to_json() {
  JsonValue events = JsonValue::array();
  for (const SpanRecord& span : registry().snapshot_spans()) {
    JsonValue event = JsonValue::object();
    event.set("name", span.name);
    event.set("cat", span.cat);
    event.set("ph", "X");
    event.set("ts", span.start_us);
    event.set("dur", span.dur_us);
    event.set("pid", 1);
    event.set("tid", span.tid);
    events.push_back(std::move(event));
  }
  return events;
}

JsonValue metrics_to_json() {
  const Registry& reg = registry();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : reg.snapshot_counters())
    counters.set(name, value);
  JsonValue out = JsonValue::object();
  out.set("enabled", reg.enabled());
  out.set("spans", reg.span_count());
  out.set("spans_dropped", reg.dropped_spans());
  out.set("counters", std::move(counters));
  return out;
}

JsonValue histogram_to_json(const Histogram& histogram) {
  JsonValue out = JsonValue::object();
  out.set("count", histogram.count());
  out.set("sum_us", histogram.sum_us());
  out.set("max_us", histogram.max_us());
  JsonValue buckets = JsonValue::object();
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t n = histogram.bucket(b);
    if (n == 0) continue;
    const std::uint64_t upper = (std::uint64_t{1} << (b + 1)) - 1;
    buckets.set("le_" + std::to_string(upper) + "us", n);
  }
  out.set("buckets", std::move(buckets));
  return out;
}

namespace {

bool write_document(const JsonValue& doc, const std::string& path,
                    std::string* error) {
  const std::string text = doc.dump();
  if (path == "-") {
    std::fprintf(stderr, "%s\n", text.c_str());
    return true;
  }
  std::ofstream out(path);
  out << text << '\n';
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace

bool write_trace_file(const std::string& path, std::string* error) {
  return write_document(trace_to_json(), path, error);
}

bool write_metrics_file(const std::string& path, std::string* error) {
  return write_document(metrics_to_json(), path, error);
}

}  // namespace shufflebound::obs
