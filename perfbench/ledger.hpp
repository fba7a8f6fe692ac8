// The per-layer ledger (--trace 1). Each traced run measures three things
// over one workload, splitting its --seconds between them:
//
//   untraced pass  the workload's closed loop with observability off
//   traced pass    the same loop with the obs registry on: the spans and
//                  counters the library records (queue waits, cache
//                  probes, kernel, refuter, pool and arena), nested per
//                  thread - the split of the program's own path
//   layer replay   the same seeded requests replayed on one thread, each
//                  layer's public entry point timed from outside in
//                  pipeline order (wire parse, network parse, fingerprint,
//                  one AnalysisEngine::execute on a miss, disk append, dump)
//
// trace.overhead_share compares the first two passes' throughput;
// trace.unaccounted_share compares the layer times with the traced pass's
// end-to-end latency. Every per-layer metric is emitted on every workload;
// a layer the workload never calls reads 0.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "bench.hpp"
#include "harness.hpp"

namespace perfbench {

/// prove-wide and certify-enum.
void trace_engine_workload(const Args& args,
                           const std::function<std::unique_ptr<Stream>(double)>& make_stream,
                           Outcome& out);
void trace_serve_mix(const Args& args, const std::string& scratch_dir, Outcome& out);
void trace_search_optimal(const Args& args, Outcome& out);

}  // namespace perfbench
