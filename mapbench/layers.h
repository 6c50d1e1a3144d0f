#pragma once
// Per-layer metrics of the traced run and the Amdahl ledger that reconciles
// them with the measured request time. Every layer cost is a public-call
// cost on the workload's own inputs (the configurations its sessions
// actually scored, read back through `export_cache()`), multiplied by
// counts the program already reports (engine, scheduler and per-report
// cache deltas).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/evaluation_engine.h"
#include "workload.h"

namespace mapbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What the timed phase counted, summed over distinct executions
/// (coalesced requests share their leader's report and add nothing).
struct phase_counts {
  double wall_s = 0.0;
  double cpu_s = 0.0;           ///< process user+system time in the phase
  std::size_t requests = 0;     ///< completed requests
  std::size_t executions = 0;   ///< distinct reports (requests - coalesced)
  mapcq::core::engine_stats search;      ///< summed report.search_cache
  mapcq::core::engine_stats validation;  ///< summed report.validation_cache
  std::size_t submitted = 0;    ///< scheduler counters, phase deltas
  std::size_t coalesced = 0;
  std::size_t restores = 0;     ///< sessions warm-started from disk
  std::size_t spills = 0;       ///< sessions snapshotted on eviction
  double submit_us = 0.0;       ///< mean time inside submit() (traced slices)
  double submit_cpu_us = 0.0;   ///< mean CPU time of the calling thread in submit()
  std::size_t submit_samples = 0;
  double summary_us = 0.0;      ///< mean summary() + to_text per report
  double traced_rps = 0.0;      ///< requests/s in traced slices
  double untraced_rps = 0.0;    ///< requests/s in untraced slices
  double traced_allocs = 0.0;   ///< operator new calls per request, traced slices
};

/// Probes every layer on the warm deployment after the timed phase and
/// returns the per-layer metrics (ledger included). Prints the ledger
/// table to `log`. `scratch_dir` holds probe snapshots; it must exist.
[[nodiscard]] std::vector<metric> measure_layers(const request_stream& stream, deployment& dep,
                                                 const phase_counts& phase,
                                                 const std::string& scratch_dir,
                                                 std::ostream& log);

}  // namespace mapbench
