#pragma once
// Output correctness of the benchmark: byte-identity of reports that share
// a request fingerprint, the direct-map() cross-check on a fresh service,
// the run digest and the model-output metrics derived from the sampled
// reports.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serving/mapping_service.h"
#include "workload.h"

namespace mapbench {

/// The canonical bytes of a report: `core::to_text(report.summary())`
/// without the scheduler note, whose counters record *when* a submit()
/// ran (queue depth, completions so far), not what it computed. A direct
/// map() report carries no note at all.
[[nodiscard]] std::string report_text(const mapcq::serving::mapping_report& report);

/// A usable answer: a non-empty validated front whose entries are all
/// feasible on the analytic model.
[[nodiscard]] bool front_valid(const mapcq::serving::mapping_report& report);

/// FNV-1a over `bytes`, chained from `h`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL) noexcept;

/// Thread-safe byte-identity check across every report of a run: the first
/// report of a fingerprint is the reference, each later one must match it.
/// References are kept as (length, FNV-1a) pairs, so a long run holds no
/// report text.
class report_checker {
 public:
  enum class verdict { reference, match, mismatch, invalid };
  /// Records one report: the first valid report of a fingerprint becomes
  /// its reference, later ones match it or not; invalid ones (see
  /// front_valid) are only counted.
  verdict check(const std::string& fingerprint, const std::string& text, bool valid);
  [[nodiscard]] std::size_t mismatches() const;
  [[nodiscard]] std::size_t invalid() const;

 private:
  mutable std::mutex mu_;
  struct digest {
    std::size_t size = 0;
    std::uint64_t hash = 0;
    bool operator==(const digest&) const = default;
  };
  std::unordered_map<std::string, digest> reference_;  ///< fingerprint -> text digest
  std::size_t mismatches_ = 0;
  std::size_t invalid_ = 0;
};

/// Simulated model outputs over a workload's sampled requests. They are
/// functions of the seed alone and are not validated against hardware.
struct model_outputs {
  double front_hv = 0.0;             ///< mean normalized front hypervolume
  double energy_gain_vs_gpu = 0.0;   ///< geomean GPU-only energy / Ours-E energy
  double latency_gain_vs_dla = 0.0;  ///< geomean DLA-only latency / Ours-L latency
};

/// Running accumulator of model_outputs, one report at a time.
class output_accumulator {
 public:
  void add(const request_stream& stream, const mapcq::serving::mapping_report& report);
  [[nodiscard]] model_outputs result() const;

 private:
  std::size_t n_ = 0;
  double hv_sum_ = 0.0;
  double log_energy_sum_ = 0.0;
  double log_latency_sum_ = 0.0;
};

/// Result of serving the sampled requests on a fresh service with map().
struct sample_result {
  std::size_t requests = 0;  ///< sampled requests served
  std::size_t compared = 0;  ///< of those, fingerprints the checker had seen
  std::uint64_t digest = 0;  ///< fnv1a over the report texts, in sample order
  model_outputs outputs;
};

/// Serves `stream.sample_requests()` through `fresh.map()` and hands every
/// report to `checker`, so each one is compared with the timed phase's
/// report of the same fingerprint when there was one.
[[nodiscard]] sample_result run_sample(const request_stream& stream,
                                       mapcq::serving::mapping_service& fresh,
                                       report_checker& checker);

}  // namespace mapbench
