#pragma once
// The four traffic mixes of the mapping-service benchmark and the seeded
// request streams that drive them. Everything a workload sends is a pure
// function of (workload, seed, request index): the service only ever sees
// the generated `mapping_request`s.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nn/graph.h"
#include "serving/mapping_service.h"
#include "soc/platform.h"

namespace mapbench {

enum class workload { cold_search, warm_repeat, surrogate_search, session_churn };

[[nodiscard]] std::optional<workload> parse_workload(std::string_view name);
[[nodiscard]] const char* name_of(workload wl);

/// Calibrated Xavier plus the two paper networks.
struct testbed {
  testbed();
  /// Registers the platform and both networks with `service`.
  void register_in(mapcq::serving::mapping_service& service) const;
  mapcq::nn::network visformer;
  mapcq::nn::network vgg19;
  mapcq::soc::platform xavier;
};

/// Fixed per-network constants the streams and the model-output metrics
/// use: single-CU baselines, the hypervolume reference point and the tight
/// latency target of the constrained request class.
struct network_refs {
  std::string name;
  double gpu_energy_mj = 0.0;   ///< GPU-only baseline energy (paper: 2.1x)
  double dla_latency_ms = 0.0;  ///< DLA-only baseline latency (paper: 1.7x)
  /// (avg latency ms, avg energy mJ, 100 - accuracy %), all minimized.
  std::vector<double> hv_ref;
  double tight_latency_ms = 0.0;
  std::size_t gpu_dvfs_cap = 0;  ///< DVFS cap of the co-location class
};

[[nodiscard]] std::vector<network_refs> make_refs(const testbed& tb);

/// 64-bit mixer used to derive per-index seeds (splitmix64 finalizer).
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept;

/// The seeded request stream of one workload.
class request_stream {
 public:
  request_stream(workload wl, std::uint64_t seed, std::vector<network_refs> refs);

  [[nodiscard]] workload kind() const noexcept { return wl_; }
  [[nodiscard]] const network_refs& refs_for(const std::string& network) const;

  /// The i-th request the clients send.
  [[nodiscard]] mapcq::serving::mapping_request at(std::size_t i) const;

  /// Requests served once during set-up (warm_repeat, session_churn); the
  /// timed phase replays exactly these. Empty for the fresh-search mixes.
  [[nodiscard]] const std::vector<mapcq::serving::mapping_request>& catalogue() const noexcept {
    return catalogue_;
  }

  /// One request per distinct session the workload touches, in a fixed
  /// order: set-up creates (and, for surrogate_search, trains) these.
  [[nodiscard]] std::vector<mapcq::serving::mapping_request> session_requests() const;

  /// Requests sampled for the direct-map() cross-check and the model-output
  /// metrics: the catalogue when there is one, else a fixed stream prefix.
  [[nodiscard]] std::vector<mapcq::serving::mapping_request> sample_requests() const;

 private:
  /// Request class `slot` of the mixed fresh-search classes (see the .cpp).
  [[nodiscard]] mapcq::serving::mapping_request mixed_request(std::size_t slot,
                                                              std::uint64_t ga_seed) const;
  /// Index of the request class/catalogue entry sent at position i, from a
  /// per-round seeded permutation so every class keeps its exact share.
  [[nodiscard]] std::size_t slot_at(std::size_t i, std::size_t round_size,
                                    std::size_t entries) const;

  workload wl_;
  std::uint64_t seed_;
  std::vector<network_refs> refs_;
  std::vector<mapcq::serving::mapping_request> catalogue_;
  /// session_churn: catalogue index per request position (see the .cpp).
  std::vector<std::size_t> churn_order_;
};

/// Service knobs shared by every workload: one dispatch worker, a
/// two-thread engine pool per session; session_churn adds the two-session
/// cap and the snapshot directory.
[[nodiscard]] mapcq::serving::service_options service_options_for(workload wl,
                                                                  const std::string& snapshot_dir);

/// One complete set-up: networks, calibration, service, registration,
/// session creation, surrogate training and warm-up traffic.
struct deployment {
  std::unique_ptr<testbed> tb;
  std::unique_ptr<mapcq::serving::mapping_service> service;
  double seconds = 0.0;
  double session_create_ms = 0.0;  ///< mean session_for() cost on a new key
  double surrogate_train_s = 0.0;  ///< mean per-session GBT training (0 if none)
};

/// `warm` serves the catalogue once through submit() (warm_repeat,
/// session_churn); without it the deployment has served no traffic.
[[nodiscard]] deployment set_up(const request_stream& stream, const std::string& snapshot_dir,
                                bool warm);

}  // namespace mapbench
