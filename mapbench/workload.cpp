#include "workload.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/baselines.h"
#include "nn/models.h"
#include "perf/calibration.h"
#include "util/rng.h"

namespace mapbench {

using namespace mapcq;
using clock_type = std::chrono::steady_clock;

namespace {

constexpr std::size_t kNetworks = 2;
/// Request classes of the mixed fresh-search traffic, per network: two
/// unconstrained, one reuse-capped with a tight latency target (many
/// rejected candidates), one co-located with a resident and a DVFS cap.
constexpr std::size_t kClasses = 4;
constexpr std::size_t kMixedSlots = kNetworks * kClasses;
/// warm_repeat catalogue: each request class with this many GA seeds.
constexpr std::size_t kWarmSeedsPerSlot = 4;
/// session_churn: ranking seeds per network (each keys its own session)
/// and catalogue requests per session key.
constexpr std::size_t kChurnSeeds = 3;
constexpr std::size_t kChurnPerKey = 2;
/// Length of the precomputed session_churn order; a run never gets near it
/// (positions past it wrap around).
constexpr std::size_t kChurnOrder = std::size_t{1} << 16;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

}  // namespace

std::optional<workload> parse_workload(std::string_view name) {
  for (workload wl : {workload::cold_search, workload::warm_repeat, workload::surrogate_search,
                      workload::session_churn})
    if (name == name_of(wl)) return wl;
  return std::nullopt;
}

const char* name_of(workload wl) {
  switch (wl) {
    case workload::cold_search: return "cold_search";
    case workload::warm_repeat: return "warm_repeat";
    case workload::surrogate_search: return "surrogate_search";
    case workload::session_churn: return "session_churn";
  }
  return "?";
}

testbed::testbed() : visformer(nn::build_visformer()), vgg19(nn::build_vgg19()) {
  xavier = perf::calibrated_xavier(visformer, vgg19).plat;
}

void testbed::register_in(serving::mapping_service& service) const {
  service.register_platform(xavier);
  service.register_network(visformer);
  service.register_network(vgg19);
}

std::vector<network_refs> make_refs(const testbed& tb) {
  std::vector<network_refs> out;
  for (const nn::network* net : {&tb.visformer, &tb.vgg19}) {
    network_refs r;
    r.name = net->name;
    double worst_lat = 0.0;
    double worst_energy = 0.0;
    for (std::size_t u = 0; u < tb.xavier.size(); ++u) {
      const core::baseline_result b = core::single_cu_baseline(*net, tb.xavier, u);
      worst_lat = std::max(worst_lat, b.latency_ms);
      worst_energy = std::max(worst_energy, b.energy_mj);
      if (u == 0) r.gpu_energy_mj = b.energy_mj;
      if (u == 1) r.dla_latency_ms = b.latency_ms;
      if (u == 0) r.tight_latency_ms = 1.5 * b.latency_ms;
    }
    r.hv_ref = {2.0 * worst_lat, 2.0 * worst_energy, 100.0};
    r.gpu_dvfs_cap = tb.xavier.unit(0).dvfs.max_level() / 2;
    out.push_back(std::move(r));
  }
  return out;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

request_stream::request_stream(workload wl, std::uint64_t seed, std::vector<network_refs> refs)
    : wl_(wl), seed_(seed), refs_(std::move(refs)) {
  if (refs_.size() != kNetworks) throw std::invalid_argument("request_stream: need two networks");
  if (wl_ == workload::warm_repeat) {
    for (std::size_t s = 0; s < kMixedSlots * kWarmSeedsPerSlot; ++s)
      catalogue_.push_back(mixed_request(s % kMixedSlots, mix(seed_, 0xCA7A000 + s)));
  } else if (wl_ == workload::session_churn) {
    for (std::size_t n = 0; n < kNetworks; ++n) {
      for (std::size_t k = 0; k < kChurnSeeds; ++k) {
        for (std::size_t j = 0; j < kChurnPerKey; ++j) {
          serving::mapping_request req;
          req.network = refs_[n].name;
          req.use_surrogate = false;
          req.ga.generations = 12;
          req.ga.population = 24;
          req.ranking_seed = mix(seed_, 0xC4A2000 + k);
          req.ga.seed = mix(seed_, 0xC4A3000 + (n * kChurnSeeds + k) * kChurnPerKey + j);
          catalogue_.push_back(std::move(req));
        }
      }
    }
    // A seeded walk over the session keys that never revisits either of the
    // two keys served last. With max_sessions = 2 those are exactly the live
    // sessions, so every request restores one session and spills another:
    // the restore share is a property of the workload, not of the seed.
    const std::size_t keys = catalogue_.size() / kChurnPerKey;
    std::vector<std::size_t> visits(keys, 0);
    std::size_t last[2] = {keys, keys};
    util::rng gen{mix(seed_, 0xC4A4000)};
    for (std::size_t i = 0; i < kChurnOrder; ++i) {
      std::vector<std::size_t> allowed;
      for (std::size_t k = 0; k < keys; ++k)
        if (k != last[0] && k != last[1]) allowed.push_back(k);
      const std::size_t k = allowed[static_cast<std::size_t>(
          gen.uniform_int(0, static_cast<std::int64_t>(allowed.size()) - 1))];
      churn_order_.push_back(k * kChurnPerKey + visits[k]++ % kChurnPerKey);
      last[1] = last[0];
      last[0] = k;
    }
  }
}

const network_refs& request_stream::refs_for(const std::string& network) const {
  for (const network_refs& r : refs_)
    if (r.name == network) return r;
  throw std::invalid_argument("request_stream: unknown network " + network);
}

serving::mapping_request request_stream::mixed_request(std::size_t slot,
                                                       std::uint64_t ga_seed) const {
  const network_refs& net = refs_[slot / kClasses];
  serving::mapping_request req;
  req.network = net.name;
  req.use_surrogate = false;
  req.ga.generations = 30;
  req.ga.population = 40;
  req.ga.seed = ga_seed;
  switch (slot % kClasses) {
    case 2:
      req.eval.limits.fmap_reuse_cap = 0.5;
      req.eval.limits.latency_target_ms = net.tight_latency_ms;
      break;
    case 3: {
      soc::resident_load resident;
      resident.name = "resident";
      resident.interconnect_gbps = 4.0;
      resident.dram_gbps = 12.0;
      resident.power_w = 6.0;
      req.eval.contention.residents.push_back(resident);
      req.eval.contention.dvfs_cap = {net.gpu_dvfs_cap};
      break;
    }
    default: break;
  }
  return req;
}

std::size_t request_stream::slot_at(std::size_t i, std::size_t round_size,
                                    std::size_t entries) const {
  // Round r is a seeded shuffle of `round_size` slots holding every entry
  // round_size / entries times: exact shares, seeded order.
  std::vector<std::size_t> round(round_size);
  for (std::size_t k = 0; k < round_size; ++k) round[k] = k % entries;
  util::rng gen{mix(seed_, 0x5107000 + i / round_size)};
  for (std::size_t k = round_size; k > 1; --k)
    std::swap(round[k - 1], round[static_cast<std::size_t>(
                                gen.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
  return round[i % round_size];
}

serving::mapping_request request_stream::at(std::size_t i) const {
  switch (wl_) {
    case workload::cold_search:
      return mixed_request(slot_at(i, kMixedSlots, kMixedSlots), mix(seed_, i));
    case workload::warm_repeat:
      // Every entry twice per round, so two clients sometimes pick the same
      // entry back to back and coalesce.
      return catalogue_[slot_at(i, 2 * catalogue_.size(), catalogue_.size())];
    case workload::session_churn:
      return catalogue_[churn_order_[i % churn_order_.size()]];
    case workload::surrogate_search: {
      serving::mapping_request req;  // the paper flow: default request
      req.network = refs_[slot_at(i, kNetworks, kNetworks)].name;
      req.ga.generations = 10;
      req.ga.population = 20;
      req.ga.seed = mix(seed_, i);
      return req;
    }
  }
  throw std::logic_error("request_stream: unknown workload");
}

std::vector<serving::mapping_request> request_stream::session_requests() const {
  std::vector<serving::mapping_request> out;
  switch (wl_) {
    case workload::cold_search:
    case workload::warm_repeat:
      for (std::size_t s = 0; s < kMixedSlots; ++s)
        if (s % kClasses != 1) out.push_back(mixed_request(s, 1));  // class 1 shares class 0's
      break;
    case workload::surrogate_search:
      for (std::size_t n = 0; n < kNetworks; ++n) out.push_back(at(n));
      std::sort(out.begin(), out.end(),
                [](const auto& a, const auto& b) { return a.network < b.network; });
      break;
    case workload::session_churn:
      for (std::size_t k = 0; k < catalogue_.size(); k += kChurnPerKey)
        out.push_back(catalogue_[k]);
      break;
  }
  return out;
}

std::vector<serving::mapping_request> request_stream::sample_requests() const {
  if (!catalogue_.empty()) return catalogue_;
  // Large enough that the model-output metrics, means over the sample,
  // vary little from seed to seed.
  const std::size_t n = wl_ == workload::cold_search ? 4 * kMixedSlots : 8 * kNetworks;
  std::vector<serving::mapping_request> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(at(i));
  return out;
}

serving::service_options service_options_for(workload wl, const std::string& snapshot_dir) {
  serving::service_options opt;
  opt.workers = 1;
  opt.engine.threads = 2;
  if (wl == workload::session_churn) {
    opt.max_sessions = 2;
    opt.snapshot.directory = snapshot_dir;
    opt.snapshot.spill_on_evict = true;
    opt.snapshot.restore_on_miss = true;
  }
  return opt;
}

deployment set_up(const request_stream& stream, const std::string& snapshot_dir, bool warm) {
  const auto t0 = clock_type::now();
  deployment d;
  d.tb = std::make_unique<testbed>();
  d.service = std::make_unique<serving::mapping_service>(
      service_options_for(stream.kind(), snapshot_dir));
  d.tb->register_in(*d.service);

  const std::vector<serving::mapping_request> keys = stream.session_requests();
  double create_s = 0.0;
  for (const serving::mapping_request& req : keys) {
    const auto c0 = clock_type::now();
    (void)d.service->session_for(req);
    create_s += seconds_since(c0);
  }
  d.session_create_ms = 1e3 * create_s / static_cast<double>(keys.size());

  if (stream.kind() == workload::surrogate_search) {
    // One training per session, both networks at once (two threads).
    std::vector<double> train_s(keys.size(), 0.0);
    std::vector<std::exception_ptr> errors(keys.size());
    std::vector<std::thread> trainers;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      trainers.emplace_back([&, k] {
        try {
          const auto s0 = clock_type::now();
          (void)d.service->session_for(keys[k])->surrogate_engine(keys[k].bench, keys[k].gbt);
          train_s[k] = seconds_since(s0);
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
    for (std::thread& t : trainers) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    for (double s : train_s) d.surrogate_train_s += s / static_cast<double>(train_s.size());
  }

  if (warm)
    for (const serving::mapping_request& req : stream.catalogue()) (void)d.service->submit(req).get();
  d.seconds = seconds_since(t0);
  return d;
}

}  // namespace mapbench
