#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <utility>

#include "alloc_count.h"
#include "core/dynamic_transform.h"
#include "core/evolutionary.h"
#include "perf/characterizer.h"
#include "perf/concurrent_executor.h"
#include "serving/session_snapshot.h"
#include "util/rng.h"
#include "util/strings.h"

namespace mapbench {

using namespace mapcq;
using clock_type = std::chrono::steady_clock;

namespace {

/// Configurations per network the probes replay (strided over the export).
constexpr std::size_t kProbeConfigs = 64;
/// Repetitions of each probe loop; the reported cost is the median rep.
constexpr std::size_t kReps = 5;
/// Stream prefix whose searches are replayed on the warm engine.
constexpr std::size_t kSearchReplays = 4;
/// GBT size of the surrogate probe on analytic-only workloads.
constexpr std::size_t kProbeGbtSamples = 1000;

double since_us(clock_type::time_point t0) {
  return std::chrono::duration<double, std::micro>(clock_type::now() - t0).count();
}

/// Median over kReps of the mean per-call time of `body(k)` for k < n (µs).
template <class F>
double per_call_us(std::size_t n, F&& body) {
  std::vector<double> reps;
  for (std::size_t r = 0; r < kReps; ++r) {
    const auto t0 = clock_type::now();
    for (std::size_t k = 0; k < n; ++k) body(k);
    reps.push_back(since_us(t0) / static_cast<double>(std::max<std::size_t>(n, 1)));
  }
  std::nth_element(reps.begin(), reps.begin() + kReps / 2, reps.end());
  return reps[kReps / 2];
}

std::vector<core::configuration> strided(const std::vector<core::evaluation>& entries) {
  std::vector<core::configuration> out;
  const std::size_t step = std::max<std::size_t>(1, entries.size() / kProbeConfigs);
  for (std::size_t k = 0; k < entries.size() && out.size() < kProbeConfigs; k += step)
    out.push_back(entries[k].config);
  return out;
}

/// Unit costs measured on one network's probe session.
struct unit_costs {
  double evaluate_us = 0, batch_us = 0, transform_us = 0, simulate_us = 0, characterize_us = 0;
  double hit_us = 0, hit_allocs = 0, miss_overhead_us = 0;
  double copy_ns = 0, hash_ns = 0, copy_allocs = 0, decode_us = 0;
  double surrogate_evaluate_us = 0;
  std::size_t configs = 0;
};

unit_costs probe_session(serving::mapping_session& session,
                         const std::vector<core::configuration>& configs) {
  unit_costs u;
  u.configs = configs.size();
  if (configs.empty()) return u;
  const std::size_t n = configs.size();
  core::evaluation_engine& engine = session.analytic_engine();
  const core::evaluator& eval = engine.base();

  u.evaluate_us = per_call_us(n, [&](std::size_t k) { (void)eval.evaluate(configs[k]); });
  std::vector<const core::configuration*> ptrs;
  for (const core::configuration& c : configs) ptrs.push_back(&c);
  u.batch_us = per_call_us(1, [&](std::size_t) { (void)eval.evaluate_batch(ptrs); }) /
               static_cast<double>(n);

  std::vector<core::dynamic_network> dyns(n);
  std::vector<perf::execution_result> execs(n);
  const soc::platform& plat = session.plat();
  u.transform_us = per_call_us(n, [&](std::size_t k) {
    dyns[k] = core::transform(session.net(), eval.groups(), eval.ranking(), configs[k], plat,
                              eval.options().reorder);
  });
  u.simulate_us = per_call_us(
      n, [&](std::size_t k) { execs[k] = perf::simulate(plat, dyns[k].plan, eval.options().model); });
  u.characterize_us = per_call_us(n, [&](std::size_t k) {
    (void)perf::characterize_system(execs[k], dyns[k].plan, plat);
  });

  // Warm hits: every probe configuration came out of this engine's cache.
  const std::uint64_t a0 = allocations();
  set_alloc_counting(true);
  for (const core::configuration& c : configs) (void)engine.evaluate(c);
  set_alloc_counting(false);
  u.hit_allocs = static_cast<double>(allocations() - a0) / static_cast<double>(n);
  u.hit_us = per_call_us(n, [&](std::size_t k) { (void)engine.evaluate(configs[k]); });

  // Cold misses through an engine built like the session's, in one batch
  // (the GA's path), net of the raw batched evaluator.
  std::vector<double> cold;
  for (std::size_t r = 0; r < kReps; ++r) {
    core::evaluation_engine fresh{eval, engine.options()};
    const auto t0 = clock_type::now();
    (void)fresh.evaluate_batch(configs);
    cold.push_back(since_us(t0) / static_cast<double>(n));
  }
  std::nth_element(cold.begin(), cold.begin() + kReps / 2, cold.end());
  u.miss_overhead_us = cold[kReps / 2] - u.batch_us;

  std::vector<core::configuration> copies(n);
  const std::uint64_t c0 = allocations();
  set_alloc_counting(true);
  for (std::size_t k = 0; k < n; ++k) copies[k] = configs[k];
  set_alloc_counting(false);
  u.copy_allocs = static_cast<double>(allocations() - c0) / static_cast<double>(n);
  u.copy_ns = 1e3 * per_call_us(n, [&](std::size_t k) {
                core::configuration copy = configs[k];
                copies[k] = std::move(copy);
              });
  std::size_t sink = 0;
  u.hash_ns = 1e3 * per_call_us(n, [&](std::size_t k) { sink += configs[k].hash(); });
  if (sink == 42) std::fputs("", stderr);  // keep the hashes observable

  util::rng gen{0xDEC0DE};
  std::vector<core::genome> genomes;
  for (std::size_t k = 0; k < n; ++k) genomes.push_back(session.space().random(gen));
  u.decode_us = per_call_us(n, [&](std::size_t k) { (void)session.space().decode(genomes[k]); });
  return u;
}

/// First request of `stream` per network whose session is contention-free:
/// the probe sessions whose evaluators the decomposition runs on.
std::vector<serving::mapping_request> probe_requests(const request_stream& stream) {
  std::vector<serving::mapping_request> out;
  for (const serving::mapping_request& req : stream.session_requests()) {
    if (!req.eval.contention.idle()) continue;
    const bool seen = std::any_of(out.begin(), out.end(),
                                  [&](const auto& r) { return r.network == req.network; });
    if (!seen) out.push_back(req);
  }
  return out;
}

double mean_of(const std::vector<unit_costs>& u, double unit_costs::*field) {
  double s = 0.0;
  for (const unit_costs& x : u) s += x.*field;
  return u.empty() ? 0.0 : s / static_cast<double>(u.size());
}

}  // namespace

std::vector<metric> measure_layers(const request_stream& stream, deployment& dep,
                                   const phase_counts& phase, const std::string& scratch_dir,
                                   std::ostream& log) {
  namespace fs = std::filesystem;
  serving::mapping_service& service = *dep.service;
  const bool surrogate = stream.kind() == workload::surrogate_search;
  const double requests = static_cast<double>(std::max<std::size_t>(phase.requests, 1));
  const double exec_share = static_cast<double>(phase.executions) / requests;
  const std::vector<serving::mapping_request> probes = probe_requests(stream);

  // --- surrogate: the workload's own GBT, or a small probe GBT -------------
  double train_s = dep.surrogate_train_s;
  std::optional<serving::mapping_service> probe_service;
  std::vector<const core::evaluator*> surrogate_evals;
  for (const serving::mapping_request& req : probes) {
    if (surrogate) {
      surrogate_evals.push_back(
          &service.session_for(req)->surrogate_engine(req.bench, req.gbt).base());
      continue;
    }
    if (!probe_service) {
      probe_service.emplace(service_options_for(stream.kind(), ""));
      dep.tb->register_in(*probe_service);
      train_s = 0.0;
    }
    surrogate::benchmark_options bench = req.bench;
    bench.samples = kProbeGbtSamples;
    const auto t0 = clock_type::now();
    core::evaluation_engine& eng = probe_service->session_for(req)->surrogate_engine(bench, req.gbt);
    train_s += since_us(t0) * 1e-6 / static_cast<double>(probes.size());
    surrogate_evals.push_back(&eng.base());
  }

  // --- unit costs on the configurations the workload scored ----------------
  std::vector<unit_costs> units;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    const std::shared_ptr<serving::mapping_session> session = service.session_for(probes[p]);
    std::vector<core::configuration> configs = strided(session->analytic_engine().export_cache());
    units.push_back(probe_session(*session, configs));
    // The surrogate's cost on what it scores: its own cache on
    // surrogate_search, the analytic configurations elsewhere.
    if (surrogate)
      configs =
          strided(session->surrogate_engine(probes[p].bench, probes[p].gbt).export_cache());
    units.back().surrogate_evaluate_us = per_call_us(
        configs.size(), [&](std::size_t k) { (void)surrogate_evals[p]->evaluate(configs[k]); });
  }
  const auto avg = [&](double unit_costs::*f) { return mean_of(units, f); };
  std::size_t probe_configs = 0;
  for (const unit_costs& u : units) probe_configs += u.configs;
  const double hit_us = avg(&unit_costs::hit_us);
  const double miss_overhead_us = avg(&unit_costs::miss_overhead_us);
  const double batch_us = avg(&unit_costs::batch_us);
  const double evaluate_us = avg(&unit_costs::evaluate_us);
  const double sur_us = avg(&unit_costs::surrogate_evaluate_us);
  const double finish_us = evaluate_us - avg(&unit_costs::transform_us) -
                           avg(&unit_costs::simulate_us) - avg(&unit_costs::characterize_us);

  // --- infeasible share over every session's distinct evaluations ---------
  std::size_t scored = 0;
  std::size_t infeasible = 0;
  for (const serving::mapping_request& req : stream.session_requests()) {
    for (const core::evaluation& e : service.session_for(req)->analytic_engine().export_cache()) {
      ++scored;
      if (!e.feasible) ++infeasible;
    }
  }

  // --- search loop: replay the stream prefix on the warm engines -----------
  double self_ms_sum = 0.0;
  std::size_t replays = 0;
  for (std::size_t i = 0; i < std::min(kSearchReplays, phase.requests); ++i) {
    const serving::mapping_request req = stream.at(i);
    const std::shared_ptr<serving::mapping_session> session = service.session_for(req);
    core::evaluation_engine& engine = surrogate
                                          ? session->surrogate_engine(req.bench, req.gbt)
                                          : session->analytic_engine();
    const auto t0 = clock_type::now();
    const core::ga_result res = core::evolve(session->space(), engine, req.ga);
    const double wall_us = since_us(t0);
    const double served = static_cast<double>(res.cache.lookups() - res.cache.misses);
    const double miss_us = surrogate ? sur_us : batch_us + miss_overhead_us;
    self_ms_sum +=
        1e-3 * (wall_us - served * hit_us - static_cast<double>(res.cache.misses) * miss_us);
    ++replays;
  }
  const double search_self_ms = replays ? self_ms_sum / static_cast<double>(replays) : 0.0;

  // --- session registry and snapshots --------------------------------------
  const serving::mapping_request& key_req = probes.front();
  const std::size_t resolves = 200;
  const double resolve_us = per_call_us(resolves, [&](std::size_t) {
    (void)service.session_for(key_req);
  });
  const fs::path probe_dir = fs::path(scratch_dir) / "probe-snapshots";
  fs::create_directories(probe_dir);
  const std::shared_ptr<serving::mapping_session> snap_session = service.session_for(key_req);
  const fs::path snap_path = probe_dir / serving::snapshot_filename(snap_session->key());
  const double spill_ms = 1e-3 * per_call_us(1, [&](std::size_t) {
    serving::save_snapshot(snap_path.string(), snap_session->snapshot());
  });
  const double snapshot_kb = static_cast<double>(fs::file_size(snap_path)) / 1024.0;
  serving::service_options restore_opt = service_options_for(stream.kind(), "");
  restore_opt.snapshot.directory = probe_dir.string();
  restore_opt.snapshot.restore_on_miss = true;
  std::size_t restored = 0;
  std::vector<double> restore_reps;
  for (std::size_t r = 0; r < kReps; ++r) {
    serving::mapping_service restorer{restore_opt};
    dep.tb->register_in(restorer);
    const auto t0 = clock_type::now();
    (void)restorer.session_for(key_req);
    restore_reps.push_back(1e-3 * since_us(t0));
    restored += restorer.sessions_restored();
  }
  std::nth_element(restore_reps.begin(), restore_reps.begin() + kReps / 2, restore_reps.end());
  const double restore_ms = restore_reps[kReps / 2] - dep.session_create_ms;
  if (restored != kReps) log << "warning: probe snapshot did not restore\n";
  fs::remove_all(probe_dir);

  // --- engine footprint and per-request counts -----------------------------
  const core::engine_stats totals = service.engine_totals();
  const core::engine_stats& s = phase.search;
  const core::engine_stats& v = phase.validation;
  const double lookups = static_cast<double>(s.lookups() + v.lookups());
  const double misses = static_cast<double>(s.misses + v.misses);
  const double hit_rate = lookups > 0 ? 1.0 - misses / lookups : 0.0;

  // --- the ledger: attributed CPU time per request by layer (ms) ----------
  // CPU terms throughout: time submit() spends blocked on the registry
  // lock is waiting, not work, and shows in scheduler.submit_us instead.
  const double scheduler_ms = 1e-3 * phase.submit_cpu_us;
  const double session_ms = exec_share * 1e-3 * resolve_us +
                            static_cast<double>(phase.restores) / requests * restore_ms +
                            static_cast<double>(phase.spills) / requests * spill_ms;
  const double search_ms = exec_share * search_self_ms;
  const double engine_ms =
      1e-3 * ((lookups - misses) * hit_us + misses * miss_overhead_us) / requests;
  const double evaluator_ms =
      1e-3 *
      (surrogate ? static_cast<double>(s.misses) * sur_us + static_cast<double>(v.misses) * batch_us
                 : misses * batch_us) /
      requests;
  const double report_ms = 1e-3 * phase.summary_us;
  const double attributed_ms =
      scheduler_ms + session_ms + search_ms + engine_ms + evaluator_ms + report_ms;
  const double measured_ms = 1e3 * phase.cpu_s / requests;
  const double wall_ms = 1e3 * phase.wall_s / requests;
  const double unattributed = measured_ms > 0 ? 1.0 - attributed_ms / measured_ms : 0.0;

  log << util::format(
      "layer ledger (%s, per request, CPU ms; %zu requests, %zu executions):\n",
      name_of(stream.kind()), phase.requests, phase.executions);
  const auto row = [&](const char* layer, double ms) {
    log << util::format("  %-22s %10.4f ms  %6.1f%%\n", layer, ms,
                        measured_ms > 0 ? 100.0 * ms / measured_ms : 0.0);
  };
  row("serving.scheduler", scheduler_ms);
  row("serving.session", session_ms);
  row("core.search (self)", search_ms);
  row("core.engine", engine_ms);
  row(surrogate ? "evaluator+surrogate" : "core.evaluator", evaluator_ms);
  row("serving.report", report_ms);
  row("attributed", attributed_ms);
  row("measured (CPU)", measured_ms);
  log << util::format("  %-22s %10.4f ms  (wall per request; cpu/wall %.2f)\n", "wall",
                      wall_ms, phase.wall_s > 0 ? phase.cpu_s / phase.wall_s : 0.0);
  log << util::format("  unattributed: %.1f%% of measured CPU time\n", 100.0 * unattributed);

  const auto share = [&](double ms) { return measured_ms > 0 ? ms / measured_ms : 0.0; };
  const std::size_t n_req = phase.requests;
  const std::size_t n_cfg = probe_configs;
  return {
      {"scheduler.submit_us", phase.submit_us, "us", phase.submit_samples},
      {"scheduler.submit_cpu_us", phase.submit_cpu_us, "us", phase.submit_samples},
      {"scheduler.coalesced_frac",
       phase.submitted ? static_cast<double>(phase.coalesced) / static_cast<double>(phase.submitted)
                       : 0.0,
       "frac", phase.submitted},
      {"session.resolve_us", resolve_us, "us", resolves},
      {"session.create_ms", dep.session_create_ms, "ms", stream.session_requests().size()},
      {"session.spill_ms", spill_ms, "ms", kReps},
      {"session.restore_ms", restore_ms, "ms", kReps},
      {"session.snapshot_kb", snapshot_kb, "kB", 1},
      {"session.restores_per_request", static_cast<double>(phase.restores) / requests, "count",
       n_req},
      {"search.self_ms", search_self_ms, "ms", replays},
      {"search.lookups_per_request", static_cast<double>(s.lookups()) / requests, "count", n_req},
      {"space.decode_us", avg(&unit_costs::decode_us), "us", n_cfg},
      {"engine.hit_us", hit_us, "us", n_cfg},
      {"engine.hit_allocs", avg(&unit_costs::hit_allocs), "count", n_cfg},
      {"engine.miss_overhead_us", miss_overhead_us, "us", n_cfg},
      {"engine.hit_rate", hit_rate, "frac", static_cast<std::size_t>(lookups)},
      {"engine.evaluator_runs_per_request", misses / requests, "count", n_req},
      {"engine.cache_mb", static_cast<double>(totals.cache_bytes) / 1e6, "MB", 1},
      {"config.copy_ns", avg(&unit_costs::copy_ns), "ns", n_cfg},
      {"config.hash_ns", avg(&unit_costs::hash_ns), "ns", n_cfg},
      {"config.copy_allocs", avg(&unit_costs::copy_allocs), "count", n_cfg},
      {"evaluator.evaluate_us", evaluate_us, "us", n_cfg},
      {"evaluator.batch_us", batch_us, "us", n_cfg},
      {"evaluator.transform_us", avg(&unit_costs::transform_us), "us", n_cfg},
      {"evaluator.finish_us", finish_us, "us", n_cfg},
      {"evaluator.infeasible_frac",
       scored ? static_cast<double>(infeasible) / static_cast<double>(scored) : 0.0, "frac",
       scored},
      {"perf.simulate_us", avg(&unit_costs::simulate_us), "us", n_cfg},
      {"perf.characterize_us", avg(&unit_costs::characterize_us), "us", n_cfg},
      {"surrogate.train_s", train_s, "s", probes.size()},
      {"surrogate.evaluate_us", sur_us, "us", n_cfg},
      {"surrogate.validation_runs_per_request", static_cast<double>(v.misses) / requests, "count",
       n_req},
      {"report.summary_us", phase.summary_us, "us", n_req},
      {"ledger.scheduler_share", share(scheduler_ms), "frac", n_req},
      {"ledger.session_share", share(session_ms), "frac", n_req},
      {"ledger.search_share", share(search_ms), "frac", n_req},
      {"ledger.engine_share", share(engine_ms), "frac", n_req},
      {"ledger.evaluator_share", share(evaluator_ms), "frac", n_req},
      {"ledger.report_share", share(report_ms), "frac", n_req},
      {"ledger.attributed_ms", attributed_ms, "ms", n_req},
      {"ledger.measured_ms", measured_ms, "ms", n_req},
      {"ledger.unattributed_frac", unattributed, "frac", n_req},
      {"ledger.cpu_per_wall", phase.wall_s > 0 ? phase.cpu_s / phase.wall_s : 0.0, "ratio", 1},
      {"trace.allocs_per_request", phase.traced_allocs, "count", n_req},
      {"trace.overhead_frac",
       phase.untraced_rps > 0 ? 1.0 - phase.traced_rps / phase.untraced_rps : 0.0, "frac", n_req},
  };
}

}  // namespace mapbench
