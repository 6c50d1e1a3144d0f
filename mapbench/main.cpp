// mapbench: the end-to-end benchmark of serving::mapping_service, driven
// from the outside through public calls only.
//
//   mapbench --workload <cold_search|warm_repeat|surrogate_search|session_churn>
//            --seed <n> --seconds <s> --trace <0|1>
//   mapbench --selftest
//
// One run: several full set-ups (their median is `setup_s`), a closed-loop
// timed phase of two clients against the service, a direct-map() cross-check
// of a sampled prefix on a fresh service, and — with --trace 1 — the layer
// probes and ledger. The last stdout line is one JSON object; the exit code
// is non-zero on any correctness failure. See README.md.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "check.h"
#include "layers.h"
#include "selftest.h"
#include "util/stats.h"
#include "util/strings.h"
#include "workload.h"

namespace {

using namespace mapcq;
using namespace mapbench;
using clock_type = std::chrono::steady_clock;

constexpr std::size_t kClients = 2;
/// Set-ups per run: at least kMinSetups, more while they total under
/// kSetupBudgetSeconds (cheap set-ups need many samples, spread over a few
/// seconds, for a median that does not follow the machine's slow and fast
/// spells), never more than kMaxSetups.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupBudgetSeconds = 3.0;
/// Traced runs alternate traced and untraced slices of this length, so
/// trace.overhead_frac compares like with like as caches warm up.
constexpr double kSliceSeconds = 0.25;
/// latency_p90_ms is the median, over windows of this length, of the p90
/// of the requests that completed in each window. A burst of load from
/// elsewhere on a shared host makes the requests it catches the slowest
/// tenth of the whole phase, so the whole phase's p90 measures the burst;
/// the median over windows does not, as long as bursts hit fewer than half
/// of the windows.
constexpr double kTailWindowSeconds = 1.0;

struct args {
  workload wl = workload::cold_search;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
};

std::optional<args> parse_args(int argc, char** argv) {
  args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string val = argv[++i];
    if (key == "--workload") {
      const std::optional<workload> wl = parse_workload(val);
      if (!wl) return std::nullopt;
      a.wl = *wl;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
      if (!(a.seconds > 0.0)) return std::nullopt;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!a.selftest && !have_workload) return std::nullopt;
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e6 * static_cast<double>(ts.tv_sec) + 1e-3 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> xs) { return util::percentile(std::move(xs), 50.0); }

/// Everything the timed phase observed.
struct phase_output {
  phase_counts counts;
  std::vector<double> latencies_ms;
  std::vector<double> done_s;  ///< completion time of each latency, from phase start
  std::size_t attempted = 0;
  std::size_t errors = 0;  ///< futures that threw (failed/rejected)
};

/// Remembers the last few report states so a coalesced submit, which
/// shares its leader's shared_future state, is counted once.
class execution_registry {
 public:
  bool first_of(const std::shared_future<serving::mapping_report>& f) {
    std::lock_guard lock{mu_};
    const serving::mapping_report* addr = &f.get();
    for (const auto& r : recent_)
      if (&r.get() == addr) return false;
    recent_.push_back(f);
    if (recent_.size() > 8) recent_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::deque<std::shared_future<serving::mapping_report>> recent_;  ///< pins the states
};

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

void add(core::engine_stats& into, const core::engine_stats& d) {
  into.hits += d.hits;
  into.misses += d.misses;
  into.dedup += d.dedup;
  into.inflight += d.inflight;
}

phase_output run_phase(const request_stream& stream, serving::mapping_service& service,
                       double seconds, bool trace, report_checker& checker) {
  phase_output out;
  const serving::scheduler_stats sched0 = service.scheduler();
  const std::size_t restores0 = service.sessions_restored();
  const std::size_t spills0 = service.sessions_spilled();

  std::mutex mu;  // guards `out` and the accumulators below
  execution_registry executions;
  double submit_us_sum = 0.0;
  double submit_cpu_us_sum = 0.0;
  double summary_us_sum = 0.0;
  std::size_t done_in_slice[2] = {0, 0};
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};

  const double cpu0 = cpu_seconds();
  const auto start = clock_type::now();
  const auto deadline = start + std::chrono::duration_cast<clock_type::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto slice_of = [&](clock_type::time_point t) -> std::size_t {
    if (!trace) return 0;
    const double s = std::chrono::duration<double>(t - start).count();
    return static_cast<std::size_t>(s / kSliceSeconds) % 2;  // 1 = traced
  };
  auto last_done = start;

  const auto client = [&] {
    while (clock_type::now() < deadline) {
      const std::size_t i = next.fetch_add(1);
      serving::mapping_request req = stream.at(i);
      const std::string fingerprint = serving::request_fingerprint(req);
      try {
        const auto t0 = clock_type::now();
        const bool traced = slice_of(t0) == 1;
        const double cpu_t0 = traced ? thread_cpu_us() : 0.0;
        std::shared_future<serving::mapping_report> fut = service.submit(std::move(req));
        const double submit_cpu_us = traced ? thread_cpu_us() - cpu_t0 : 0.0;
        const auto t1 = clock_type::now();
        const serving::mapping_report& report = fut.get();
        // Like a deployment pipeline, each client renders the report it
        // ships; the checker compares the bytes.
        const auto t2 = clock_type::now();
        const std::string text = report_text(report);
        const auto t3 = clock_type::now();
        (void)checker.check(fingerprint, text, front_valid(report));
        const bool leader = executions.first_of(fut);
        std::lock_guard lock{mu};
        ++out.attempted;
        ++out.counts.requests;
        out.latencies_ms.push_back(1e3 * std::chrono::duration<double>(t2 - t0).count());
        out.done_s.push_back(std::chrono::duration<double>(t2 - start).count());
        if (traced) {
          submit_us_sum += 1e6 * std::chrono::duration<double>(t1 - t0).count();
          submit_cpu_us_sum += submit_cpu_us;
          ++out.counts.submit_samples;
        }
        summary_us_sum += 1e6 * std::chrono::duration<double>(t3 - t2).count();
        ++done_in_slice[slice_of(t2)];
        last_done = std::max(last_done, t2);
        if (leader) {
          ++out.counts.executions;
          add(out.counts.search, report.search_cache);
          add(out.counts.validation, report.validation_cache);
        }
      } catch (...) {
        const std::string why = describe(std::current_exception());
        std::lock_guard lock{mu};
        ++out.attempted;
        ++out.errors;
        std::cerr << "mapbench: request " << i << " failed: " << why << "\n";
      }
    }
  };

  // Traced runs count allocations in the traced slices only.
  std::thread toggler;
  if (trace) {
    toggler = std::thread([&] {
      while (!stop.load()) {
        set_alloc_counting(slice_of(clock_type::now()) == 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      set_alloc_counting(false);
    });
  }
  const std::uint64_t allocs0 = allocations();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  stop.store(true);
  if (toggler.joinable()) toggler.join();

  phase_counts& pc = out.counts;
  pc.wall_s = std::chrono::duration<double>(last_done - start).count();
  pc.cpu_s = cpu_seconds() - cpu0;
  const serving::scheduler_stats sched1 = service.scheduler();
  pc.submitted = sched1.submitted - sched0.submitted;
  pc.coalesced = sched1.coalesced - sched0.coalesced;
  pc.restores = service.sessions_restored() - restores0;
  pc.spills = service.sessions_spilled() - spills0;
  const double n = static_cast<double>(std::max<std::size_t>(pc.requests, 1));
  pc.summary_us = summary_us_sum / n;
  if (pc.submit_samples) {
    pc.submit_us = submit_us_sum / static_cast<double>(pc.submit_samples);
    pc.submit_cpu_us = submit_cpu_us_sum / static_cast<double>(pc.submit_samples);
  }
  if (trace) {
    double parity_s[2] = {0.0, 0.0};
    for (std::size_t k = 0; static_cast<double>(k) * kSliceSeconds < pc.wall_s; ++k)
      parity_s[k % 2] += std::min(kSliceSeconds, pc.wall_s - static_cast<double>(k) * kSliceSeconds);
    if (parity_s[1] > 0.0) pc.traced_rps = static_cast<double>(done_in_slice[1]) / parity_s[1];
    if (parity_s[0] > 0.0) pc.untraced_rps = static_cast<double>(done_in_slice[0]) / parity_s[0];
    if (done_in_slice[1])
      pc.traced_allocs = static_cast<double>(allocations() - allocs0) /
                         static_cast<double>(done_in_slice[1]);
  }
  return out;
}

/// The median over the phase's whole kTailWindowSeconds windows of the p90
/// of each window's latencies; the whole phase's p90 when it is shorter
/// than one window.
double windowed_p90(const phase_output& phase) {
  if (phase.latencies_ms.empty()) return 0.0;
  const auto windows = static_cast<std::size_t>(phase.counts.wall_s / kTailWindowSeconds);
  if (windows == 0) return util::percentile(phase.latencies_ms, 90.0);
  std::vector<std::vector<double>> in_window(windows);
  for (std::size_t i = 0; i < phase.latencies_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(phase.done_s[i] / kTailWindowSeconds);
    if (w < windows) in_window[w].push_back(phase.latencies_ms[i]);
  }
  std::vector<double> window_p90;
  for (std::vector<double>& lat : in_window)
    if (!lat.empty()) window_p90.push_back(util::percentile(std::move(lat), 90.0));
  return median(std::move(window_p90));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_table(const std::vector<metric>& metrics) {
  for (const metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-40s %16.6g %-6s n=%zu", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    std::cout << line << "\n";
  }
}

std::string json_line(bool correct, std::size_t attempted, std::size_t failed,
                      const std::vector<metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << num(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

int run(const args& a) {
  namespace fs = std::filesystem;
  const fs::path scratch =
      fs::current_path() / ".mapbench_run" /
      (std::string(name_of(a.wl)) + "-" + std::to_string(static_cast<long>(getpid())));
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  struct cleanup {
    fs::path dir;
    ~cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
      fs::remove(dir.parent_path(), ec);  // only succeeds once empty
    }
  } remove_scratch{scratch};

  std::cout << "mapbench workload=" << name_of(a.wl) << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0) << "\n";

  // --- set-up, several times: setup_s is their median ----------------------
  // The timing-only set-ups run first, each dropped before the next starts
  // (surrogate_search keeps its first one as the fresh cross-check
  // service), so peak_rss_mb never counts more than two deployments.
  const request_stream stream{a.wl, a.seed, make_refs(testbed{})};
  const auto set_up_in = [&](std::size_t k) {
    const fs::path dir = scratch / ("snapshots-" + std::to_string(k));
    fs::create_directories(dir);
    return set_up(stream, dir.string(), /*warm=*/true);
  };
  std::vector<double> setup_s;
  std::optional<deployment> trained_spare;  // surrogate_search: the fresh service
  double setup_total_s = 0.0;
  while (setup_s.size() + 1 < kMaxSetups &&
         (setup_s.size() + 1 < kMinSetups || setup_total_s < kSetupBudgetSeconds)) {
    deployment d = set_up_in(setup_s.size() + 1);
    setup_s.push_back(d.seconds);
    setup_total_s += d.seconds;
    if (a.wl == workload::surrogate_search && !trained_spare) trained_spare.emplace(std::move(d));
  }
  std::optional<deployment> live{set_up_in(0)};
  setup_s.push_back(live->seconds);
  std::cout << "set-up: " << setup_s.size() << " runs, median " << median(setup_s) << " s\n";

  // --- timed phase ----------------------------------------------------------
  report_checker checker;
  const phase_output phase = run_phase(stream, *live->service, a.seconds, a.trace, checker);

  // --- sampled cross-check on a fresh service (no traffic served) ----------
  std::optional<serving::mapping_service> fresh_analytic;
  serving::mapping_service* fresh = nullptr;
  if (trained_spare) {
    fresh = trained_spare->service.get();
  } else {
    fresh = &fresh_analytic.emplace(service_options_for(a.wl, ""));
    live->tb->register_in(*fresh);
  }
  const std::size_t phase_mismatches = checker.mismatches();
  const std::size_t phase_invalid = checker.invalid();
  const sample_result sample = run_sample(stream, *fresh, checker);
  fresh_analytic.reset();
  trained_spare.reset();
  const double rss_mb = peak_rss_mb();

  const std::size_t failed = phase.errors + checker.invalid() + checker.mismatches();
  const std::size_t attempted = std::max<std::size_t>(phase.attempted, 1);
  const bool correct = failed == 0 && phase.counts.requests > 0;

  std::cout << util::format(
      "timed phase: %zu requests completed, %zu failed, %zu invalid fronts, %zu mismatches "
      "in %.3f s (%zu clients, closed loop; 1 worker, 2 engine threads)\n",
      phase.counts.requests, phase.errors, phase_invalid, phase_mismatches, phase.counts.wall_s,
      kClients);
  std::cout << util::format(
      "cross-check: %zu sampled requests on a fresh service, %zu compared, %zu mismatches, "
      "%zu invalid\n",
      sample.requests, sample.compared, checker.mismatches() - phase_mismatches,
      checker.invalid() - phase_invalid);
  std::cout << util::format("digest: %016llx\n", static_cast<unsigned long long>(sample.digest));

  const phase_counts& pc = phase.counts;
  const std::size_t n_lat = phase.latencies_ms.size();
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  std::vector<metric> e2e = {
      {"requests_per_s", pc.wall_s > 0 ? static_cast<double>(pc.requests) / pc.wall_s : 0.0,
       "1/s", pc.requests},
      {"latency_p50_ms", n_lat ? util::percentile(phase.latencies_ms, 50.0) : 0.0, "ms", n_lat},
      {"latency_p90_ms", windowed_p90(phase), "ms", n_lat},
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", rss_mb, "MB", 1},
      {"front_hv", sample.outputs.front_hv, "frac", sample.requests},
      {"energy_gain_vs_gpu", sample.outputs.energy_gain_vs_gpu, "x", sample.requests},
      {"latency_gain_vs_dla", sample.outputs.latency_gain_vs_dla, "x", sample.requests},
  };
  std::cout << "end-to-end metrics (in the JSON only with --trace 0):\n";
  print_table(e2e);
  print_table({{"failed_frac", failed_frac, "frac", attempted}});
  std::cout << "  front_hv, energy_gain_vs_gpu and latency_gain_vs_dla are outputs of the\n"
               "  simulated (calibrated analytic) model over the sampled requests; they are\n"
               "  not validated against measured hardware.\n";
  std::cout << util::format(
      "  latency_p90_ms is the median over the phase's %.0f s windows of each window's p90\n"
      "  (%.1f requests per window); the p90 of the whole phase is %.6g ms.\n",
      kTailWindowSeconds,
      pc.wall_s > 0 ? static_cast<double>(n_lat) * kTailWindowSeconds / pc.wall_s : 0.0,
      n_lat ? util::percentile(phase.latencies_ms, 90.0) : 0.0);
  if (n_lat < 100)
    std::cout << "  note: fewer than 100 latency samples; p90 has under 10 samples beyond it\n";

  std::vector<metric> reported = e2e;
  if (a.trace) {
    reported = measure_layers(stream, *live, pc, scratch.string(), std::cout);
    std::cout << "per-layer metrics:\n";
    print_table(reported);
  }
  std::cout << json_line(correct, attempted, failed, reported) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's trim and mmap thresholds. Left dynamic, they follow each
  // process's allocation history, so the large snapshot texts of
  // session_churn page-fault a different amount in every run: its
  // requests_per_s varied by 13% between runs of one seed, and by 2.5%
  // with the thresholds pinned.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  const std::optional<args> a = parse_args(argc, argv);
  if (!a) {
    std::cerr << "usage: mapbench --workload <cold_search|warm_repeat|surrogate_search|"
                 "session_churn> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       mapbench --selftest\n";
    return 2;
  }
  try {
    return a->selftest ? run_selftest() : run(*a);
  } catch (const std::exception& e) {
    std::cerr << "mapbench: " << e.what() << "\n";
    return 3;
  }
}
