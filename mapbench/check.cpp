#include "check.h"

#include <cmath>

#include "core/pareto.h"
#include "core/serialization.h"

namespace mapbench {

using namespace mapcq;

std::string report_text(const serving::mapping_report& report) {
  core::report_summary summary = report.summary();
  summary.scheduler.reset();
  return core::to_text(summary);
}

bool front_valid(const serving::mapping_report& report) {
  if (report.front.empty()) return false;
  for (const core::evaluation& e : report.front)
    if (!e.feasible) return false;
  return true;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) noexcept {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

report_checker::verdict report_checker::check(const std::string& fingerprint,
                                               const std::string& text, bool valid) {
  std::lock_guard lock{mu_};
  if (!valid) {
    ++invalid_;
    return verdict::invalid;
  }
  const digest d{text.size(), fnv1a(text)};
  const auto [it, inserted] = reference_.try_emplace(fingerprint, d);
  if (inserted) return verdict::reference;
  if (it->second == d) return verdict::match;
  ++mismatches_;
  return verdict::mismatch;
}

std::size_t report_checker::mismatches() const {
  std::lock_guard lock{mu_};
  return mismatches_;
}

std::size_t report_checker::invalid() const {
  std::lock_guard lock{mu_};
  return invalid_;
}

void output_accumulator::add(const request_stream& stream,
                             const serving::mapping_report& report) {
  const network_refs& ref = stream.refs_for(report.network);
  std::vector<std::vector<double>> points;
  for (const core::evaluation& e : report.front)
    points.push_back({e.avg_latency_ms, e.avg_energy_mj, 100.0 - e.accuracy_pct});
  const double box = ref.hv_ref[0] * ref.hv_ref[1] * ref.hv_ref[2];
  hv_sum_ += core::hypervolume(points, ref.hv_ref) / box;
  log_energy_sum_ += std::log(ref.gpu_energy_mj / report.ours_energy().avg_energy_mj);
  log_latency_sum_ += std::log(ref.dla_latency_ms / report.ours_latency().avg_latency_ms);
  ++n_;
}

model_outputs output_accumulator::result() const {
  if (n_ == 0) return {};
  const double n = static_cast<double>(n_);
  return {hv_sum_ / n, std::exp(log_energy_sum_ / n), std::exp(log_latency_sum_ / n)};
}

sample_result run_sample(const request_stream& stream, serving::mapping_service& fresh,
                         report_checker& checker) {
  sample_result res;
  res.digest = fnv1a("");
  output_accumulator acc;
  for (const serving::mapping_request& req : stream.sample_requests()) {
    const serving::mapping_report report = fresh.map(req);
    const std::string text = report_text(report);
    res.digest = fnv1a(text, res.digest);
    ++res.requests;
    const bool valid = front_valid(report);
    const auto v = checker.check(serving::request_fingerprint(req), text, valid);
    if (v == report_checker::verdict::match || v == report_checker::verdict::mismatch)
      ++res.compared;
    if (valid) acc.add(stream, report);
  }
  res.outputs = acc.result();
  return res;
}

}  // namespace mapbench
