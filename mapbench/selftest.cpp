// The benchmark's own tests: run with `python3 mapbench/run.py --selftest`.

#include "selftest.h"

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "serving/mapping_service.h"
#include "workload.h"

namespace mapbench {

using namespace mapcq;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

std::vector<std::string> fingerprints(const request_stream& stream, std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(serving::request_fingerprint(stream.at(i)));
  return out;
}

std::unique_ptr<serving::mapping_service> fresh_service(const testbed& tb, workload wl) {
  auto svc = std::make_unique<serving::mapping_service>(service_options_for(wl, ""));
  tb.register_in(*svc);
  return svc;
}

}  // namespace

int run_selftest() {
  const testbed tb;
  const std::vector<network_refs> refs = make_refs(tb);

  std::cout << "seeded request streams\n";
  for (workload wl : {workload::cold_search, workload::warm_repeat, workload::surrogate_search,
                      workload::session_churn}) {
    const request_stream a{wl, 7, refs};
    const request_stream b{wl, 7, refs};
    const request_stream c{wl, 8, refs};
    const std::string name = name_of(wl);
    expect(fingerprints(a, 48) == fingerprints(b, 48), name + ": same seed, same stream");
    expect(fingerprints(a, 48) != fingerprints(c, 48), name + ": other seed, other stream");
  }

  std::cout << "digest and model outputs repeat at one seed (cold_search)\n";
  const request_stream stream{workload::cold_search, 7, refs};
  const auto first = fresh_service(tb, workload::cold_search);
  const auto second = fresh_service(tb, workload::cold_search);
  report_checker repeat;
  const sample_result x = run_sample(stream, *first, repeat);
  const sample_result y = run_sample(stream, *second, repeat);
  expect(repeat.invalid() == 0, "sampled fronts are non-empty and feasible");
  expect(y.compared == y.requests && repeat.mismatches() == 0,
         "a second fresh service reproduces every sampled report byte for byte");
  expect(x.digest == y.digest, "digest repeats");
  expect(x.outputs.front_hv == y.outputs.front_hv &&
             x.outputs.energy_gain_vs_gpu == y.outputs.energy_gain_vs_gpu &&
             x.outputs.latency_gain_vs_dla == y.outputs.latency_gain_vs_dla,
         "front_hv, energy_gain_vs_gpu and latency_gain_vs_dla repeat exactly");
  report_checker other;
  const sample_result z =
      run_sample(request_stream{workload::cold_search, 8, refs}, *second, other);
  expect(z.digest != x.digest, "another seed changes the digest");

  std::cout << "the correctness check catches a corrupted report\n";
  const serving::mapping_request req = stream.at(0);
  const std::string fp = serving::request_fingerprint(req);
  const serving::mapping_report good = first->map(req);
  using verdict = report_checker::verdict;
  report_checker checker;
  expect(checker.check(fp, report_text(good), front_valid(good)) == verdict::reference,
         "first report becomes the reference");
  expect(checker.check(fp, report_text(first->map(req)), true) == verdict::match,
         "repeat report matches");
  serving::mapping_report corrupted = good;
  corrupted.front.front().avg_energy_mj *= 1.0 + 1e-12;
  expect(checker.check(fp, report_text(corrupted), front_valid(corrupted)) == verdict::mismatch,
         "report with a perturbed front entry rejected");
  serving::mapping_report empty = good;
  empty.front.clear();
  expect(checker.check(fp, report_text(empty), front_valid(empty)) == verdict::invalid,
         "empty validated front rejected");
  serving::mapping_report infeasible = good;
  infeasible.front.front().feasible = false;
  expect(checker.check(fp, report_text(infeasible), front_valid(infeasible)) ==
             verdict::invalid,
         "infeasible validated front rejected");
  expect(checker.mismatches() == 1 && checker.invalid() == 2,
         "one mismatch and two invalid reports counted");

  std::cout << (failures == 0 ? "selftest: ok\n" : "selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace mapbench
