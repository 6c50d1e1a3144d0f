// Cross-request batch fusion, pinned against serial dispatch:
//   * fused scheduler dispatch produces the same reports as serial dispatch
//     (summaries compared with the scheduler note stripped) with exact
//     fused / fused_batches counter accounting and full reconciliation;
//   * util::wrr_queue::pop_from, the primitive that drains one lane into a
//     fused group;
//   * the 7-or-9-token scheduler-note round-trip that carries the fusion
//     counters.
// Runs under ASan/UBSan and the TSan job (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/search_space.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "serving/mapping_service.h"
#include "serving/request_scheduler.h"
#include "soc/platform.h"
#include "util/rng.h"
#include "util/wrr_queue.h"

namespace {

using namespace mapcq;

// ---------------------------------------------------------------------------
// wrr_queue::pop_from — the fusion drain primitive.
// ---------------------------------------------------------------------------

TEST(wrr_pop_from, drains_one_lane_without_touching_others) {
  util::wrr_queue<int> q;
  EXPECT_FALSE(q.pop_from("missing").has_value());
  q.push("a", 1);
  q.push("a", 2);
  q.push("b", 10);
  EXPECT_EQ(q.pop_from("a").value(), 1);
  EXPECT_EQ(q.pop_from("a").value(), 2);
  EXPECT_FALSE(q.pop_from("a").has_value());
  EXPECT_EQ(q.size(), 1u);
  // The ring stays consistent after the direct drain: normal rotation and
  // re-push of the drained key keep working.
  EXPECT_EQ(q.pop().value(), 10);
  q.push("a", 3);
  q.push("c", 30);
  EXPECT_EQ(q.pop_from("c").value(), 30);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Scheduler level: fused dispatch with a stub executor.
// ---------------------------------------------------------------------------

serving::mapping_report stub_report(const serving::mapping_request& req) {
  serving::mapping_report rep;
  rep.network = req.network;
  return rep;
}

TEST(scheduler_fusion, fuses_same_lane_requests_with_exact_counters) {
  serving::scheduler_options opt;
  opt.max_fused = 0;  // unbounded
  opt.coalesce = false;
  std::atomic<std::size_t> fused_calls{0};
  std::atomic<std::size_t> largest_group{0};
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [&](std::span<const serving::mapping_request> rs) {
        fused_calls.fetch_add(1);
        std::size_t seen = largest_group.load();
        while (rs.size() > seen && !largest_group.compare_exchange_weak(seen, rs.size())) {
        }
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) out[i].report = stub_report(rs[i]);
        return out;
      }};

  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 5; ++i) {
    serving::mapping_request req;
    req.network = "net-" + std::to_string(i);  // distinct: no coalescing either way
    futures.push_back(sched.submit("lane", std::to_string(i), std::move(req)));
  }
  sched.resume();
  sched.wait_idle();

  for (auto& f : futures) (void)f.get();
  const serving::scheduler_stats stats = sched.stats();
  // One worker, one lane, dispatch resumed atomically: one fused batch of 5.
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.fused, 4u);
  EXPECT_EQ(stats.fused_batches, 1u);
  EXPECT_EQ(fused_calls.load(), 1u);
  EXPECT_EQ(largest_group.load(), 5u);
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed + stats.expired + stats.queued +
                                stats.inflight);
}

TEST(scheduler_fusion, max_fused_bounds_the_group) {
  serving::scheduler_options opt;
  opt.max_fused = 2;
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [](std::span<const serving::mapping_request> rs) {
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) out[i].report = stub_report(rs[i]);
        return out;
      }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  const serving::scheduler_stats stats = sched.stats();
  // Groups of at most 2: two batches, each with one follower.
  EXPECT_EQ(stats.fused, 2u);
  EXPECT_EQ(stats.fused_batches, 2u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(scheduler_fusion, default_options_never_fuse) {
  serving::scheduler_options opt;  // max_fused = 1
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  EXPECT_EQ(sched.stats().fused, 0u);
  EXPECT_EQ(sched.stats().fused_batches, 0u);
  EXPECT_EQ(sched.stats().completed, 3u);
}

TEST(scheduler_fusion, fused_group_without_executor_falls_back_per_member) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.coalesce = false;
  std::atomic<std::size_t> runs{0};
  serving::request_scheduler sched{opt, 1, [&](const serving::mapping_request& r) {
                                     runs.fetch_add(1);
                                     return stub_report(r);
                                   }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  // Still one dispatch group (counted as fused), executed per member.
  EXPECT_EQ(runs.load(), 3u);
  EXPECT_EQ(sched.stats().fused, 2u);
  EXPECT_EQ(sched.stats().fused_batches, 1u);
}

TEST(scheduler_fusion, wrong_sized_fused_return_fails_the_whole_group) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [](std::span<const serving::mapping_request>) {
        return std::vector<serving::fused_outcome>{};  // wrong size on purpose
      }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) EXPECT_THROW((void)f.get(), std::runtime_error);
  EXPECT_EQ(sched.stats().failed, 3u);
  EXPECT_EQ(sched.stats().fused, 2u);
}

TEST(scheduler_fusion, per_member_errors_are_isolated) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [](std::span<const serving::mapping_request> rs) {
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) {
          if (rs[i].network == "doomed")
            out[i].error = std::make_exception_ptr(std::runtime_error("doomed"));
          else
            out[i].report = stub_report(rs[i]);
        }
        return out;
      }};
  sched.pause();
  serving::mapping_request good;
  good.network = "good";
  serving::mapping_request bad;
  bad.network = "doomed";
  auto f_good = sched.submit("lane", "g", good);
  auto f_bad = sched.submit("lane", "b", bad);
  sched.resume();
  sched.wait_idle();
  EXPECT_EQ(f_good.get().network, "good");
  EXPECT_THROW((void)f_bad.get(), std::runtime_error);
  const serving::scheduler_stats stats = sched.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.fused, 1u);
  EXPECT_EQ(stats.fused_batches, 1u);
}

TEST(scheduler_fusion, respects_per_session_inflight_cap) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.max_inflight_per_session = 2;
  opt.coalesce = false;
  std::atomic<std::size_t> largest_group{0};
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [&](std::span<const serving::mapping_request> rs) {
        std::size_t seen = largest_group.load();
        while (rs.size() > seen && !largest_group.compare_exchange_weak(seen, rs.size())) {
        }
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) out[i].report = stub_report(rs[i]);
        return out;
      }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  // The whole group goes in flight at once, so it can never exceed the cap.
  EXPECT_LE(largest_group.load(), 2u);
  EXPECT_EQ(sched.stats().completed, 5u);
}

// ---------------------------------------------------------------------------
// Service level: fused dispatch == serial dispatch, report for report.
// ---------------------------------------------------------------------------

serving::mapping_request service_request(const std::string& network, std::uint64_t ga_seed) {
  serving::mapping_request req;
  req.network = network;
  req.use_surrogate = false;
  req.ga.generations = 3;
  req.ga.population = 8;
  req.ga.threads = 1;
  req.ga.seed = ga_seed;
  return req;
}

/// Summary text with the scheduler note stripped: everything about the
/// report except the stamped counters (which legitimately differ between
/// fused and serial dispatch) and the engine cache deltas (not part of the
/// summary at all).
std::string summary_without_scheduler(const serving::mapping_report& rep) {
  core::report_summary s = rep.summary();
  s.scheduler.reset();
  return core::to_text(s);
}

struct fused_service : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();

  serving::service_options options(std::size_t max_fused) const {
    serving::service_options opt;
    opt.engine.threads = 1;
    opt.workers = 1;
    opt.scheduler.max_fused = max_fused;
    return opt;
  }
};

TEST_F(fused_service, fused_reports_match_serial_with_exact_counters) {
  constexpr std::size_t kRequests = 3;

  serving::mapping_service serial{options(1)};
  serial.register_network(net);
  serial.register_platform(plat);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < kRequests; ++i)
    want.push_back(summary_without_scheduler(serial.map(service_request(net.name, 100 + i))));

  serving::mapping_service fused{options(0)};
  fused.register_network(net);
  fused.register_platform(plat);
  fused.pause_scheduler();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(fused.submit(service_request(net.name, 100 + i)));
  fused.resume_scheduler();

  for (std::size_t i = 0; i < kRequests; ++i)
    EXPECT_EQ(summary_without_scheduler(futures[i].get()), want[i]);

  const serving::scheduler_stats stats = fused.scheduler();
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.fused, kRequests - 1);
  EXPECT_EQ(stats.fused_batches, 1u);
  EXPECT_LE(stats.fused_batches, stats.fused);
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed + stats.expired + stats.queued +
                                stats.inflight);

  // The stamped note propagates into the summary line of every report.
  const core::report_summary s = futures.back().get().summary();
  ASSERT_TRUE(s.scheduler.has_value());
  EXPECT_EQ(s.scheduler->fused, kRequests - 1);
  EXPECT_EQ(s.scheduler->fused_batches, 1u);
}

TEST_F(fused_service, doomed_member_fails_alone) {
  serving::mapping_service service{options(0)};
  service.register_network(net);
  service.register_platform(plat);
  service.pause_scheduler();
  auto ok = service.submit(service_request(net.name, 1));
  // Same session lane (the lane ignores GA knobs), but map() rejects the
  // prefilter + surrogate combination — the fused sibling must not care.
  serving::mapping_request bad = service_request(net.name, 2);
  bad.use_surrogate = true;
  bad.ga.portfolio.prefilter.enabled = true;
  auto doomed = service.submit(bad);
  service.resume_scheduler();

  EXPECT_FALSE(ok.get().front.empty());
  EXPECT_THROW((void)doomed.get(), std::invalid_argument);
  const serving::scheduler_stats stats = service.scheduler();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.fused, 1u);
}

// ---------------------------------------------------------------------------
// Serialization: the 9-field scheduler row and its 7-field legacy form.
// ---------------------------------------------------------------------------

/// A minimal-but-valid summary: report_summary_from_text rejects empty
/// entry lists (pick indices would be out of range), so every round-trip
/// carries one real configuration.
core::report_summary one_entry_summary() {
  core::report_summary s;
  s.network = "n";
  s.platform = "p";
  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  const core::search_space space{net, plat};
  util::rng gen{2};
  core::summary_entry entry;
  entry.label = "front-0+ours-L+ours-E";
  entry.config = space.decode(space.random(gen));
  s.entries.push_back(std::move(entry));
  return s;
}

TEST(scheduler_note_roundtrip, fused_counters_survive_to_text_and_back) {
  core::report_summary s = one_entry_summary();
  core::scheduler_note note;
  note.submitted = 9;
  note.admitted = 6;
  note.coalesced = 2;
  note.rejected = 1;
  note.expired = 0;
  note.completed = 5;
  note.failed = 1;
  note.fused = 3;
  note.fused_batches = 2;
  s.scheduler = note;
  const core::report_summary back = core::report_summary_from_text(core::to_text(s));
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(back.scheduler->fused, 3u);
  EXPECT_EQ(back.scheduler->fused_batches, 2u);
  EXPECT_EQ(back.scheduler->submitted, 9u);
  EXPECT_EQ(back.scheduler->failed, 1u);
}

TEST(scheduler_note_roundtrip, legacy_seven_field_row_parses_with_zero_fused) {
  core::report_summary s = one_entry_summary();
  s.scheduler = core::scheduler_note{9, 6, 2, 1, 0, 5, 1, 3, 2};
  std::string text = core::to_text(s);
  // Rewrite the scheduler row to the pre-fusion 7-value arity.
  const std::string nine = "scheduler 9 6 2 1 0 5 1 3 2";
  const std::string seven = "scheduler 9 6 2 1 0 5 1";
  const std::size_t pos = text.find(nine);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, nine.size(), seven);
  const core::report_summary back = core::report_summary_from_text(text);
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(back.scheduler->completed, 5u);
  EXPECT_EQ(back.scheduler->fused, 0u);
  EXPECT_EQ(back.scheduler->fused_batches, 0u);
}

}  // namespace
