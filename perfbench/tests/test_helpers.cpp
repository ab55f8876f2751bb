// Tests of the benchmark's own helpers: tail-percentile choice, self-time
// arithmetic, and each plan check flagging a plan broken on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "helpers.hpp"
#include "ocs/all_stop_executor.hpp"
#include "sched/ordering.hpp"
#include "sched/packet_scheduler.hpp"
#include "sched/reco_mul.hpp"
#include "sched/reco_sin.hpp"

namespace {

using namespace reco;

constexpr Time kDelta = 100e-6;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, PicksHighestWithTenSamplesBeyond) {
  // 526 coflows: p99 leaves 5 beyond, p98 leaves 10.
  const perfbench::Tail sin = perfbench::tail_of(ramp(526));
  EXPECT_EQ(sin.percentile, 98.0);
  EXPECT_EQ(sin.beyond, 10u);
  EXPECT_EQ(sin.count, 526u);
  // 13,608 decisions: p99.9 leaves 13 beyond.
  const perfbench::Tail online = perfbench::tail_of(ramp(13608));
  EXPECT_EQ(online.percentile, 99.9);
  EXPECT_EQ(online.beyond, 13u);
  // Exactly 10 beyond at 1000 samples and p99.
  EXPECT_EQ(perfbench::tail_of(ramp(1000)).percentile, 99.0);
  EXPECT_EQ(perfbench::tail_of(ramp(1000)).beyond, 10u);
}

TEST(TailPercentile, FallsBackToMaximumWhenTooFewSamples) {
  const perfbench::Tail one = perfbench::tail_of({41.5});
  EXPECT_EQ(one.percentile, 100.0);
  EXPECT_EQ(one.beyond, 0u);
  EXPECT_EQ(one.value, 41.5);
  EXPECT_EQ(perfbench::tail_of(ramp(99)).value, 99.0);
  EXPECT_EQ(perfbench::tail_of(ramp(100)).percentile, 90.0);
}

TEST(Quantile, InterpolatesExactSamples) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::quantile(ramp(11), 0.9), 10.0);
}

TEST(SelfTime, SubtractsStagesWithoutClamping) {
  EXPECT_DOUBLE_EQ(perfbench::self_time(10.0, {1.0, 2.0, 3.0}), 4.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time(1.0, {0.75, 0.5}), -0.25);
}

TEST(SelfTime, SpanLogSubtractsDirectChildrenOnly) {
  perfbench::SpanLog log;
  const int root = log.begin("root");
  const int child = log.begin("child", root);
  const int grandchild = log.begin("grandchild", child);
  log.end(grandchild);
  log.end(child);
  log.end(root);
  const auto& s = log.spans();
  const double root_d = s[0].end_s - s[0].start_s;
  const double child_d = s[1].end_s - s[1].start_s;
  const double grand_d = s[2].end_s - s[2].start_s;
  EXPECT_DOUBLE_EQ(log.total("root"), root_d);
  EXPECT_DOUBLE_EQ(log.self_total("root"), root_d - child_d);
  EXPECT_DOUBLE_EQ(log.self_total("child"), child_d - grand_d);
  EXPECT_DOUBLE_EQ(log.self_total("grandchild"), grand_d);
  EXPECT_EQ(log.total("missing"), 0.0);
}

Matrix small_demand() {
  Matrix d(3);
  d.at(0, 0) = 5 * kDelta;
  d.at(0, 1) = 7 * kDelta;
  d.at(1, 2) = 9 * kDelta;
  d.at(2, 1) = 4 * kDelta;
  return d;
}

std::vector<std::string> sin_failures(const Matrix& demand, const CircuitSchedule& plan) {
  const ExecutionResult exec = execute_all_stop(plan, demand, kDelta);
  return perfbench::check_reco_sin(demand, plan, exec.cct, exec.satisfied, kDelta);
}

bool has(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

TEST(SinCheck, PassesRecoSinPlan) {
  const Matrix d = small_demand();
  EXPECT_TRUE(sin_failures(d, reco_sin(d, kDelta)).empty());
}

TEST(SinCheck, FlagsAssignmentShorterThanDelta) {
  const Matrix d = small_demand();
  CircuitSchedule plan = reco_sin(d, kDelta);
  plan.assignments.push_back({{{0, 0}}, 0.5 * kDelta});
  EXPECT_TRUE(has(sin_failures(d, plan), "assignment_shorter_than_delta"));
}

TEST(SinCheck, FlagsTwoCircuitsOnOneIngress) {
  const Matrix d = small_demand();
  CircuitSchedule plan = reco_sin(d, kDelta);
  plan.assignments.front().circuits.push_back({plan.assignments.front().circuits.front().in, 2});
  EXPECT_TRUE(has(sin_failures(d, plan), "assignment_not_matching"));
}

TEST(SinCheck, FlagsUnmetDemandAndCctOverBound) {
  const Matrix d = small_demand();
  CircuitSchedule plan = reco_sin(d, kDelta);
  plan.assignments.pop_back();
  EXPECT_TRUE(has(sin_failures(d, plan), "demand_not_met"));
  const CircuitSchedule good = reco_sin(d, kDelta);
  EXPECT_TRUE(has(perfbench::check_reco_sin(d, good, 1.0, true, kDelta), "cct_over_2x_lower_bound"));
}

std::vector<Coflow> small_workload() {
  std::vector<Coflow> coflows(3);
  for (int k = 0; k < 3; ++k) {
    coflows[k].id = k;
    coflows[k].weight = 1.0 + k;
    coflows[k].demand = Matrix(3);
    coflows[k].demand.at(k, (k + 1) % 3) = (4 + k) * 4 * kDelta;
    coflows[k].demand.at((k + 2) % 3, k) = (6 + k) * 4 * kDelta;
  }
  return coflows;
}

TEST(MulCheck, PassesRecoMulPlanAndFlagsDroppedSlice) {
  const auto coflows = small_workload();
  const SliceSchedule packet = packet_schedule(coflows, bssi_order(coflows));
  const RecoMulSchedule r = reco_mul_transform(packet, kDelta, 4.0);
  const perfbench::MulCheck ok = perfbench::check_reco_mul(coflows, packet, r.pseudo, r.real, kDelta, 4.0);
  EXPECT_TRUE(ok.global_failures.empty());
  EXPECT_TRUE(ok.coflow_failures.empty());
  EXPECT_EQ(ok.failed_coflows(3), 0);
  EXPECT_LE(ok.worst_ratio, perfbench::eqn3_bound(4.0) + 1.0);

  SliceSchedule dropped = packet;
  dropped.pop_back();
  const perfbench::MulCheck bad =
      perfbench::check_reco_mul(coflows, dropped, r.pseudo, r.real, kDelta, 4.0);
  ASSERT_EQ(bad.global_failures.size(), 1u);
  EXPECT_EQ(bad.global_failures.front(), "sp_demand");
  EXPECT_EQ(bad.failed_coflows(3), 3);
}

TEST(MulCheck, FlagsPortConflictAndEqn3Violation) {
  const auto coflows = small_workload();
  const SliceSchedule packet = packet_schedule(coflows, bssi_order(coflows));
  const RecoMulSchedule r = reco_mul_transform(packet, kDelta, 4.0);
  SliceSchedule real = r.real;
  // Move one slice onto another's ingress at the same time.
  real[1].src = real[0].src;
  real[1].start = real[0].start;
  real[1].end = real[0].end;
  EXPECT_TRUE(has(perfbench::check_reco_mul(coflows, packet, r.pseudo, real, kDelta, 4.0).global_failures,
                  "real_port_conflict"));
  // Delay one coflow's real completion far past 2.25x its S_p CCT.
  SliceSchedule late = r.real;
  late[0].start += 1.0;
  late[0].end += 1.0;
  const perfbench::MulCheck check =
      perfbench::check_reco_mul(coflows, packet, r.pseudo, late, kDelta, 4.0);
  ASSERT_EQ(check.coflow_failures.size(), 1u);
  EXPECT_EQ(check.coflow_failures.front(), late[0].coflow);
  EXPECT_EQ(check.failed_coflows(3), 1);
}

TEST(RealScheduleCheck, PassesRecoMulPlanAndFlagsDroppedSliceAndConflict) {
  const auto coflows = small_workload();
  const SliceSchedule packet = packet_schedule(coflows, bssi_order(coflows));
  const RecoMulSchedule r = reco_mul_transform(packet, kDelta, 4.0);
  const perfbench::MulCheck ok = perfbench::check_real_schedule(coflows, r.real);
  EXPECT_TRUE(ok.global_failures.empty());
  EXPECT_TRUE(ok.coflow_failures.empty());

  SliceSchedule dropped = r.real;
  const CoflowId victim = dropped.back().coflow;
  dropped.pop_back();
  const perfbench::MulCheck missing = perfbench::check_real_schedule(coflows, dropped);
  ASSERT_EQ(missing.coflow_failures.size(), 1u);
  EXPECT_EQ(missing.coflow_failures.front(), victim);

  SliceSchedule cut = r.real;
  cut[0].end = cut[0].start + 0.5 * cut[0].duration();
  EXPECT_EQ(perfbench::check_real_schedule(coflows, cut).coflow_failures.size(), 1u);

  SliceSchedule clash = r.real;
  clash.push_back(clash[0]);
  EXPECT_TRUE(has(perfbench::check_real_schedule(coflows, clash).global_failures,
                  "real_port_conflict"));
}

TEST(Eqn3Bound, MatchesTheoremThreeAtC4) { EXPECT_DOUBLE_EQ(perfbench::eqn3_bound(4.0), 2.25); }

}  // namespace
