// The umbrella header must pull in the whole public API and stay
// self-consistent (no ODR/IWYU surprises across modules).
#include "reco.hpp"

#include <gtest/gtest.h>

namespace reco {
namespace {

TEST(Umbrella, VersionIsCoherent) {
  EXPECT_EQ(kVersionMajor, 1);
  EXPECT_STREQ(kVersionString, "1.0");
}

TEST(Umbrella, EndToEndThroughTheUmbrellaOnly) {
  // Touch one symbol from every module to prove the umbrella suffices.
  GeneratorOptions g;
  g.num_ports = 8;
  g.num_coflows = 5;
  g.seed = 3;
  const std::vector<Coflow> coflows = generate_workload(g);

  const Coflow& c = coflows.front();
  const CircuitSchedule plan = reco_sin(c.demand, g.delta);                  // sched
  const ExecutionResult run = execute_all_stop(plan, c.demand, g.delta);     // ocs
  EXPECT_TRUE(run.satisfied);
  EXPECT_GE(run.cct, single_coflow_lower_bound(c.demand, g.delta) - 1e-9);   // core

  MatchingScratch scratch;                                                   // matching/bvn
  EXPECT_TRUE(bottleneck_solve(stuff(c.demand), scratch));

  lp::Model model;                                                           // lp
  const int x = model.add_var(1.0);
  model.add_constraint({{{x, 1.0}}, lp::Sense::kGe, 1.0});
  EXPECT_EQ(lp::solve(model).status, lp::SolveStatus::kOptimal);

  sim::ReplayController controller(plan);                                    // sim
  EXPECT_TRUE(sim::simulate_single_coflow(controller, c.demand, g.delta).satisfied);

  const MultiScheduleResult multi = reco_mul_pipeline(coflows, g.delta, g.c_threshold);
  EXPECT_TRUE(is_port_feasible(multi.schedule));
  EXPECT_GT(mean({1.0, 3.0}), 0.0);                                          // stats
  EXPECT_EQ(csv_escape("a"), "a");
}

}  // namespace
}  // namespace reco
