#include "cluster/job.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace eth::cluster {
namespace {

TEST(Coupling, StringRoundTrip) {
  for (const Coupling c : {Coupling::kTight, Coupling::kIntercore,
                           Coupling::kInternode, Coupling::kAsync}) {
    EXPECT_EQ(coupling_from_string(to_string(c)), c);
  }
  EXPECT_THROW(coupling_from_string("bogus"), Error);
}

TEST(JobLayout, AsyncIsTimeSharedLikeIntercore) {
  // The async coupling time-shares every node between the sim and viz
  // processes — the partitioning helpers must mirror intercore, and a
  // viz partition is as nonsensical here as it is for tight/intercore.
  JobLayout async_layout{Coupling::kAsync, 8, 4, 0};
  EXPECT_NO_THROW(async_layout.validate());
  EXPECT_EQ(async_layout.sim_nodes(), 8);
  EXPECT_EQ(async_layout.viz_node_count(), 8);
  EXPECT_EQ(async_layout.viz_first_node(), 0);

  JobLayout viz_on_async{Coupling::kAsync, 8, 4, 2};
  EXPECT_THROW(viz_on_async.validate(), Error);
}

TEST(JobLayout, NodePartitioningPerCoupling) {
  JobLayout tight{Coupling::kTight, 8, 4, 0};
  EXPECT_EQ(tight.sim_nodes(), 8);
  EXPECT_EQ(tight.viz_node_count(), 8);
  EXPECT_EQ(tight.viz_first_node(), 0);

  JobLayout inter{Coupling::kInternode, 8, 4, 0};
  EXPECT_EQ(inter.sim_nodes(), 4); // default: half
  EXPECT_EQ(inter.viz_node_count(), 4);
  EXPECT_EQ(inter.viz_first_node(), 4);

  JobLayout uneven{Coupling::kInternode, 10, 4, 3};
  EXPECT_EQ(uneven.sim_nodes(), 7);
  EXPECT_EQ(uneven.viz_node_count(), 3);
  EXPECT_EQ(uneven.viz_first_node(), 7);
}

TEST(JobLayout, ValidationRules) {
  JobLayout ok{Coupling::kIntercore, 4, 2, 0};
  EXPECT_NO_THROW(ok.validate());

  JobLayout zero_nodes{Coupling::kTight, 0, 1, 0};
  EXPECT_THROW(zero_nodes.validate(), Error);

  JobLayout internode_one{Coupling::kInternode, 1, 1, 0};
  EXPECT_THROW(internode_one.validate(), Error);

  JobLayout viz_eats_all{Coupling::kInternode, 4, 2, 4};
  EXPECT_THROW(viz_eats_all.validate(), Error);

  JobLayout viz_on_tight{Coupling::kTight, 4, 2, 2};
  EXPECT_THROW(viz_on_tight.validate(), Error);
}

} // namespace
} // namespace eth::cluster
