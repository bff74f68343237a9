#include "cluster/job.hpp"

#include "common/error.hpp"

namespace eth::cluster {

const char* to_string(Coupling c) {
  switch (c) {
    case Coupling::kTight: return "tight";
    case Coupling::kIntercore: return "intercore";
    case Coupling::kInternode: return "internode";
    case Coupling::kAsync: return "async";
  }
  return "?";
}

Coupling coupling_from_string(std::string_view name) {
  if (name == "tight") return Coupling::kTight;
  if (name == "intercore") return Coupling::kIntercore;
  if (name == "internode") return Coupling::kInternode;
  if (name == "async") return Coupling::kAsync;
  fail("unknown coupling strategy '" + std::string(name) + "'");
}

int JobLayout::sim_nodes() const {
  if (coupling != Coupling::kInternode) return nodes;
  return nodes - viz_node_count();
}

int JobLayout::viz_node_count() const {
  if (coupling != Coupling::kInternode) return nodes;
  return viz_nodes > 0 ? viz_nodes : nodes / 2;
}

int JobLayout::viz_first_node() const {
  return coupling == Coupling::kInternode ? sim_nodes() : 0;
}

void JobLayout::validate() const {
  require(nodes > 0, "JobLayout: nodes must be positive");
  require(ranks > 0, "JobLayout: ranks must be positive");
  if (coupling == Coupling::kInternode) {
    require(nodes >= 2, "JobLayout: internode coupling needs at least 2 nodes");
    const int v = viz_node_count();
    require(v > 0 && v < nodes,
            "JobLayout: internode viz partition must leave nodes for the simulation");
  } else {
    require(viz_nodes == 0, "JobLayout: viz_nodes is only valid for internode coupling");
  }
}

} // namespace eth::cluster
