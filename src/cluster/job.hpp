#pragma once
// JobLayout: where the simulation and visualization proxies run.
//
// Section VII of the paper: "The job layout (i.e., where the
// visualization and simulation proxies are run) is specified in a
// separate file ... For subsequent exploration of a different layout,
// the user simply changes the job layout file." This module is the
// layout itself: the three coupling strategies of Section IV-B plus
// node/rank counts. Its file is an experiment config
// (core/spec_config.hpp): the `coupling`, `nodes`, `ranks` and
// `viz_nodes` keys set it.

#include <string>

#include "common/types.hpp"

namespace eth::cluster {

/// The paper's three sim-viz coupling strategies (Section IV-B), plus
/// the pipelined variant the staged harness engine adds (DESIGN.md
/// §13): `async` places sim and viz like intercore — separate
/// processes time-sharing the same nodes — but overlaps them in time,
/// the sim producing timestep t+1 while the viz renders t, up to the
/// configured pipeline depth.
enum class Coupling {
  kTight,     ///< merged into a single, unified process
  kIntercore, ///< time-shared: sim and viz alternate on the same nodes
  kInternode, ///< space-shared: sim on one half, viz on the other half
  kAsync,     ///< time-shared but pipelined: sim overlaps viz by `depth` steps
};

const char* to_string(Coupling c);
Coupling coupling_from_string(std::string_view name);

struct JobLayout {
  Coupling coupling = Coupling::kTight;
  int nodes = 1;          ///< total allocation
  int ranks = 1;          ///< SPMD width of each proxy application
  int viz_nodes = 0;      ///< internode only: nodes given to viz (0 = half)

  /// Nodes executing the simulation proxy.
  int sim_nodes() const;
  /// Nodes executing the visualization proxy.
  int viz_node_count() const;
  /// First node index of the viz partition (internode), else 0.
  int viz_first_node() const;

  /// Throws eth::Error when counts are inconsistent.
  void validate() const;
};

} // namespace eth::cluster
