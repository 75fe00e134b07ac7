//===-- ecas/workloads/GraphWorkloads.h - BFS, CC, SSSP ---------*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three irregular graph workloads (BFS, Connected Components,
/// Shortest Path) of Table 1. The real algorithms run on a synthetic
/// road network; their per-round active-set sizes become the simulator
/// invocation trace, so frontier dynamics — the source of the paper's CC
/// mis-prediction anecdote — are genuine, not modeled.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_WORKLOADS_GRAPHWORKLOADS_H
#define ECAS_WORKLOADS_GRAPHWORKLOADS_H

#include "ecas/workloads/Generators.h"
#include "ecas/workloads/Workload.h"

namespace ecas {

/// Result of one host graph-algorithm run.
struct GraphAlgoResult {
  /// Active-set (frontier/worklist) size per round.
  std::vector<double> RoundSizes;
  /// Order-independent validation value (see each algorithm's doc).
  uint64_t Checksum = 0;
};

/// Level-synchronous BFS from \p Source. Checksum: sum of finite hop
/// depths. Unreached nodes contribute nothing.
GraphAlgoResult runBfsLevels(const RoadGraph &Graph, uint32_t Source);

/// Connected components by synchronous min-label propagation. Each
/// round, every node in a window takes the minimum of its own and its
/// neighbours' labels from the previous round (a pull sweep over a
/// padded 4-slot adjacency table); the window is last round's changed id
/// range widened by the largest id distance along an edge. This equals
/// the push formulation, where last round's changed nodes send their
/// labels to their neighbours: a neighbour that did not change last round
/// already sent its current label in the round after its last change, so
/// pulling it cannot lower the minimum further. The changed sets, and
/// with them RoundSizes and Checksum, are therefore identical.
/// RoundSizes[0] is the node count (round 0 activates every node).
/// Checksum: number of components * 2^32 + (sum of final labels mod
/// 2^32).
GraphAlgoResult runConnectedComponents(const RoadGraph &Graph);

/// Single-source shortest paths: Bellman-Ford with a worklist.
/// Checksum: sum of floor(distance) over reached nodes.
GraphAlgoResult runShortestPaths(const RoadGraph &Graph, uint32_t Source);

/// Workload factories (Table 1 rows BFS, CC, SP).
Workload makeBfsWorkload(const WorkloadConfig &Config);
Workload makeCcWorkload(const WorkloadConfig &Config);
Workload makeSsspWorkload(const WorkloadConfig &Config);

/// Road-network dimensions used by the graph workloads under \p Config
/// (875x875 at scale 1.0, giving BFS ~1.7k levels like W-USA).
void graphDimensions(const WorkloadConfig &Config, uint32_t &Width,
                     uint32_t &Height);

} // namespace ecas

#endif // ECAS_WORKLOADS_GRAPHWORKLOADS_H
