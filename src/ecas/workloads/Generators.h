//===-- ecas/workloads/Generators.h - Synthetic road network ----*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic input generator standing in for the paper's W-USA road
/// graph: a synthetic road network (planar, low degree, huge diameter).
/// It is seeded, so the graph workloads' traces and checksums are
/// reproducible across runs and platforms.
///
//===----------------------------------------------------------------------===//

#ifndef ECAS_WORKLOADS_GENERATORS_H
#define ECAS_WORKLOADS_GENERATORS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecas {

/// CSR adjacency of an undirected graph with float edge weights.
struct RoadGraph {
  uint32_t Width = 0;
  uint32_t Height = 0;
  /// CSR: node v's edges are Targets[Offsets[v] .. Offsets[v+1]).
  std::vector<uint32_t> Offsets;
  std::vector<uint32_t> Targets;
  std::vector<float> Weights;

  uint32_t numNodes() const { return Width * Height; }
  size_t numEdges() const { return Targets.size(); }
};

/// Builds a Width x Height grid road network: 4-neighbour streets with
/// ~8% of edges removed (dead ends / rivers) and weights in [1, 10).
/// Planar and low-degree like a real road graph, so BFS/SSSP traverse
/// thousands of levels — the irregularity profile the paper's graph
/// workloads exhibit.
RoadGraph makeRoadGraph(uint32_t Width, uint32_t Height, uint64_t Seed);

} // namespace ecas

#endif // ECAS_WORKLOADS_GENERATORS_H
