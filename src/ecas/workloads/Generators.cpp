//===-- ecas/workloads/Generators.cpp - Synthetic road network ------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/workloads/Generators.h"

#include "ecas/support/Assert.h"
#include "ecas/support/Random.h"

using namespace ecas;

RoadGraph ecas::makeRoadGraph(uint32_t Width, uint32_t Height,
                              uint64_t Seed) {
  ECAS_CHECK(Width >= 2 && Height >= 2, "road graph needs a 2x2 grid");
  ECAS_CHECK(static_cast<uint64_t>(Width) * Height <= UINT32_MAX,
             "road graph node ids must fit in 32 bits");
  RoadGraph Graph;
  Graph.Width = Width;
  Graph.Height = Height;
  const uint32_t Nodes = Width * Height;
  Xoshiro256 Rng(Seed);

  // Build the undirected edge set first: right and down street segments,
  // each kept with 92% probability.
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  Edges.reserve(static_cast<size_t>(Nodes) * 2);
  auto NodeAt = [Width](uint32_t X, uint32_t Y) { return Y * Width + X; };
  for (uint32_t Y = 0; Y != Height; ++Y) {
    for (uint32_t X = 0; X != Width; ++X) {
      uint32_t V = NodeAt(X, Y);
      if (X + 1 != Width && Rng.nextDouble() < 0.92)
        Edges.push_back({V, NodeAt(X + 1, Y)});
      if (Y + 1 != Height && Rng.nextDouble() < 0.92)
        Edges.push_back({V, NodeAt(X, Y + 1)});
    }
  }

  // Degree counting, then CSR fill with per-edge weights (symmetric).
  std::vector<uint32_t> Degree(Nodes, 0);
  for (const auto &[A, B] : Edges) {
    ++Degree[A];
    ++Degree[B];
  }
  Graph.Offsets.assign(Nodes + 1, 0);
  for (uint32_t V = 0; V != Nodes; ++V)
    Graph.Offsets[V + 1] = Graph.Offsets[V] + Degree[V];
  Graph.Targets.assign(Graph.Offsets.back(), 0);
  Graph.Weights.assign(Graph.Offsets.back(), 0.0f);
  std::vector<uint32_t> Cursor(Graph.Offsets.begin(),
                               Graph.Offsets.end() - 1);
  // Re-seed so weights don't depend on the edge-removal draw order.
  Xoshiro256 WeightRng(Seed ^ 0x77eeddcc);
  for (const auto &[A, B] : Edges) {
    float W = static_cast<float>(WeightRng.nextDouble(1.0, 10.0));
    Graph.Targets[Cursor[A]] = B;
    Graph.Weights[Cursor[A]++] = W;
    Graph.Targets[Cursor[B]] = A;
    Graph.Weights[Cursor[B]++] = W;
  }
  return Graph;
}
