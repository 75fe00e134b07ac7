//===-- tests/WorkloadsTest.cpp - workloads/ unit tests --------------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/support/Random.h"
#include "ecas/workloads/GraphWorkloads.h"
#include "ecas/workloads/Mandelbrot.h"
#include "ecas/workloads/Registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

using namespace ecas;

namespace {
/// Small inputs keep the real algorithms fast in unit tests.
WorkloadConfig tinyConfig() {
  WorkloadConfig Config;
  Config.Scale = 0.01;
  return Config;
}
} // namespace

TEST(Generators, RoadGraphIsSymmetricCsr) {
  RoadGraph Graph = makeRoadGraph(20, 15, 7);
  EXPECT_EQ(Graph.numNodes(), 300u);
  ASSERT_EQ(Graph.Offsets.size(), 301u);
  EXPECT_EQ(Graph.Offsets.back(), Graph.Targets.size());
  // Undirected: every edge appears in both directions with equal weight.
  for (uint32_t V = 0; V != Graph.numNodes(); ++V) {
    for (uint32_t E = Graph.Offsets[V]; E != Graph.Offsets[V + 1]; ++E) {
      uint32_t U = Graph.Targets[E];
      ASSERT_LT(U, Graph.numNodes());
      bool FoundReverse = false;
      for (uint32_t E2 = Graph.Offsets[U]; E2 != Graph.Offsets[U + 1];
           ++E2)
        if (Graph.Targets[E2] == V &&
            Graph.Weights[E2] == Graph.Weights[E]) {
          FoundReverse = true;
          break;
        }
      ASSERT_TRUE(FoundReverse);
    }
  }
}

TEST(Generators, Deterministic) {
  RoadGraph A = makeRoadGraph(10, 10, 3);
  RoadGraph B = makeRoadGraph(10, 10, 3);
  EXPECT_EQ(A.Targets, B.Targets);
  RoadGraph C = makeRoadGraph(10, 10, 4);
  EXPECT_NE(A.Targets, C.Targets);
}

TEST(GraphAlgos, BfsOnTinyGrid) {
  // Full 3x3 grid (seed chosen irrelevant; use edge-keep probability by
  // retrying until connected is unnecessary at this size: check what we
  // get instead).
  RoadGraph Graph = makeRoadGraph(3, 3, 11);
  GraphAlgoResult Result = runBfsLevels(Graph, 0);
  EXPECT_FALSE(Result.RoundSizes.empty());
  EXPECT_DOUBLE_EQ(Result.RoundSizes.front(), 1.0); // Source frontier.
  double Visited = 0;
  for (double Size : Result.RoundSizes)
    Visited += Size;
  EXPECT_LE(Visited, 9.0);
}

TEST(GraphAlgos, BfsDepthSumMatchesManualOnFullGrid) {
  // Build a graph where no edges were dropped by seeding until full;
  // easier: accept drops and verify per-node depth consistency instead.
  RoadGraph Graph = makeRoadGraph(16, 16, 5);
  GraphAlgoResult A = runBfsLevels(Graph, 0);
  GraphAlgoResult B = runBfsLevels(Graph, 0);
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.RoundSizes, B.RoundSizes);
}

TEST(GraphAlgos, ConnectedComponentsCountsPartitions) {
  RoadGraph Graph = makeRoadGraph(12, 12, 9);
  GraphAlgoResult Result = runConnectedComponents(Graph);
  uint64_t Components = Result.Checksum >> 32;
  EXPECT_GE(Components, 1u);
  EXPECT_LT(Components, Graph.numNodes());
  // Sum of active sets >= node count (every node activates at least
  // once).
  double Activations = 0;
  for (double Size : Result.RoundSizes)
    Activations += Size;
  EXPECT_GE(Activations, static_cast<double>(Graph.numNodes()));
}

namespace {
/// The push-worklist formulation runConnectedComponents replaced, kept as
/// the reference for the pull sweep: each round, last round's changed
/// nodes push their labels to their neighbours.
GraphAlgoResult pushWorklistComponents(const RoadGraph &Graph) {
  GraphAlgoResult Result;
  const uint32_t Nodes = Graph.numNodes();
  std::vector<uint32_t> Label(Nodes);
  for (uint32_t V = 0; V != Nodes; ++V)
    Label[V] = V;
  std::vector<uint8_t> InNext(Nodes, 0);
  std::vector<uint32_t> Worklist = Label;
  std::vector<uint32_t> NextLabel = Label;
  while (!Worklist.empty()) {
    Result.RoundSizes.push_back(static_cast<double>(Worklist.size()));
    std::vector<uint32_t> Next;
    for (uint32_t V : Worklist) {
      uint32_t Mine = Label[V];
      for (uint32_t E = Graph.Offsets[V]; E != Graph.Offsets[V + 1]; ++E) {
        uint32_t U = Graph.Targets[E];
        if (Mine < NextLabel[U]) {
          NextLabel[U] = Mine;
          if (!InNext[U]) {
            InNext[U] = 1;
            Next.push_back(U);
          }
        }
      }
    }
    for (uint32_t U : Next) {
      InNext[U] = 0;
      Label[U] = NextLabel[U];
    }
    Worklist = std::move(Next);
  }
  uint64_t LabelSum = 0;
  uint64_t Components = 0;
  for (uint32_t V = 0; V != Nodes; ++V) {
    LabelSum += Label[V];
    if (Label[V] == V)
      ++Components;
  }
  Result.Checksum = (Components << 32) + (LabelSum & 0xffffffffULL);
  return Result;
}

/// A Width x Height grid keeping each street with probability \p Keep.
/// Far sparser than makeRoadGraph's 92%, so it has the winding dead ends
/// whose labels arrive from a neighbour exactly Width ids away: the edge
/// of runConnectedComponents' sweep window.
RoadGraph sparseGrid(uint32_t Width, uint32_t Height, double Keep,
                     uint64_t Seed) {
  RoadGraph Graph;
  Graph.Width = Width;
  Graph.Height = Height;
  const uint32_t Nodes = Width * Height;
  std::vector<std::vector<uint32_t>> Streets(Nodes);
  Xoshiro256 Rng(Seed);
  auto MaybeLink = [&](uint32_t V, uint32_t U) {
    if (Rng.nextDouble() < Keep) {
      Streets[V].push_back(U);
      Streets[U].push_back(V);
    }
  };
  for (uint32_t V = 0; V != Nodes; ++V) {
    if (V % Width + 1 != Width)
      MaybeLink(V, V + 1);
    if (V + Width < Nodes)
      MaybeLink(V, V + Width);
  }
  Graph.Offsets.push_back(0);
  for (const std::vector<uint32_t> &Targets : Streets) {
    Graph.Targets.insert(Graph.Targets.end(), Targets.begin(), Targets.end());
    Graph.Offsets.push_back(static_cast<uint32_t>(Graph.Targets.size()));
  }
  Graph.Weights.assign(Graph.Targets.size(), 1.0f);
  return Graph;
}
} // namespace

TEST(GraphAlgos, ConnectedComponentsMatchesPushWorklist) {
  const std::pair<uint32_t, uint32_t> Grids[] = {
      {2, 2}, {3, 3}, {2, 64}, {64, 2}, {12, 12}, {37, 53}, {160, 160}};
  for (const auto &[Width, Height] : Grids) {
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      SCOPED_TRACE(testing::Message()
                   << Width << "x" << Height << " seed " << Seed);
      RoadGraph Graph = makeRoadGraph(Width, Height, Seed);
      GraphAlgoResult Pull = runConnectedComponents(Graph);
      GraphAlgoResult Push = pushWorklistComponents(Graph);
      EXPECT_EQ(Pull.RoundSizes, Push.RoundSizes);
      EXPECT_EQ(Pull.Checksum, Push.Checksum);
    }
  }
  // With 8% of streets removed this grid splits, so the matrix covers
  // labels that settle above 0, not only one connected graph.
  EXPECT_GT(runConnectedComponents(makeRoadGraph(37, 53, 1)).Checksum >> 32,
            1u);
  for (double Keep : {0.5, 0.6, 0.7}) {
    for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
      SCOPED_TRACE(testing::Message() << "keep " << Keep << " seed " << Seed);
      RoadGraph Graph = sparseGrid(12, 12, Keep, Seed);
      GraphAlgoResult Pull = runConnectedComponents(Graph);
      GraphAlgoResult Push = pushWorklistComponents(Graph);
      EXPECT_EQ(Pull.RoundSizes, Push.RoundSizes);
      EXPECT_EQ(Pull.Checksum, Push.Checksum);
    }
  }
}

TEST(GeneratorsDeathTest, RoadGraphRejectsNodeIdOverflow) {
  // 70000^2 nodes wrap uint32_t; the check fires before any allocation.
  EXPECT_DEATH(makeRoadGraph(70000, 70000, 1), "node ids must fit");
}

TEST(GraphAlgos, ShortestPathsDominatedByBfsDepth) {
  RoadGraph Graph = makeRoadGraph(10, 10, 13);
  GraphAlgoResult Bfs = runBfsLevels(Graph, 0);
  GraphAlgoResult Sssp = runShortestPaths(Graph, 0);
  // Weighted distance >= hop count (weights >= 1).
  EXPECT_GE(Sssp.Checksum, Bfs.Checksum);
  EXPECT_FALSE(Sssp.RoundSizes.empty());
}

TEST(Mandelbrot, KnownInteriorAndExterior) {
  std::vector<uint16_t> Raster;
  renderMandelbrot(64, 64, 100, Raster);
  ASSERT_EQ(Raster.size(), 64u * 64u);
  // The region includes the main cardioid: some pixel hits MaxIter.
  EXPECT_NE(std::find(Raster.begin(), Raster.end(), 100),
            Raster.end());
  // And the corners escape immediately-ish.
  EXPECT_LT(Raster.front(), 5);
}

TEST(Registry, DesktopSuiteMatchesTable1) {
  std::vector<Workload> Suite = desktopSuite(tinyConfig());
  ASSERT_EQ(Suite.size(), 12u);
  std::set<std::string> Abbrevs;
  unsigned Irregular = 0;
  for (const Workload &W : Suite) {
    Abbrevs.insert(W.Abbrev);
    EXPECT_FALSE(W.Trace.empty()) << W.Abbrev;
    EXPECT_GT(W.totalIterations(), 0.0) << W.Abbrev;
    if (!W.Regular)
      ++Irregular;
  }
  // Table 1: seven irregular (BH, BFS, CC, FD, MB, SL, SP), five regular.
  EXPECT_EQ(Irregular, 7u);
  EXPECT_EQ(Abbrevs.size(), 12u);
  for (const char *Abbrev :
       {"BH", "BFS", "CC", "FD", "MB", "SL", "SP", "BS", "MM", "NB", "RT",
        "SM"})
    EXPECT_TRUE(Abbrevs.count(Abbrev)) << Abbrev;
}

TEST(Registry, TabletSuiteHasSevenWorkloads) {
  std::vector<Workload> Suite = tabletSuite(tinyConfig());
  ASSERT_EQ(Suite.size(), 7u);
  for (const Workload &W : Suite)
    EXPECT_TRUE(W.OnTablet) << W.Abbrev;
}

TEST(Registry, InvocationCountsMatchTable1Shape) {
  std::vector<Workload> Suite = desktopSuite(tinyConfig());
  auto Count = [&Suite](const char *Abbrev) {
    const Workload *W = findWorkload(Suite, Abbrev);
    return W ? W->numInvocations() : 0u;
  };
  // Single-invocation kernels.
  for (const char *Abbrev : {"BH", "MB", "SL", "MM", "RT"})
    EXPECT_EQ(Count(Abbrev), 1u) << Abbrev;
  // Fixed multi-invocation counts.
  EXPECT_EQ(Count("BS"), 2000u);
  EXPECT_EQ(Count("NB"), 101u);
  EXPECT_EQ(Count("SM"), 100u);
  EXPECT_EQ(Count("FD"), 132u);
  // Graph workloads: derived from the real algorithm; many rounds.
  EXPECT_GT(Count("BFS"), 50u);
  EXPECT_GT(Count("CC"), 50u);
  EXPECT_GT(Count("SP"), 50u);
}

TEST(Registry, FindWorkloadIsCaseInsensitive) {
  std::vector<Workload> Suite = tabletSuite(tinyConfig());
  EXPECT_NE(findWorkload(Suite, "mm"), nullptr);
  EXPECT_NE(findWorkload(Suite, "MM"), nullptr);
  EXPECT_EQ(findWorkload(Suite, "nope"), nullptr);
}

TEST(Registry, KernelIdsAreUniqueAcrossSuite) {
  std::vector<Workload> Suite = desktopSuite(tinyConfig());
  std::set<uint64_t> Ids;
  for (const Workload &W : Suite) {
    ASSERT_FALSE(W.Trace.empty());
    Ids.insert(W.Trace.front().Kernel.Id);
    EXPECT_NE(W.Trace.front().Kernel.Id, 0u) << W.Abbrev;
  }
  EXPECT_EQ(Ids.size(), Suite.size());
}

TEST(Registry, AllKernelDescriptorsValid) {
  for (const Workload &W : desktopSuite(tinyConfig()))
    for (const KernelInvocation &Invocation : W.Trace)
      ASSERT_TRUE(Invocation.Kernel.valid()) << W.Abbrev;
}

//===----------------------------------------------------------------------===//
// Host-parallel consistency: the Mandelbrot kernel produces identical
// results on the work-stealing runtime and sequentially.
//===----------------------------------------------------------------------===//

#include "ecas/runtime/ParallelFor.h"

TEST(HostParallel, MandelbrotMatchesSequential) {
  const uint32_t W = 128, H = 96, MaxIter = 128;
  std::vector<uint16_t> Sequential;
  renderMandelbrot(W, H, MaxIter, Sequential);

  // Same math, row-parallel on the pool.
  std::vector<uint16_t> Parallel(Sequential.size(), 0);
  ThreadPool Pool(4);
  const double X0 = -2.2, X1 = 1.0, Y0 = -1.28, Y1 = 1.28;
  Pool.parallelFor(0, static_cast<uint64_t>(W) * H, 64,
                   [&](uint64_t Begin, uint64_t End) {
    for (uint64_t Pixel = Begin; Pixel != End; ++Pixel) {
      uint32_t Px = static_cast<uint32_t>(Pixel % W);
      uint32_t Py = static_cast<uint32_t>(Pixel / W);
      double Cr = X0 + (X1 - X0) * Px / W;
      double Ci = Y0 + (Y1 - Y0) * Py / H;
      double Zr = 0.0, Zi = 0.0;
      uint32_t Iter = 0;
      while (Iter < MaxIter && Zr * Zr + Zi * Zi <= 4.0) {
        double NewZr = Zr * Zr - Zi * Zi + Cr;
        Zi = 2.0 * Zr * Zi + Ci;
        Zr = NewZr;
        ++Iter;
      }
      Parallel[Pixel] = static_cast<uint16_t>(Iter);
    }
  });
  EXPECT_EQ(Parallel, Sequential);
}

//===----------------------------------------------------------------------===//
// Trace invariants across scales and seeds.
//===----------------------------------------------------------------------===//

TEST(TraceInvariants, GraphTraceScalesWithSqrt) {
  WorkloadConfig Small;
  Small.Scale = 0.04;
  WorkloadConfig Large;
  Large.Scale = 0.16;
  Workload WSmall = makeBfsWorkload(Small);
  Workload WLarge = makeBfsWorkload(Large);
  // Totals follow sqrt(scale): 0.16/0.04 -> 2x.
  EXPECT_NEAR(WLarge.totalIterations() / WSmall.totalIterations(), 2.0,
              0.3);
  // Levels follow the grid side: also ~2x.
  EXPECT_NEAR(static_cast<double>(WLarge.numInvocations()) /
                  WSmall.numInvocations(),
              2.0, 0.4);
}

TEST(TraceInvariants, SeedChangesGraphTraceShape) {
  WorkloadConfig A;
  A.Scale = 0.05;
  WorkloadConfig B = A;
  B.Seed = 0xfeed;
  Workload WA = makeBfsWorkload(A);
  Workload WB = makeBfsWorkload(B);
  bool AnyDifferent = WA.numInvocations() != WB.numInvocations();
  for (size_t I = 0;
       !AnyDifferent && I < std::min(WA.Trace.size(), WB.Trace.size());
       ++I)
    AnyDifferent = WA.Trace[I].Iterations != WB.Trace[I].Iterations;
  EXPECT_TRUE(AnyDifferent);
}

TEST(TraceInvariants, NonGraphTracesIgnoreScale) {
  WorkloadConfig Small;
  Small.Scale = 0.01;
  WorkloadConfig Full;
  Full.Scale = 1.0;
  EXPECT_DOUBLE_EQ(makeBlackScholesWorkload(Small).totalIterations(),
                   makeBlackScholesWorkload(Full).totalIterations());
  EXPECT_DOUBLE_EQ(makeNBodyWorkload(Small).totalIterations(),
                   makeNBodyWorkload(Full).totalIterations());
}

TEST(TraceInvariants, TabletInputsShrinkWhereTable1Says) {
  WorkloadConfig Desktop;
  WorkloadConfig Tablet;
  Tablet.TabletInputs = true;
  // MM: 2048^2 -> 1024^2; SL: 500M -> 45M; SM: unchanged.
  EXPECT_LT(makeMatrixMultiplyWorkload(Tablet).totalIterations(),
            makeMatrixMultiplyWorkload(Desktop).totalIterations());
  EXPECT_LT(makeSkipListWorkload(Tablet).totalIterations(),
            makeSkipListWorkload(Desktop).totalIterations());
  EXPECT_DOUBLE_EQ(makeSeismicWorkload(Tablet).totalIterations(),
                   makeSeismicWorkload(Desktop).totalIterations());
}
