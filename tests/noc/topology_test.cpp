#include "noc/topology.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ls::noc {
namespace {

TEST(MeshTopology, ForCoresPicksNearSquare) {
  EXPECT_EQ(MeshTopology::for_cores(16).cols(), 4u);
  EXPECT_EQ(MeshTopology::for_cores(16).rows(), 4u);
  EXPECT_EQ(MeshTopology::for_cores(8).cols(), 4u);
  EXPECT_EQ(MeshTopology::for_cores(8).rows(), 2u);
  EXPECT_EQ(MeshTopology::for_cores(32).cols(), 8u);
  EXPECT_EQ(MeshTopology::for_cores(32).rows(), 4u);
  EXPECT_EQ(MeshTopology::for_cores(1).num_cores(), 1u);
}

TEST(MeshTopology, CoordRoundTrip) {
  const MeshTopology topo(4, 4);
  for (std::size_t c = 0; c < topo.num_cores(); ++c) {
    EXPECT_EQ(topo.core_at(topo.coord(c)), c);
  }
  EXPECT_THROW(topo.coord(16), std::out_of_range);
  EXPECT_THROW(topo.core_at({4, 0}), std::out_of_range);
}

TEST(MeshTopology, RowMajorLayout) {
  const MeshTopology topo(4, 4);
  EXPECT_EQ(topo.coord(0).x, 0u);
  EXPECT_EQ(topo.coord(0).y, 0u);
  EXPECT_EQ(topo.coord(3).x, 3u);
  EXPECT_EQ(topo.coord(3).y, 0u);
  EXPECT_EQ(topo.coord(4).x, 0u);
  EXPECT_EQ(topo.coord(4).y, 1u);
}

TEST(MeshTopology, HopsMatchesPaperFig6a) {
  // Fig. 6(a): distances from the first four cores of the 4x4 mesh. Core0's
  // row is 0,1,2,3; core1's begins 1,0,1,2; etc.
  const MeshTopology topo(4, 4);
  const std::size_t expected_core0[] = {0, 1, 2, 3, 1, 2, 3, 4,
                                        2, 3, 4, 5, 3, 4, 5, 6};
  for (std::size_t b = 0; b < 16; ++b) {
    EXPECT_EQ(topo.hops(0, b), expected_core0[b]) << b;
  }
  EXPECT_EQ(topo.hops(1, 0), 1u);
  EXPECT_EQ(topo.hops(1, 2), 1u);
  EXPECT_EQ(topo.hops(3, 2), 1u);  // paper: "one hop from core3 to core2"
}

TEST(MeshTopology, HopsSymmetric) {
  const MeshTopology topo(8, 4);
  for (std::size_t a = 0; a < topo.num_cores(); ++a) {
    for (std::size_t b = 0; b < topo.num_cores(); ++b) {
      EXPECT_EQ(topo.hops(a, b), topo.hops(b, a));
    }
  }
}

TEST(MeshTopology, TriangleInequality) {
  const MeshTopology topo(4, 4);
  for (std::size_t a = 0; a < 16; ++a) {
    for (std::size_t b = 0; b < 16; ++b) {
      for (std::size_t c = 0; c < 16; ++c) {
        EXPECT_LE(topo.hops(a, c), topo.hops(a, b) + topo.hops(b, c));
      }
    }
  }
}

TEST(MeshTopology, MeanHopsAndDiameter) {
  const MeshTopology topo(2, 2);
  // Pairs: 4 at distance 1 (adjacent, x2 direction each) ... enumerate:
  // (0,1)=1 (0,2)=1 (0,3)=2 (1,2)=2 (1,3)=1 (2,3)=1 -> mean = 8/6
  EXPECT_NEAR(topo.mean_hops(), 8.0 / 6.0, 1e-12);
  EXPECT_EQ(topo.diameter(), 2u);
}

TEST(MeshTopology, MeanHopsGrowsWithScale) {
  EXPECT_LT(MeshTopology::for_cores(4).mean_hops(),
            MeshTopology::for_cores(16).mean_hops());
  EXPECT_LT(MeshTopology::for_cores(16).mean_hops(),
            MeshTopology::for_cores(64).mean_hops());
}

TEST(MeshTopology, RejectsEmpty) {
  EXPECT_THROW(MeshTopology(0, 4), std::invalid_argument);
  EXPECT_THROW(MeshTopology::for_cores(0), std::invalid_argument);
}

TEST(MeshTopology, SingleCoreDegenerate) {
  const MeshTopology topo = MeshTopology::for_cores(1);
  EXPECT_EQ(topo.mean_hops(), 0.0);
  EXPECT_EQ(topo.hops(0, 0), 0u);
}

TEST(MeshTopology, ForCoresRejectsChainDegenerates) {
  // Prime counts >= 5 only factor as 1xN chains; for_cores must refuse
  // them with a message naming the count instead of silently building a
  // chain that every mesh-shaped model downstream would mis-report on.
  for (const std::size_t cores : {5ul, 7ul, 11ul, 13ul, 17ul, 101ul}) {
    try {
      MeshTopology::for_cores(cores);
      FAIL() << "for_cores(" << cores << ") accepted a 1xN chain";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(cores)),
                std::string::npos)
          << "message does not name the count: " << e.what();
    }
  }
  // Tiny counts have no non-degenerate shape and stay legal.
  EXPECT_EQ(MeshTopology::for_cores(2).num_cores(), 2u);
  EXPECT_EQ(MeshTopology::for_cores(3).num_cores(), 3u);
  // Composite counts still resolve to their near-square factorization.
  EXPECT_EQ(MeshTopology::for_cores(6).rows(), 2u);
}

TEST(MeshTopology, MetricHelpersOnDegenerateAndNonSquareShapes) {
  // 1x1: no pairs, zero diameter.
  const MeshTopology single(1, 1);
  EXPECT_EQ(single.mean_hops(), 0.0);
  EXPECT_EQ(single.diameter(), 0u);

  // 1xN chain (directly constructed; for_cores refuses to build one):
  // diameter N-1, mean hops (N+1)/3.
  const MeshTopology chain(5, 1);
  EXPECT_EQ(chain.diameter(), 4u);
  EXPECT_NEAR(chain.mean_hops(), 2.0, 1e-12);

  // Non-square 4x2: diameter (4-1)+(2-1), and mean hops matches the
  // brute-force expectation.
  const MeshTopology rect(4, 2);
  EXPECT_EQ(rect.diameter(), 4u);
  double total = 0.0;
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = 0; b < 8; ++b) {
      if (a != b) total += static_cast<double>(rect.hops(a, b));
    }
  }
  EXPECT_NEAR(rect.mean_hops(), total / (8.0 * 7.0), 1e-12);
}

}  // namespace
}  // namespace ls::noc
