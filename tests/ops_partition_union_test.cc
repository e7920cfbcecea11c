#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "common/state_io.h"
#include "geometry/grid.h"
#include "ops/extras.h"
#include "ops/partition.h"
#include "ops/union_op.h"
#include "pointprocess/gof.h"
#include "pointprocess/simulate.h"

namespace craqr {
namespace ops {
namespace {

Tuple TupleAt(const geom::SpaceTimePoint& p) {
  Tuple tuple;
  tuple.point = p;
  return tuple;
}

TEST(PartitionTest, ValidatesRegions) {
  EXPECT_FALSE(PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 1)}).ok());
  // Overlapping regions rejected.
  EXPECT_FALSE(PartitionOperator::Make(
                   "p", {geom::Rect(0, 0, 2, 2), geom::Rect(1, 1, 3, 3)})
                   .ok());
  EXPECT_FALSE(
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 1), geom::Rect()})
          .ok());
  EXPECT_TRUE(PartitionOperator::Make(
                  "p", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1)})
                  .ok());
}

TEST(PartitionTest, RoutesByRegion) {
  auto partition =
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 2), geom::Rect(1, 0, 2, 2)})
          .MoveValue();
  auto left = SinkOperator::Make("left").MoveValue();
  auto right = SinkOperator::Make("right").MoveValue();
  partition->AddOutput(left.get());
  partition->AddOutput(right.get());
  ASSERT_TRUE(partition->Push(TupleAt({0.0, 0.5, 1.0})).ok());
  ASSERT_TRUE(partition->Push(TupleAt({0.0, 1.5, 1.0})).ok());
  ASSERT_TRUE(partition->Push(TupleAt({0.0, 0.2, 0.2})).ok());
  EXPECT_EQ(left->tuples().size(), 2u);
  EXPECT_EQ(right->tuples().size(), 1u);
  EXPECT_EQ(partition->unrouted(), 0u);
}

TEST(PartitionTest, CountsUnroutedTuples) {
  auto partition =
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1)})
          .MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  partition->AddOutput(sink.get());
  // Outside both regions.
  ASSERT_TRUE(partition->Push(TupleAt({0.0, 5.0, 5.0})).ok());
  EXPECT_EQ(partition->unrouted(), 1u);
  // In region 1 but branch 1 not connected: counted, not an error.
  ASSERT_TRUE(partition->Push(TupleAt({0.0, 1.5, 0.5})).ok());
  EXPECT_EQ(partition->unrouted(), 2u);
  EXPECT_EQ(sink->tuples().size(), 0u);
}

TEST(PartitionTest, PreservesRatePerRegion) {
  // Partitioning P(lambda, R) yields P(lambda, R_k) on each piece.
  const geom::Rect region(0, 0, 4, 2);
  const pp::SpaceTimeWindow w{0.0, 60.0, region};
  Rng rng(61);
  const auto points = pp::SimulateHomogeneous(&rng, 8.0, w);
  ASSERT_TRUE(points.ok());
  auto partition =
      PartitionOperator::Make("p", {geom::Rect(0, 0, 1, 2),   // quarter
                                    geom::Rect(1, 0, 4, 2)})  // rest
          .MoveValue();
  auto a = SinkOperator::Make("a", 1 << 22).MoveValue();
  auto b = SinkOperator::Make("b", 1 << 22).MoveValue();
  partition->AddOutput(a.get());
  partition->AddOutput(b.get());
  for (const auto& p : *points) {
    ASSERT_TRUE(partition->Push(TupleAt(p)).ok());
  }
  // Expected counts: 8 * area * 60.
  EXPECT_GT(PoissonTwoSidedPValue(8.0 * 2.0 * 60.0,
                                  static_cast<double>(a->tuples().size())),
            1e-6);
  EXPECT_GT(PoissonTwoSidedPValue(8.0 * 6.0 * 60.0,
                                  static_cast<double>(b->tuples().size())),
            1e-6);
  // Conservation.
  EXPECT_EQ(a->tuples().size() + b->tuples().size(), points->size());
}

TEST(PartitionTest, KWayRouting) {
  std::vector<geom::Rect> regions;
  for (int i = 0; i < 4; ++i) {
    regions.emplace_back(i, 0.0, i + 1.0, 1.0);
  }
  auto partition = PartitionOperator::Make("p", regions).MoveValue();
  std::vector<std::unique_ptr<SinkOperator>> sinks;
  for (int i = 0; i < 4; ++i) {
    sinks.push_back(SinkOperator::Make("s" + std::to_string(i)).MoveValue());
    partition->AddOutput(sinks.back().get());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(partition->Push(TupleAt({0.0, i + 0.5, 0.5})).ok());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sinks[i]->tuples().size(), 1u) << i;
  }
}

TEST(UnionTest, ValidatesAdjacency) {
  // Two adjacent cells sharing a full side: OK.
  EXPECT_TRUE(UnionOperator::Make(
                  "u", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1)})
                  .ok());
  // Disjoint but not tiling a rectangle: rejected.
  EXPECT_EQ(UnionOperator::Make(
                "u", {geom::Rect(0, 0, 1, 1), geom::Rect(2, 0, 3, 1)})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Overlapping: rejected.
  EXPECT_FALSE(UnionOperator::Make(
                   "u", {geom::Rect(0, 0, 2, 1), geom::Rect(1, 0, 3, 1)})
                   .ok());
  // Fewer than two regions: rejected.
  EXPECT_FALSE(UnionOperator::Make("u", {geom::Rect(0, 0, 1, 1)}).ok());
  // L-shaped (diagonal gap): rejected.
  EXPECT_FALSE(UnionOperator::Make("u", {geom::Rect(0, 0, 1, 1),
                                         geom::Rect(1, 0, 2, 1),
                                         geom::Rect(0, 1, 1, 2)})
                   .ok());
}

TEST(UnionTest, OutputRegionIsBoundingRect) {
  auto u = UnionOperator::Make("u", {geom::Rect(0, 0, 1, 2),
                                     geom::Rect(1, 0, 3, 2)})
               .MoveValue();
  EXPECT_EQ(u->output_region(), geom::Rect(0, 0, 3, 2));
}

TEST(UnionTest, FourCellsTileASquare) {
  EXPECT_TRUE(UnionOperator::Make(
                  "u", {geom::Rect(0, 0, 1, 1), geom::Rect(1, 0, 2, 1),
                        geom::Rect(0, 1, 1, 2), geom::Rect(1, 1, 2, 2)})
                  .ok());
}

TEST(UnionTest, MergesStreamsAndPreservesRate) {
  // Two equal-rate processes on adjacent regions union to one process on
  // the combined region at the same rate.
  const geom::Rect left(0, 0, 2, 2);
  const geom::Rect right(2, 0, 4, 2);
  const double rate = 6.0;
  Rng rng_l(62);
  Rng rng_r(63);
  const auto pl =
      pp::SimulateHomogeneous(&rng_l, rate, pp::SpaceTimeWindow{0, 50, left});
  const auto pr =
      pp::SimulateHomogeneous(&rng_r, rate, pp::SpaceTimeWindow{0, 50, right});
  ASSERT_TRUE(pl.ok() && pr.ok());
  auto u = UnionOperator::Make("u", {left, right}).MoveValue();
  auto sink = SinkOperator::Make("s", 1 << 22).MoveValue();
  u->AddOutput(sink.get());
  for (const auto& p : *pl) {
    ASSERT_TRUE(u->Push(TupleAt(p)).ok());
  }
  for (const auto& p : *pr) {
    ASSERT_TRUE(u->Push(TupleAt(p)).ok());
  }
  EXPECT_EQ(sink->tuples().size(), pl->size() + pr->size());
  EXPECT_EQ(u->out_of_region(), 0u);
  // Combined region volume = 8 km^2 * 50 min.
  EXPECT_GT(PoissonTwoSidedPValue(rate * 8.0 * 50.0,
                                  static_cast<double>(sink->tuples().size())),
            1e-6);
}

TEST(UnionTest, CountsOutOfRegionTuples) {
  auto u = UnionOperator::Make("u", {geom::Rect(0, 0, 1, 1),
                                     geom::Rect(1, 0, 2, 1)})
               .MoveValue();
  auto sink = SinkOperator::Make("s").MoveValue();
  u->AddOutput(sink.get());
  ASSERT_TRUE(u->Push(TupleAt({0.0, 9.0, 9.0})).ok());
  EXPECT_EQ(u->out_of_region(), 1u);
  // Still forwarded (diagnostic, not a filter).
  EXPECT_EQ(sink->tuples().size(), 1u);

  // Union tests membership against its bounding box in one sweep. On the
  // pieces the fabric's merge stages build — a query's grid-cell overlaps
  // — that must count exactly what OR-ing one test per piece counts. The
  // grids have an exact cell width (8 km / 16 x 16) and inexact ones
  // (10 km / 9 x 9 and 15 x 15).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto below = [](double v) { return std::nextafter(v, -1e300); };
  for (const auto& [km, h] : {std::pair<double, std::uint32_t>{8.0, 256},
                              {10.0, 81},
                              {10.0, 225}}) {
    const auto grid = geom::Grid::Make(geom::Rect(0, 0, km, km), h).MoveValue();
    const geom::Rect row =
        grid.CellRect({0, grid.CellsPerSide() / 2});  // a middle cell row
    const std::vector<geom::Rect> queries = {
        geom::Rect(0, 0, km, km),                        // full region
        geom::Rect(0, 0, km / 2, km),                    // half region
        geom::Rect(0.3, 1.1, 2.3, 3.1),                  // 2 x 2 km square,
        geom::Rect(km - 2.9, km / 2 - 0.7, km - 0.9,     // roaming
                   km / 2 + 1.3),
        geom::Rect(0, row.y_min(), km, row.y_max())};    // one-row strip
    for (const auto& query : queries) {
      SCOPED_TRACE(std::to_string(km) + " km/" + std::to_string(h) +
                   " cells, query " + query.ToString());
      std::vector<geom::Rect> pieces;
      for (const auto& overlap : grid.Overlaps(query).MoveValue()) {
        pieces.push_back(overlap.region);
      }
      ASSERT_GE(pieces.size(), 2u);
      auto made = UnionOperator::Make("u", pieces);
      ASSERT_TRUE(made.ok()) << made.status().ToString();
      const auto make = [&pieces] {
        return UnionOperator::Make("u", pieces).MoveValue();
      };
      auto per_tuple = made.MoveValue();
      const geom::Rect box = per_tuple->output_region();

      // Random points over and around the region; every piece corner,
      // edge midpoint and the last value below each far edge; the same on
      // the bounding box; points outside the region; and NaN coordinates.
      std::vector<geom::SpaceTimePoint> points;
      Rng rng(h);
      for (int i = 0; i < 400; ++i) {
        points.push_back({0.0, rng.Uniform(-1.0, km + 1.0),
                          rng.Uniform(-1.0, km + 1.0)});
      }
      std::vector<geom::Rect> edged = pieces;
      edged.push_back(box);
      for (const auto& r : edged) {
        const double mid_x = (r.x_min() + r.x_max()) / 2;
        const double mid_y = (r.y_min() + r.y_max()) / 2;
        for (const double x : {below(r.x_min()), r.x_min(), mid_x,
                               below(r.x_max()), r.x_max()}) {
          for (const double y : {below(r.y_min()), r.y_min(), mid_y,
                                 below(r.y_max()), r.y_max()}) {
            points.push_back({0.0, x, y});
          }
        }
      }
      for (const auto& [x, y] : {std::pair<double, double>{-1.0, -1.0},
                                 {km + 1.0, km / 2},
                                 {nan, 1.0},
                                 {1.0, nan},
                                 {nan, nan}}) {
        points.push_back({0.0, x, y});
      }
      // Reference: the per-piece OR.
      const auto outside = [&pieces](const geom::SpaceTimePoint& p) {
        for (const auto& piece : pieces) {
          if (piece.Contains(p.x, p.y)) {
            return false;
          }
        }
        return true;
      };
      std::uint64_t expected = 0;
      for (const auto& p : points) {
        expected += outside(p) ? 1 : 0;
      }
      ASSERT_GT(expected, 0u);

      auto per_tuple_sink = SinkOperator::Make("s", 1 << 16).MoveValue();
      per_tuple->AddOutput(per_tuple_sink.get());
      for (const auto& p : points) {
        ASSERT_TRUE(per_tuple->Push(TupleAt(p)).ok());
      }
      EXPECT_EQ(per_tuple->out_of_region(), expected);

      // The batch path, once on the whole batch and once on a batch whose
      // selection left every third row behind as an inactive husk.
      auto batched = make();
      auto batched_sink = SinkOperator::Make("s", 1 << 16).MoveValue();
      batched->AddOutput(batched_sink.get());
      std::vector<Tuple> tuples;
      for (const auto& p : points) {
        tuples.push_back(TupleAt(p));
      }
      TupleBatch batch;
      batch.Assign(tuples);
      ASSERT_TRUE(batched->PushBatch(batch).ok());
      EXPECT_EQ(batched->out_of_region(), expected);
      batch.Assign(tuples);
      batch.RetainRaw([](std::uint32_t i) { return i % 3 != 0; });
      std::uint64_t expected_kept = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        expected_kept += (i % 3 != 0 && outside(points[i])) ? 1 : 0;
      }
      ASSERT_TRUE(batched->PushBatch(batch).ok());
      EXPECT_EQ(batched->out_of_region(), expected + expected_kept);

      // The diagnostic round-trips through a checkpoint.
      StateWriter writer;
      batched->SaveState(writer);
      auto restored = make();
      StateReader reader(writer.bytes());
      ASSERT_TRUE(restored->RestoreState(reader).ok());
      EXPECT_EQ(restored->out_of_region(), batched->out_of_region());
      EXPECT_EQ(restored->stats().tuples_in, batched->stats().tuples_in);
    }
  }
}

}  // namespace
}  // namespace ops
}  // namespace craqr
