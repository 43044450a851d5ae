// Seeded inputs: the same seed gives byte-identical query streams and
// snapshot files, a different seed gives different ones.
#include "inputs.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <string>

#include "hosts/asdb.h"
#include "serve/snapshot_builder.h"

namespace turtlebench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Builds the snapshot file from a log drawn from `seed` and an AS map
/// drawn from `geo_seed`, the way the daemon workloads do; returns its bytes.
std::string snapshot_bytes(const SurveyShape& shape, std::uint64_t seed,
                           std::uint64_t geo_seed) {
  const std::string dir = ::testing::TempDir();
  const std::string stem = dir + "/inputs_test_" + std::to_string(getpid()) + "_" +
                           std::to_string(seed);
  synthesize_log(stem + ".log", shape, seed);
  const auto catalog = turtle::hosts::AsCatalog::standard();
  const auto geo = make_geo(catalog, shape, geo_seed);
  turtle::serve::BuilderConfig config;
  config.geo = geo.get();
  turtle::serve::build_snapshot_file(stem + ".log", stem + ".snap", config);
  std::string bytes = read_file(stem + ".snap");
  std::remove((stem + ".log").c_str());
  std::remove((stem + ".snap").c_str());
  return bytes;
}

TEST(Inputs, SnapshotFilesAreAFunctionOfTheSeed) {
  const SurveyShape shape{60, 4, 10};
  const std::string a = snapshot_bytes(shape, 11, 1);
  ASSERT_GT(a.size(), 256u);
  EXPECT_EQ(a, snapshot_bytes(shape, 11, 1));
  EXPECT_NE(a, snapshot_bytes(shape, 12, 2));
  // Two versions of one workload share the AS map: same size, other delays.
  const std::string other_version = snapshot_bytes(shape, 12, 1);
  EXPECT_EQ(a.size(), other_version.size());
  EXPECT_NE(a, other_version);
}

TEST(Inputs, QueryStreamsAreAFunctionOfTheSeed) {
  const SurveyShape shape{400, 4, 10};
  for (const QueryMix mix : {QueryMix{0.05, 0.05, false, 1.0}, QueryMix{0.2, 0.2, true, 0}}) {
    const QueryStream a = make_query_stream(shape, mix, 5'000, 3);
    const QueryStream same = make_query_stream(shape, mix, 5'000, 3);
    const QueryStream other = make_query_stream(shape, mix, 5'000, 4);
    EXPECT_EQ(a.pool, same.pool);
    EXPECT_EQ(a.order, same.order);
    EXPECT_NE(a.pool, other.pool);
    ASSERT_EQ(a.order.size(), 5'000u);
    for (const std::uint32_t index : a.order) ASSERT_LT(index, a.pool.size());
  }
}

TEST(Inputs, ZipfStreamConcentratesOnFewBlocks) {
  const SurveyShape shape{400, 4, 10};
  const QueryStream skewed = make_query_stream(shape, QueryMix{0, 0, false, 1.0}, 20'000, 5);
  const QueryStream uniform = make_query_stream(shape, QueryMix{0, 0, false, 0}, 20'000, 5);
  EXPECT_LT(skewed.pool.size(), uniform.pool.size());
}

}  // namespace
}  // namespace turtlebench
