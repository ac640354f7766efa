// Metadata directory: upsert/remove, geometric queries, latest-version
// resolution, entity tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "staging/directory.hpp"

namespace corec::staging {
namespace {

ObjectDescriptor mk(VarId var, Version v, geom::Coord x0, geom::Coord y0,
                    geom::Coord x1, geom::Coord y1) {
  return {var, v, geom::BoundingBox::rect(x0, y0, x1, y1), kWholeObject};
}

ObjectLocation loc(ServerId primary, std::size_t bytes = 10) {
  ObjectLocation l;
  l.primary = primary;
  l.logical_size = bytes;
  return l;
}

TEST(Directory, UpsertFindRemove) {
  Directory dir;
  auto d = mk(1, 0, 0, 0, 3, 3);
  dir.upsert(d, loc(2, 99));
  ASSERT_NE(dir.find(d), nullptr);
  EXPECT_EQ(dir.find(d)->primary, 2u);
  EXPECT_EQ(dir.find(d)->logical_size, 99u);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_TRUE(dir.remove(d));
  EXPECT_EQ(dir.find(d), nullptr);
  EXPECT_FALSE(dir.remove(d));
}

TEST(Directory, UpsertOverwritesLocation) {
  Directory dir;
  auto d = mk(1, 0, 0, 0, 3, 3);
  dir.upsert(d, loc(2));
  dir.upsert(d, loc(5));
  EXPECT_EQ(dir.find(d)->primary, 5u);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(Directory, QueryIntersecting) {
  Directory dir;
  dir.upsert(mk(1, 3, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(1, 3, 4, 0, 7, 3), loc(1));
  dir.upsert(mk(1, 3, 0, 4, 3, 7), loc(2));
  dir.upsert(mk(2, 3, 0, 0, 7, 7), loc(3));  // other variable
  dir.upsert(mk(1, 4, 0, 0, 3, 3), loc(4));  // other version

  auto hits = dir.query(1, 3, geom::BoundingBox::rect(2, 2, 5, 5));
  EXPECT_EQ(hits.size(), 3u);
  hits = dir.query(1, 3, geom::BoundingBox::rect(6, 6, 7, 7));
  EXPECT_EQ(hits.size(), 0u);
  hits = dir.query(2, 3, geom::BoundingBox::rect(0, 0, 1, 1));
  EXPECT_EQ(hits.size(), 1u);
}

TEST(Directory, QueryLatestPicksNewestCover) {
  Directory dir;
  // Whole domain written at version 0; left half updated at version 2.
  dir.upsert(mk(1, 0, 0, 0, 7, 7), loc(0));
  dir.upsert(mk(1, 2, 0, 0, 3, 7), loc(1));

  auto hits = dir.query_latest(1, 5, geom::BoundingBox::rect(0, 0, 7, 7));
  ASSERT_EQ(hits.size(), 2u);
  // The newer (version 2) piece must be first so it shadows.
  EXPECT_EQ(hits[0].version, 2u);
  EXPECT_EQ(hits[1].version, 0u);

  // A read as of version 1 must not see the version-2 write.
  hits = dir.query_latest(1, 1, geom::BoundingBox::rect(0, 0, 7, 7));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].version, 0u);
}

TEST(Directory, QueryLatestSkipsFullyShadowed) {
  Directory dir;
  dir.upsert(mk(1, 0, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(1, 5, 0, 0, 3, 3), loc(1));  // same box, newer
  auto hits = dir.query_latest(1, 9, geom::BoundingBox::rect(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].version, 5u);
}

TEST(Directory, QueryLatestRegionScoped) {
  Directory dir;
  dir.upsert(mk(1, 1, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(1, 1, 4, 0, 7, 3), loc(1));
  auto hits = dir.query_latest(1, 1, geom::BoundingBox::rect(5, 1, 6, 2));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].box, geom::BoundingBox::rect(4, 0, 7, 3));
}

TEST(Directory, EntityTracksLiveVersion) {
  Directory dir;
  auto box = geom::BoundingBox::rect(0, 0, 3, 3);
  EXPECT_EQ(dir.find_entity(1, box), nullptr);
  dir.upsert(mk(1, 0, 0, 0, 3, 3), loc(0));
  ASSERT_NE(dir.find_entity(1, box), nullptr);
  EXPECT_EQ(dir.find_entity(1, box)->version, 0u);

  // Entity update: remove old version, insert new one.
  dir.remove(mk(1, 0, 0, 0, 3, 3));
  dir.upsert(mk(1, 7, 0, 0, 3, 3), loc(0));
  ASSERT_NE(dir.find_entity(1, box), nullptr);
  EXPECT_EQ(dir.find_entity(1, box)->version, 7u);

  dir.remove(mk(1, 7, 0, 0, 3, 3));
  EXPECT_EQ(dir.find_entity(1, box), nullptr);
}

TEST(Directory, EntityDistinguishesVariables) {
  Directory dir;
  auto box = geom::BoundingBox::rect(0, 0, 3, 3);
  dir.upsert(mk(1, 2, 0, 0, 3, 3), loc(0));
  dir.upsert(mk(2, 5, 0, 0, 3, 3), loc(1));
  ASSERT_NE(dir.find_entity(1, box), nullptr);
  ASSERT_NE(dir.find_entity(2, box), nullptr);
  EXPECT_EQ(dir.find_entity(1, box)->version, 2u);
  EXPECT_EQ(dir.find_entity(2, box)->version, 5u);
}

TEST(Directory, ForEachVisitsAll) {
  Directory dir;
  dir.upsert(mk(1, 0, 0, 0, 1, 1), loc(0, 5));
  dir.upsert(mk(1, 0, 2, 2, 3, 3), loc(1, 7));
  std::size_t total = 0;
  dir.for_each([&](const ObjectDescriptor&, const ObjectLocation& l) {
    total += l.logical_size;
  });
  EXPECT_EQ(total, 12u);
}

// remove() leaves dead slots and compacts buckets lazily; queries must
// still list the live descriptors of a (var, version) in insertion
// order, exactly as an eagerly erased vector would.
TEST(Directory, RemoveKeepsInsertionOrderThroughCompaction) {
  Directory dir;
  std::vector<ObjectDescriptor> model;  // live descriptors, in order
  std::mt19937_64 rng(7);
  std::vector<ObjectDescriptor> pool;
  for (geom::Coord x = 0; x < 64; ++x) pool.push_back(mk(1, 2, x, 0, x, 3));
  const auto everything = geom::BoundingBox::rect(0, 0, 63, 3);
  for (int op = 0; op < 4000; ++op) {
    const ObjectDescriptor& d = pool[rng() % pool.size()];
    auto at = std::find(model.begin(), model.end(), d);
    if (rng() % 3 == 0) {
      EXPECT_EQ(dir.remove(d), at != model.end());
      if (at != model.end()) model.erase(at);
    } else {
      dir.upsert(d, loc(static_cast<ServerId>(op % 8)));
      if (at == model.end()) model.push_back(d);
    }
    if (op % 50 == 0 || model.empty()) {
      ASSERT_EQ(dir.query(1, 2, everything), model) << "op " << op;
      ASSERT_EQ(dir.size(), model.size());
    }
  }
  // query_latest walks the same bucket: with disjoint boxes it lists
  // every live descriptor, in the same order.
  EXPECT_EQ(dir.query_latest(1, 5, everything), model);
  for (const auto& d : model) {
    ASSERT_NE(dir.find(d), nullptr);
    EXPECT_TRUE(dir.remove(d));
  }
  EXPECT_TRUE(dir.query(1, 2, everything).empty());
  EXPECT_EQ(dir.size(), 0u);
  // An emptied bucket is gone; a fresh insert starts a new one.
  dir.upsert(pool[5], loc(1));
  EXPECT_EQ(dir.query(1, 2, everything),
            std::vector<ObjectDescriptor>{pool[5]});
}

}  // namespace
}  // namespace corec::staging
