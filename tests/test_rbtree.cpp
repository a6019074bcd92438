// Unit + property tests for the intrusive red-black tree, checked against
// std::multimap as the model and the red-black invariants validator.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "container/rbtree.h"

namespace papm::container {
namespace {

struct Item {
  u32 seq = 0;
  int tag = 0;
  RbHook hook;
};

using Tree = RbTree<Item, u32, &Item::hook, &Item::seq>;

TEST(RbTree, EmptyTree) {
  Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.first(), nullptr);
  EXPECT_EQ(t.last(), nullptr);
  EXPECT_EQ(t.find(5), nullptr);
  EXPECT_EQ(t.lower_bound(0), nullptr);
  EXPECT_GE(t.validate(), 0);
}

TEST(RbTree, SingleElement) {
  Tree t;
  Item a{10, 0, {}};
  t.insert(a);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(10), &a);
  EXPECT_EQ(t.first(), &a);
  EXPECT_EQ(t.last(), &a);
  EXPECT_EQ(t.next(a), nullptr);
  t.erase(a);
  EXPECT_TRUE(t.empty());
  EXPECT_GE(t.validate(), 0);
}

TEST(RbTree, InOrderIterationSorted) {
  Tree t;
  std::vector<std::unique_ptr<Item>> items;
  Rng rng(3);
  for (int i = 0; i < 500; i++) {
    items.push_back(std::make_unique<Item>(Item{static_cast<u32>(rng.next()), i, {}}));
    t.insert(*items.back());
  }
  ASSERT_GE(t.validate(), 0);
  u32 prev = 0;
  int count = 0;
  for (Item* it = t.first(); it != nullptr; it = t.next(*it)) {
    if (count > 0) {
      EXPECT_LE(prev, it->seq);
    }
    prev = it->seq;
    count++;
  }
  EXPECT_EQ(count, 500);
}

TEST(RbTree, LowerBoundSemantics) {
  Tree t;
  Item a{10, 0, {}}, b{20, 0, {}}, c{30, 0, {}};
  t.insert(b);
  t.insert(a);
  t.insert(c);
  EXPECT_EQ(t.lower_bound(5), &a);
  EXPECT_EQ(t.lower_bound(10), &a);
  EXPECT_EQ(t.lower_bound(11), &b);
  EXPECT_EQ(t.lower_bound(20), &b);
  EXPECT_EQ(t.lower_bound(25), &c);
  EXPECT_EQ(t.lower_bound(31), nullptr);
}

TEST(RbTree, DuplicateKeysStableOrder) {
  Tree t;
  Item a{7, 1, {}}, b{7, 2, {}}, c{7, 3, {}};
  t.insert(a);
  t.insert(b);
  t.insert(c);
  ASSERT_GE(t.validate(), 0);
  Item* it = t.find(7);
  ASSERT_NE(it, nullptr);
  EXPECT_EQ(it->tag, 1);  // first inserted among equals
  it = t.next(*it);
  ASSERT_NE(it, nullptr);
  EXPECT_EQ(it->tag, 2);
  it = t.next(*it);
  ASSERT_NE(it, nullptr);
  EXPECT_EQ(it->tag, 3);
}

TEST(RbTree, EraseMiddleKeepsOrder) {
  Tree t;
  std::vector<std::unique_ptr<Item>> items;
  for (u32 i = 0; i < 100; i++) {
    items.push_back(std::make_unique<Item>(Item{i, 0, {}}));
    t.insert(*items.back());
  }
  for (u32 i = 1; i < 100; i += 2) {
    t.erase(*items[i]);
    ASSERT_GE(t.validate(), 0) << "after erasing " << i;
  }
  EXPECT_EQ(t.size(), 50u);
  u32 expect = 0;
  for (Item* it = t.first(); it != nullptr; it = t.next(*it)) {
    EXPECT_EQ(it->seq, expect);
    expect += 2;
  }
}

// Property: a random interleaving of inserts and erases matches
// std::multimap and preserves the red-black invariants throughout.
class RbTreeFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(RbTreeFuzz, MatchesMultimapModel) {
  Tree t;
  std::multimap<u32, Item*> model;
  std::vector<std::unique_ptr<Item>> owned;
  Rng rng(GetParam());

  for (int step = 0; step < 3000; step++) {
    const bool do_insert = model.empty() || rng.chance(0.6);
    if (do_insert) {
      const u32 key = static_cast<u32>(rng.next_below(500));
      owned.push_back(std::make_unique<Item>(Item{key, step, {}}));
      t.insert(*owned.back());
      model.emplace(key, owned.back().get());
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.next_below(model.size())));
      t.erase(*it->second);
      model.erase(it);
    }
    if (step % 100 == 0) {
      ASSERT_GE(t.validate(), 0) << "step " << step;
    }
    ASSERT_EQ(t.size(), model.size());
  }
  ASSERT_GE(t.validate(), 0);

  // Full in-order comparison at the end.
  auto mit = model.begin();
  for (Item* it = t.first(); it != nullptr; it = t.next(*it), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->seq, mit->first);
  }
  EXPECT_EQ(mit, model.end());

  // lower_bound agrees with the model on every probe.
  for (u32 k = 0; k < 510; k += 3) {
    Item* lb = t.lower_bound(k);
    auto mlb = model.lower_bound(k);
    if (mlb == model.end()) {
      EXPECT_EQ(lb, nullptr) << "key " << k;
    } else {
      ASSERT_NE(lb, nullptr) << "key " << k;
      EXPECT_EQ(lb->seq, mlb->first) << "key " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 77, 1234, 99999));

// Sequence-number wrap scenario: TCP uses the tree with serial-number
// keys; here we only assert the tree handles the full u32 domain.
TEST(RbTree, ExtremeKeys) {
  Tree t;
  Item lo{0, 0, {}}, hi{0xffffffffu, 0, {}}, mid{0x80000000u, 0, {}};
  t.insert(hi);
  t.insert(lo);
  t.insert(mid);
  ASSERT_GE(t.validate(), 0);
  EXPECT_EQ(t.first(), &lo);
  EXPECT_EQ(t.last(), &hi);
}

}  // namespace
}  // namespace papm::container
