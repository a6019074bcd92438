// Unit + property tests for pm/: device persistence semantics, crash
// simulation, roots, pm_ptr, pool allocator crash consistency.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pktstore.h"
#include "net/pktbuf.h"
#include "pm/pm_device.h"
#include "pm/pm_pool.h"
#include "pm/pm_ptr.h"

namespace papm::pm {
namespace {

constexpr u64 kDev = 1 << 20;  // 1 MiB test device

std::vector<u8> bytes(std::string_view s) { return {s.begin(), s.end()}; }

class PmDeviceTest : public ::testing::Test {
 protected:
  sim::Env env;
  PmDevice dev{env, kDev};
};

TEST_F(PmDeviceTest, RejectsBadSizes) {
  EXPECT_THROW(PmDevice(env, 100), std::invalid_argument);  // not line-aligned
  EXPECT_THROW(PmDevice(env, 64), std::invalid_argument);   // too small
}

TEST_F(PmDeviceTest, BoundsChecked) {
  EXPECT_THROW((void)dev.at(kDev, 1), std::out_of_range);
  EXPECT_THROW((void)dev.at(kDev - 4, 8), std::out_of_range);
  EXPECT_NO_THROW((void)dev.at(kDev - 8, 8));
}

TEST_F(PmDeviceTest, UnflushedStoreLostOnCrash) {
  const u64 off = dev.data_base();
  dev.store(off, bytes("hello"));
  EXPECT_EQ(std::memcmp(dev.at(off, 5), "hello", 5), 0);
  dev.crash();
  EXPECT_NE(std::memcmp(dev.at(off, 5), "hello", 5), 0);
}

TEST_F(PmDeviceTest, PersistedStoreSurvivesCrash) {
  const u64 off = dev.data_base();
  dev.store(off, bytes("durable!"));
  dev.persist(off, 8);
  dev.crash();
  EXPECT_EQ(std::memcmp(dev.at(off, 8), "durable!", 8), 0);
}

TEST_F(PmDeviceTest, ClwbWithoutSfenceMayOrMayNotSurvive) {
  // Statistically: ~half of unfenced lines survive. Use many lines.
  const u64 base = dev.data_base();
  const int n = 200;
  for (int i = 0; i < n; i++) {
    dev.store(base + static_cast<u64>(i) * kCacheLine, bytes("x"));
    dev.clwb(base + static_cast<u64>(i) * kCacheLine, 1);
  }
  dev.crash();
  int survived = 0;
  for (int i = 0; i < n; i++) {
    survived += (*dev.at(base + static_cast<u64>(i) * kCacheLine, 1) == 'x');
  }
  EXPECT_GT(survived, n / 4);
  EXPECT_LT(survived, 3 * n / 4);
}

TEST_F(PmDeviceTest, RestoreAfterSfenceIsAtomicPerLine) {
  const u64 off = dev.data_base();
  dev.store(off, bytes("AAAA"));
  dev.persist(off, 4);
  dev.store(off, bytes("BBBB"));  // dirty again, not flushed
  dev.crash();
  EXPECT_EQ(std::memcmp(dev.at(off, 4), "AAAA", 4), 0);
}

TEST_F(PmDeviceTest, StoreAfterClwbRedirties) {
  const u64 off = dev.data_base();
  dev.store(off, bytes("old"));
  dev.clwb(off, 3);
  dev.sfence();
  dev.store(off, bytes("new"));  // re-dirties the line
  EXPECT_EQ(dev.dirty_lines(), 1u);
  dev.crash();
  EXPECT_EQ(std::memcmp(dev.at(off, 3), "old", 3), 0);
}

TEST_F(PmDeviceTest, ChargesFlushCosts) {
  const SimTime before = env.now();
  dev.persist(dev.data_base(), 1024);  // 16 lines + fence
  const SimTime charged = env.now() - before;
  EXPECT_EQ(charged, 16 * env.cost.clwb_ns + env.cost.sfence_ns);
}

TEST_F(PmDeviceTest, FlushStatsCount) {
  dev.persist(dev.data_base(), 128);
  EXPECT_EQ(dev.total_clwb(), 2u);
  EXPECT_EQ(dev.total_sfence(), 1u);
}

TEST_F(PmDeviceTest, StoreU64RoundTrip) {
  const u64 off = dev.data_base();
  dev.store_u64(off, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(dev.load_u64(off), 0xdeadbeefcafef00dULL);
}

TEST_F(PmDeviceTest, RootsPersistAcrossCrash) {
  ASSERT_TRUE(dev.set_root("index", 4096).ok());
  ASSERT_TRUE(dev.set_root("pool", 8192).ok());
  dev.crash();
  EXPECT_EQ(dev.get_root("index").value(), 4096u);
  EXPECT_EQ(dev.get_root("pool").value(), 8192u);
  EXPECT_FALSE(dev.get_root("nope").ok());
}

TEST_F(PmDeviceTest, RootOverwriteUpdatesInPlace) {
  ASSERT_TRUE(dev.set_root("x", 1).ok());
  ASSERT_TRUE(dev.set_root("x", 2).ok());
  EXPECT_EQ(dev.get_root("x").value(), 2u);
  // Overwriting must not consume extra slots.
  for (std::size_t i = 1; i < PmDevice::kMaxRoots; i++) {
    ASSERT_TRUE(dev.set_root("slot" + std::to_string(i), i).ok()) << i;
  }
  EXPECT_EQ(dev.set_root("overflow", 99).errc(), Errc::out_of_space);
}

TEST_F(PmDeviceTest, RootNameValidation) {
  EXPECT_EQ(dev.set_root("", 1).errc(), Errc::invalid_argument);
  EXPECT_EQ(dev.set_root(std::string(40, 'a'), 1).errc(), Errc::invalid_argument);
}

TEST_F(PmDeviceTest, PmPtrResolvesAndNullIsFalse) {
  pm_ptr<u64> null;
  EXPECT_TRUE(null.is_null());
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_EQ(null.get(dev), nullptr);

  const u64 off = dev.data_base();
  dev.store_u64(off, 77);
  pm_ptr<u64> p(off);
  ASSERT_NE(p.get(dev), nullptr);
  EXPECT_EQ(*p.get(dev), 77u);
  EXPECT_EQ(p.offset(), off);
}

// ---------- Lazy images and page-granular restore ----------

constexpr u64 kPage = 4096;

// The whole volatile image, read through a const reference so the read
// itself records no page as written.
std::vector<u8> volatile_image(const PmDevice& d) {
  const u8* p = d.at(0, d.size());
  return {p, p + d.size()};
}

// Resident set size of this process.
u64 rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  u64 total_pages = 0;
  u64 resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<u64>(sysconf(_SC_PAGESIZE));
}

// Bytes written through at()/span() without mark_dirty are still volatile:
// a cut reverts them whether or not a fault plan is armed.
TEST_F(PmDeviceTest, InPlaceWriteWithoutMarkDirtyDiesAtCut) {
  const u64 held = dev.data_base();  // holds durable bytes
  const u64 fresh = 5 * kPage + 100;  // on a page nothing wrote yet
  dev.store(held, bytes("AAAAAAAA"));
  dev.persist(held, 8);
  const u8 zeros[8] = {};
  for (const bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "armed" : "unarmed");
    if (armed) {
      FaultPlan plan;
      plan.unfenced_drain_p = 1.0;
      plan.tear_p = 0.5;
      plan.evict_dirty_p = 1.0;
      dev.set_fault_plan(plan);
    }
    std::memcpy(dev.at(held, 8), "BBBBBBBB", 8);
    std::memcpy(dev.span(fresh, 8).data(), "CCCCCCCC", 8);
    dev.crash();
    const PmDevice& cdev = dev;
    EXPECT_EQ(std::memcmp(cdev.at(held, 8), "AAAAAAAA", 8), 0);
    EXPECT_EQ(std::memcmp(cdev.at(fresh, 8), zeros, 8), 0);
  }
  dev.clear_fault_plan();
}

// Differential check of the touched-page invariant: after every cut the
// whole volatile image equals the persisted image, byte for byte, under a
// seeded mix of every write path, flushes, deferred publications and cuts
// (scheduled and manual) with reorder + tear + eviction armed. The device
// size is not a multiple of the page size, so the partial last page is
// exercised too.
TEST(PmDeviceLazy, CutsRestoreExactlyThePersistedImage) {
  sim::Env env;
  constexpr u64 kSize = 5 * kPage + 3 * kCacheLine;
  PmDevice dev(env, kSize);
  const u64 base = dev.data_base();
  FaultPlan plan;
  plan.unfenced_drain_p = 0.5;
  plan.tear_p = 0.5;
  plan.evict_dirty_p = 0.3;
  plan.seed = 7;
  dev.set_fault_plan(plan);

  Rng rng(2024);
  std::vector<u64> deferred;
  auto range = [&](u64 max_len) {
    const u64 len = rng.next_in(1, max_len);
    return std::pair{rng.next_in(base, kSize - len), len};
  };
  auto random_bytes = [&](u64 len) {
    std::vector<u8> v(len);
    for (u8& b : v) b = static_cast<u8>(rng.next());
    return v;
  };
  auto word = [&] { return 8 * rng.next_in(base / 8, kSize / 8 - 1); };

  int cuts = 0;
  int clones = 0;
  for (int step = 0; step < 4000; step++) {
    bool cut = false;
    try {
      switch (rng.next_below(11)) {
        case 0: {
          const auto [off, len] = range(300);
          dev.store(off, random_bytes(len));
          break;
        }
        case 1: {  // in place, marked dirty only half the time
          const auto [off, len] = range(300);
          const auto v = random_bytes(len);
          std::memcpy(dev.at(off, len), v.data(), len);
          if (rng.chance(0.5)) dev.mark_dirty(off, len);
          break;
        }
        case 2: {
          const auto [off, len] = range(300);
          dev.store_dma(off, random_bytes(len));
          break;
        }
        case 3: {
          const u64 off = word();
          dev.store_u64_deferred(off, rng.next());
          deferred.push_back(off);
          break;
        }
        case 4:
          if (!deferred.empty()) {
            const auto i = rng.next_below(deferred.size());
            const u64 off = deferred[i];
            deferred.erase(deferred.begin() + static_cast<long>(i));
            dev.apply_deferred(off);
          }
          break;
        case 5:
        case 6: {
          const auto [off, len] = range(400);
          dev.clwb(off, len);
          break;
        }
        case 7:
          dev.sfence();
          break;
        case 8: {  // schedule a cut a few flush/fence events ahead
          FaultPlan scheduled = plan;
          scheduled.crash_at_event = rng.next_in(1, 8);
          scheduled.seed = rng.next();
          dev.set_fault_plan(scheduled);
          break;
        }
        case 9:
          dev.crash();
          cut = true;
          break;
        case 10: {
          // A clone taken without a cut holds the persisted image: a cut
          // that drains, tears and evicts nothing must reproduce it.
          const auto clone = dev.clone_persisted();
          const auto image = volatile_image(*clone);
          FaultPlan lose_all;
          lose_all.unfenced_drain_p = 0.0;
          dev.set_fault_plan(lose_all);
          dev.crash();
          EXPECT_EQ(volatile_image(dev), image) << "step " << step;
          clone->crash();  // the clone owes nothing: a cut changes nothing
          EXPECT_EQ(volatile_image(*clone), image) << "step " << step;
          dev.set_fault_plan(plan);
          clones++;
          cut = true;
          break;
        }
      }
    } catch (const PowerFailure&) {
      cut = true;
    }
    if (!cut) continue;
    cuts++;
    deferred.clear();
    ASSERT_EQ(volatile_image(dev), volatile_image(*dev.clone_persisted()))
        << "step " << step;
  }
  EXPECT_GT(cuts, 200);
  EXPECT_GT(clones, 100);
}

// A 512 MiB device must not fault in its images up front, and a cut or a
// clone after a few writes must stay proportional to the pages written.
TEST(PmDeviceLazy, ImagesCostNothingUntilWritten) {
  sim::Env env;
  constexpr u64 kBudget = u64{16} << 20;
  const u64 before = rss_bytes();
  PmDevice dev(env, u64{512} << 20);
  EXPECT_LT(rss_bytes(), before + kBudget);
  for (u64 i = 1; i < 64; i++) {
    dev.store_u64(i * (u64{8} << 20), i);
    dev.persist(i * (u64{8} << 20), 8);
  }
  dev.store_u64(dev.data_base(), 1);  // unflushed: reverted at the cut
  dev.crash();
  const auto clone = dev.clone_persisted();
  EXPECT_LT(rss_bytes(), before + kBudget);
  EXPECT_EQ(clone->load_u64(u64{8} << 20), 1u);
  EXPECT_EQ(dev.load_u64(dev.data_base()), 0u);
}

// ---------- PmPool ----------

class PmPoolTest : public ::testing::Test {
 protected:
  sim::Env env;
  PmDevice dev{env, kDev};
  PmPool pool{PmPool::create(dev, "pool", dev.data_base(), kDev / 2)};
};

TEST_F(PmPoolTest, AllocReturnsDistinctAlignedBlocks) {
  std::set<u64> seen;
  for (int i = 0; i < 100; i++) {
    auto r = pool.alloc(100);  // two lines
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value() % kCacheLine, 0u);
    EXPECT_TRUE(seen.insert(r.value()).second);
  }
}

TEST_F(PmPoolTest, FreeThenAllocReuses) {
  const u64 a = pool.alloc(64).value();
  pool.free(a, 64);
  const u64 b = pool.alloc(64).value();
  EXPECT_EQ(a, b);
}

TEST_F(PmPoolTest, SizeClassesDoNotMix) {
  const u64 small = pool.alloc(64).value();
  pool.free(small, 64);
  const u64 big = pool.alloc(1024).value();
  EXPECT_NE(small, big);  // 64B freelist must not serve a 1KB request
}

TEST_F(PmPoolTest, LargeAllocationsBypassClasses) {
  auto r = pool.alloc(10000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value() % kCacheLine, 0u);
}

TEST_F(PmPoolTest, ZeroSizeRejected) {
  EXPECT_EQ(pool.alloc(0).errc(), Errc::invalid_argument);
}

TEST_F(PmPoolTest, ExhaustionReturnsOutOfSpace) {
  u64 last = 0;
  while (true) {
    auto r = pool.alloc(4096);
    if (!r.ok()) {
      EXPECT_EQ(r.errc(), Errc::out_of_space);
      break;
    }
    last = r.value();
  }
  // Freed blocks still serve their class after bump exhaustion.
  pool.free(last, 4096);
  EXPECT_EQ(pool.alloc(4096).value(), last);
}

TEST_F(PmPoolTest, RecoverFindsPoolAndPreservesFreelists) {
  const u64 a = pool.alloc(256).value();
  const u64 b = pool.alloc(256).value();
  pool.free(a, 256);
  dev.crash();
  auto rec = PmPool::recover(dev, "pool");
  ASSERT_TRUE(rec.ok());
  // Freelist head (a) must be served before new bump space.
  const u64 c = rec->alloc(256).value();
  EXPECT_EQ(c, a);
  const u64 d = rec->alloc(256).value();
  EXPECT_NE(d, b);  // b is still owned (leak-not-corrupt: never handed out)
  EXPECT_NE(d, a);
}

TEST_F(PmPoolTest, RecoverUnknownNameFails) {
  EXPECT_EQ(PmPool::recover(dev, "ghost").errc(), Errc::not_found);
}

TEST_F(PmPoolTest, ChargesConfigurableCosts) {
  SimTime t0 = env.now();
  (void)pool.alloc(64);
  EXPECT_GT(env.now() - t0, 0);  // default pm_alloc charge + header persist

  pool.set_charges(0, 0);
  // Remaining cost is only the header persistence.
  t0 = env.now();
  (void)pool.alloc(64);
  const SimTime with_zero_alloc_charge = env.now() - t0;
  EXPECT_EQ(with_zero_alloc_charge, env.cost.clwb_ns + env.cost.sfence_ns);
}

// Blocks are whole lines carved at the next line boundary: interleaved
// 64 B and 1,078 B blocks take exactly 64 B and 1,088 B each, with no
// padding to a power-of-two size or alignment.
TEST_F(PmPoolTest, CarvesWholeLinesAtLineGranularity) {
  const u64 before = pool.bump_used();
  u64 expected = 0;
  for (int i = 0; i < 16; i++) {
    for (const u64 sz : {u64{64}, u64{1078}}) {
      const u64 off = pool.alloc(sz).value();
      EXPECT_EQ(off % kCacheLine, 0u);
      expected += align_up(sz, kCacheLine);
    }
  }
  EXPECT_EQ(pool.bump_used() - before, expected);
}

// A store of 1 KB values holds little more PM than the values themselves:
// each buffer, PPktMeta line and skip-list node packs line-dense.
TEST(PmPoolPacking, PktStoreOfOneKbValuesStaysUnderOneQuarterOverhead) {
  constexpr u64 kStoreDev = 32u << 20;
  constexpr u64 kKeys = 4096;
  constexpr u64 kValue = 1024;
  sim::Env env;
  PmDevice dev{env, kStoreDev};
  const u64 base = dev.data_base();
  PmPool pmpool = PmPool::create(dev, "pkts", base,
                                 (kStoreDev - base) / kCacheLine * kCacheLine);
  net::PmArena arena(dev, pmpool);
  net::PktBufPool pkts(env, arena);
  core::PktStore store = core::PktStore::create(pkts, "store");
  std::vector<u8> value(kValue);
  for (u64 k = 0; k < kKeys; k++) {
    std::fill(value.begin(), value.end(), static_cast<u8>(k));
    ASSERT_TRUE(store.put_bytes("key" + std::to_string(k), value).ok());
  }
  const double user_bytes = static_cast<double>(kKeys * kValue);
  EXPECT_LE(static_cast<double>(pmpool.bump_used()), 1.25 * user_bytes);
}

// Asserts `blocks` (offset, requested size) are line-aligned, disjoint and
// inside the pool's carved region [first block, bump frontier).
void expect_well_formed(const PmPool& pool, u64 base, u64 span,
                        std::vector<std::pair<u64, u64>> blocks) {
  const u64 lo = base + span - pool.capacity();
  const u64 hi = lo + pool.bump_used();
  std::sort(blocks.begin(), blocks.end());
  u64 prev_end = lo;
  for (const auto& [off, sz] : blocks) {
    EXPECT_EQ(off % kCacheLine, 0u) << off;
    EXPECT_GE(off, prev_end) << "block " << off << " overlaps its predecessor";
    prev_end = off + align_up(sz, kCacheLine);
    EXPECT_LE(prev_end, hi) << "block " << off << " runs past the frontier";
  }
}

// Property: a crash at an arbitrary point in an alloc/free workload never
// corrupts the pool — recovery always yields a pool whose allocations are
// disjoint, line-aligned blocks in its span. Blocks popped-but-unpublished
// may leak. Sizes cover 1..4 KiB with every 64k / 64k+1 class edge plus a
// few blocks over the largest class, and about half the rounds run inside
// a commit epoch (some cut mid-epoch, some after it closes).
TEST_F(PmPoolTest, CrashNeverCorrupts) {
  constexpr u64 kBigDev = 8u << 20;
  PmDevice big{env, kBigDev};
  const u64 base = big.data_base();
  const u64 span = (kBigDev - base) / kCacheLine * kCacheLine;
  PmPool p = PmPool::create(big, "pool", base, span);

  std::vector<u64> edges;
  for (u64 k = 1; k <= PmPool::kNumClasses; k++) {
    edges.push_back(k * kCacheLine);
    edges.push_back(k * kCacheLine + 1);
  }
  Rng rng(99);
  const auto draw = [&]() -> u64 {
    if (rng.chance(0.05)) {
      return PmPool::kMaxClassSize + 1 + rng.next_below(3 * PmPool::kMaxClassSize);
    }
    if (rng.chance(0.5)) return edges[rng.next_below(edges.size())];
    return 1 + rng.next_below(PmPool::kMaxClassSize);
  };

  std::vector<std::pair<u64, u64>> live;  // (offset, size)
  for (int round = 0; round < 40; round++) {
    const bool epoch = rng.chance(0.5);
    if (epoch && p.enter_commit_epoch()) big.sfence();
    // Random workload burst.
    for (int i = 0; i < 30; i++) {
      if (!live.empty() && rng.chance(0.4)) {
        const auto idx = rng.next_below(live.size());
        p.free(live[idx].first, live[idx].second);
        live.erase(live.begin() + static_cast<long>(idx));
      } else {
        const u64 sz = draw();
        auto r = p.alloc(sz);
        ASSERT_TRUE(r.ok());
        live.push_back({r.value(), sz});
      }
    }
    expect_well_formed(p, base, span, live);

    // Free everything, then re-allocate the same multiset of class sizes:
    // each class reuses its own blocks, so the frontier does not move.
    // (Blocks over the largest class are not recycled.)
    std::vector<u64> again;
    for (const auto& [off, sz] : live) {
      p.free(off, sz);
      if (sz <= PmPool::kMaxClassSize) again.push_back(sz);
    }
    live.clear();
    const u64 frontier = p.bump_used();
    for (const u64 sz : again) {
      auto r = p.alloc(sz);
      ASSERT_TRUE(r.ok());
      live.push_back({r.value(), sz});
    }
    EXPECT_EQ(p.bump_used(), frontier);
    expect_well_formed(p, base, span, live);

    if (epoch) {
      p.flush_metadata();
      big.sfence();
      if (rng.chance(0.5)) p.exit_commit_epoch();
    }
    big.crash();
    live.clear();  // we don't track publication; everything leaks
    auto rec = PmPool::recover(big, "pool");
    ASSERT_TRUE(rec.ok());
    p = std::move(rec.value());
    // Post-recovery the pool serves valid, distinct blocks.
    for (int i = 0; i < 20; i++) {
      const u64 sz = draw();
      auto r = p.alloc(sz);
      ASSERT_TRUE(r.ok());
      live.push_back({r.value(), sz});
    }
    expect_well_formed(p, base, span, live);
  }
}

}  // namespace
}  // namespace papm::pm
