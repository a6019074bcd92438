// Ablation A1 (§5.1): metadata compactness and media latency.
//
// "Although access latency to a PM device is higher (346ns) than DRAM
// (70ns), packet metadata is designed to be compact and cache friendly
// ... we may need further optimization, because the impact of a cache
// miss is higher than DRAM."
//
// We sweep the index cold-miss fraction (a proxy for metadata cache
// footprint) and the medium (PM vs DRAM read latency), and report the
// simulated per-op index cost at several store sizes — plus real
// wall-clock persistent skip-list get throughput.
#include <benchmark/benchmark.h>

#include <string>

#include "container/pskiplist.h"

using namespace papm;

namespace {

void BM_SimIndexInsert(benchmark::State& state) {
  const auto keys = static_cast<std::size_t>(state.range(0));
  const double cold_p = static_cast<double>(state.range(1)) / 100.0;
  const bool pm = state.range(2) != 0;

  sim::Env env;
  if (!pm) env.cost.pm_read_ns = env.cost.dram_read_ns;  // DRAM medium
  pm::PmDevice dev(env, 256u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), (256u << 20) - 4096);
  container::PSkipList::Options o;
  o.cold_visit_p = cold_p;
  auto list = container::PSkipList::create(dev, pool, "idx", o);
  for (std::size_t i = 0; i < keys; i++) {
    (void)list.put("key" + std::to_string(i), i);
  }

  SimTime total = 0;
  u64 ops = 0;
  u64 i = keys;
  for (auto _ : state) {
    const SimTime t0 = env.now();
    benchmark::DoNotOptimize(list.put("key" + std::to_string(i % (2 * keys)), i));
    total += env.now() - t0;
    ops++;
    i++;
  }
  state.counters["sim_ns_per_insert"] =
      benchmark::Counter(static_cast<double>(total) / static_cast<double>(ops));
}
// args: {resident keys, cold% (cache footprint proxy), medium 1=PM 0=DRAM}
BENCHMARK(BM_SimIndexInsert)
    ->Args({4000, 14, 1})   // compact metadata on PM (calibrated default)
    ->Args({4000, 14, 0})   // same on DRAM
    ->Args({4000, 50, 1})   // bloated metadata on PM
    ->Args({4000, 50, 0})   // bloated on DRAM
    ->Args({32000, 14, 1})  // deeper index
    ->Args({32000, 50, 1});

void BM_RealPersistentSkipListGet(benchmark::State& state) {
  sim::Env env;
  pm::PmDevice dev(env, 256u << 20);
  auto pool = pm::PmPool::create(dev, "p", dev.data_base(), (256u << 20) - 4096);
  auto list = container::PSkipList::create(dev, pool, "idx");
  const auto keys = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < keys; i++) {
    (void)list.put("key" + std::to_string(i), i);
  }
  u64 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.get("key" + std::to_string(i % keys)));
    i++;
  }
}
BENCHMARK(BM_RealPersistentSkipListGet)->Arg(4000)->Arg(32000);

}  // namespace

BENCHMARK_MAIN();
