// crash-recover: no network. One PmDevice holds a PktStore built the way
// KvServer builds a shard's store: a PmPool span carved like app::Host
// does, the packet pool over it, default PktStoreOptions, and a
// FlushBatcher registered on the pool. A PUT counts as acked once its
// commit epoch retires (FlushBatcher::on_committed).
//
// After a fill of kKeys x 1 KB, every cycle
//   1. runs kBatch seeded-random overwrites,
//   2. cuts power at a seeded flush/fence boundary inside that batch
//      (the reorder + tear + evict plan of bench_recovery --crashpoints),
//   3. runs PmPool::recover + PktStore::recover,
//   4. reads every key back and checks it byte for byte against the
//      versions it may legally hold: the last acked one or any later
//      write that was in flight at the cut.
//
// One episode is a fresh device, the fill and kCycles cycles. The first
// episode's cycles give the simulated metrics, so they are identical for
// one seed; further episodes (same seed) run until the wall budget is
// spent and feed the wall-clock metrics and the set-up median.
#include <cstdio>
#include <optional>
#include <string>

#include "common/stats.h"
#include "core/pktstore.h"
#include "pm/fault_plan.h"
#include "pm/flush_batch.h"
#include "workloads.h"

namespace perfbench {

using namespace papm;

namespace {

constexpr u64 kDevSize = 512u << 20;  // app::HostConfig::pm_size default
constexpr u64 kKeys = 65536;
constexpr u64 kBatch = 16384;
constexpr std::size_t kValueSize = 1024;
constexpr int kCycles = 6;
constexpr int kMinEpisodes = 3;
constexpr u64 kMinSamples = 10'000;  // behind every percentile

std::string key_of(u64 k) { return "key" + std::to_string(k); }

std::vector<u8> value_of(u64 seed, u64 key, u32 ver) {
  Rng rng((seed << 40) ^ (key << 16) ^ ver);
  std::vector<u8> v(kValueSize);
  for (std::size_t i = 0; i < v.size(); i += 8) {
    const u64 w = rng.next();
    for (std::size_t j = 0; j < 8; j++) v[i + j] = static_cast<u8>(w >> (8 * j));
  }
  return v;
}

pm::FaultPlan cut_plan(u64 cut, u64 seed) {
  pm::FaultPlan plan;  // bench_recovery --crashpoints: reorder+tear+evict
  plan.crash_at_event = cut;
  plan.unfenced_drain_p = 0.4;
  plan.tear_p = 0.75;
  plan.evict_dirty_p = 0.35;
  plan.seed = seed;
  return plan;
}

// What one cycle measured.
struct Cycle {
  bool cut_inside = false;   // the plan fired inside the batch
  u64 puts = 0;              // PUTs issued before the cut
  u64 acked = 0;             // of which acked
  SimTime sim_batch_ns = 0;  // simulated time of the batch
  SimTime sim_recover_ns = 0;
  SimTime scan_ns = 0, tower_ns = 0;
  u64 recover_bytes = 0;
  u64 pool_bytes = 0;  // bump frontier after recovery
  double wall_batch_s = 0, wall_crash_s = 0, wall_recover_s = 0,
         wall_verify_s = 0;
  // Timed episodes only: wall and simulated time inside the store calls.
  double put_wall_s = 0, get_wall_s = 0;
  SimTime put_sim_ns = 0, get_sim_ns = 0;
  u64 refused = 0, lost = 0, corrupt = 0;
  bool valid = true;
  pm::PmDevice::FlushEpoch flush{};
  storage::OpBreakdown bd{};  // summed over the batch's PUTs
};

class Episode {
 public:
  Episode(u64 seed, bool timed) : seed_(seed), timed_(timed), dev_(env_, kDevSize) {
    device_init_s = wall_s() - t0_;
    const u64 base = dev_.data_base();
    const u64 span = (kDevSize - base) / kCacheLine * kCacheLine;
    pool_.emplace(pm::PmPool::create(dev_, "pkts", base, span));
    attach();
    store_.emplace(core::PktStore::create(*pktpool_, "store"));
    store_->set_batcher(&*batcher_);
    acked_.assign(kKeys, 0);
    issued_.assign(kKeys, 0);
    // Fill, counting flush/fence boundaries to size the cut draws.
    dev_.set_fault_plan(cut_plan(0, 0));
    for (u64 k = 0; k < kKeys; k++) {
      if (!put(k, 0, nullptr, nullptr)) throw std::runtime_error("fill failed");
    }
    batcher_->deactivate();
    events_per_put_ = static_cast<double>(dev_.fault_events()) /
                      static_cast<double>(kKeys);
    dev_.clear_fault_plan();
    setup_s = wall_s() - t0_;
  }

  Cycle cycle(int index, Stats* ack_ns, Rng& rng) {
    Cycle c;
    // The cut is drawn uniformly over the batch's flush/fence boundaries,
    // estimated from the fill's boundaries per PUT, and stops a little
    // short of the estimate so that it almost always lands in the batch.
    const auto est =
        static_cast<u64>(events_per_put_ * static_cast<double>(kBatch));
    const u64 cut = 1 + rng.next_below(std::max<u64>(1, est * 19 / 20));
    dev_.set_fault_plan(cut_plan(cut, seed_ * 7919 + static_cast<u64>(index)));
    dev_.obs_begin_epoch();
    const SimTime sim0 = env_.now();
    const double w0 = wall_s();
    double w_last = w0;
    try {
      for (u64 i = 0; i < kBatch; i++) {
        const u64 k = rng.next_below(kKeys);
        w_last = wall_s();
        c.puts++;
        if (!put(k, ++issued_[k], ack_ns, &c)) c.refused++;
      }
      batcher_->deactivate();
      w_last = wall_s();
      dev_.crash();
    } catch (const pm::PowerFailure&) {
      c.cut_inside = true;
    }
    const double w1 = wall_s();
    c.wall_batch_s = w_last - w0;
    c.wall_crash_s = w1 - w_last;
    c.sim_batch_ns = env_.now() - sim0;
    c.flush = dev_.obs_epoch();
    dev_.clear_fault_plan();

    // Volatile handles die with the power; recover from the device.
    batcher_.reset();
    store_.reset();
    pktpool_.reset();
    arena_.reset();
    pool_.reset();
    const u64 bytes0 = dev_.total_accessed_bytes();
    const SimTime s0 = env_.now();
    const double wr = wall_s();
    auto p = pm::PmPool::recover(dev_, "pkts");
    if (!p.ok()) throw std::runtime_error("PmPool::recover failed");
    pool_.emplace(std::move(p.value()));
    attach();
    auto s = core::PktStore::recover(*pktpool_, "store");
    if (!s.ok()) throw std::runtime_error("PktStore::recover failed");
    store_.emplace(std::move(s.value()));
    c.wall_recover_s = wall_s() - wr;
    c.sim_recover_ns = env_.now() - s0;
    c.recover_bytes = dev_.total_accessed_bytes() - bytes0;
    c.scan_ns = store_->index_recover_stats().scan_ns;
    c.tower_ns = store_->index_recover_stats().tower_ns;
    store_->set_batcher(&*batcher_);
    c.pool_bytes = pool_->bump_used();

    const double wv = wall_s();
    verify(c);
    c.valid = store_->validate().ok();
    c.wall_verify_s = wall_s() - wv;
    return c;
  }

  double device_init_s = 0;
  double setup_s = 0;

 private:
  // Re-creates the volatile layers over the current pool, as app::Host
  // and KvServer wire a shard: freelist-pop charges, a PM arena, the
  // packet pool and a batcher registered on the pool.
  void attach() {
    pool_->set_charges(env_.cost.pool_alloc_ns, env_.cost.pool_alloc_ns / 2);
    arena_.emplace(dev_, *pool_);
    pktpool_.emplace(env_, *arena_);
    batcher_.emplace(dev_, pm::GroupCommitPolicy{});
    batcher_->register_pool(*pool_);
  }

  // One PUT as the server's datapath issues it: joined to the open commit
  // epoch (the serial loop is always backlogged) and acked when the epoch
  // retires. `c` (null during the fill) collects the cycle's accounting.
  bool put(u64 k, u32 ver, Stats* ack_ns, Cycle* c) {
    const auto v = value_of(seed_, k, ver);
    const std::string key = key_of(k);
    batcher_->begin_op(true, static_cast<u64>(env_.now()));
    const SimTime t0 = env_.now();
    const double w = timed_ ? wall_s() : 0;
    const bool ok = store_->put_bytes(key, v, c != nullptr ? &c->bd : nullptr).ok();
    if (timed_ && c != nullptr) {
      c->put_wall_s += wall_s() - w;
      c->put_sim_ns += env_.now() - t0;
    }
    if (ok) {
      batcher_->on_committed([this, k, ver, t0, ack_ns, c] {
        if (ver > acked_[k]) acked_[k] = ver;
        if (ack_ns != nullptr) ack_ns->add(static_cast<double>(env_.now() - t0));
        if (c != nullptr) c->acked++;
      });
    }
    batcher_->end_op();
    return ok;
  }

  // Every key must hold, byte for byte, its last acked version or a
  // later one that was in flight at the cut. What it holds becomes the
  // new durable baseline.
  void verify(Cycle& c) {
    for (u64 k = 0; k < kKeys; k++) {
      const std::string key = key_of(k);
      const double w = timed_ ? wall_s() : 0;
      const SimTime s = env_.now();
      const auto got = store_->get(key);
      if (timed_) {
        c.get_wall_s += wall_s() - w;
        c.get_sim_ns += env_.now() - s;
      }
      if (!got.ok()) {
        c.lost++;
        continue;
      }
      bool match = false;
      for (u32 ver = acked_[k]; ver <= issued_[k] && !match; ver++) {
        if (got.value() == value_of(seed_, k, ver)) {
          match = true;
          acked_[k] = issued_[k] = ver;
        }
      }
      if (!match) {
        // Older than the acked version is a lost write, anything else a
        // corrupt one.
        bool stale = false;
        for (u32 ver = 0; ver < acked_[k] && !stale; ver++) {
          stale = got.value() == value_of(seed_, k, ver);
        }
        (stale ? c.lost : c.corrupt)++;
      }
    }
  }

  u64 seed_;
  bool timed_;
  double t0_ = wall_s();
  sim::Env env_;
  pm::PmDevice dev_;
  std::optional<pm::PmPool> pool_;
  std::optional<net::PmArena> arena_;
  std::optional<net::PktBufPool> pktpool_;
  std::optional<core::PktStore> store_;
  std::optional<pm::FlushBatcher> batcher_;
  std::vector<u32> acked_, issued_;
  double events_per_put_ = 0;
};

// One episode's cycles and what they add up to.
struct EpisodeRun {
  double setup_s = 0, device_init_s = 0;
  std::vector<Cycle> cycles;
  Stats ack_ns;  // simulated PUT -> ack latency
};

EpisodeRun run_episode(const Args& args, Report& r, bool timed) {
  EpisodeRun run;
  Episode e(args.seed, timed);
  run.setup_s = e.setup_s;
  run.device_init_s = e.device_init_s;
  Rng rng(args.seed * 1000003ULL + 17);
  for (int i = 0; i < kCycles; i++) {
    run.cycles.push_back(e.cycle(i, &run.ack_ns, rng));
    const Cycle& c = run.cycles.back();
    r.attempt(kKeys);  // acked keys checked; error_rate is over these
    r.fail(c.refused, "PUT refused by the store");
    r.fail(c.lost, "acked key lost after recovery");
    r.fail(c.corrupt, "acked key corrupt after recovery");
    if (!c.valid) r.fail(1, "PktStore::validate failed after recovery");
  }
  return run;
}

double cycle_wall_s(const Cycle& c) {
  return c.wall_batch_s + c.wall_crash_s + c.wall_recover_s + c.wall_verify_s;
}

// Operations (PUTs + verified GETs) per wall second over a cycle, in
// thousands.
double cycle_kops_of(const Cycle& c) {
  return static_cast<double>(c.puts + kKeys) / cycle_wall_s(c) / 1000.0;
}

// The simulated end-to-end results of an episode; equal for one seed.
struct SimResults {
  double p50_ns = 0, p99_ns = 0, p999_ns = 0, kreq_per_s = 0, recover_ms = 0,
         bytes_ratio = 0;
  u64 samples = 0;
  bool operator==(const SimResults&) const = default;
};

SimResults sim_results(EpisodeRun& run) {
  SimResults s;
  s.samples = run.ack_ns.count();
  s.p50_ns = run.ack_ns.percentile(50);
  s.p99_ns = run.ack_ns.percentile(99);
  s.p999_ns = run.ack_ns.percentile(99.9);
  SimTime batch_ns = 0;
  u64 acked = 0;
  std::vector<double> recover_ms;
  for (const Cycle& c : run.cycles) {
    batch_ns += c.sim_batch_ns;
    acked += c.acked;
    recover_ms.push_back(static_cast<double>(c.sim_recover_ns) / 1e6);
  }
  s.kreq_per_s = static_cast<double>(acked) /
                 (static_cast<double>(batch_ns) / 1e9) / 1000.0;
  s.recover_ms = median(recover_ms);
  s.bytes_ratio = static_cast<double>(run.cycles.back().pool_bytes) /
                  static_cast<double>(kKeys * kValueSize);
  return s;
}

void cycle_table(Report& r, const std::vector<Cycle>& cycles) {
  char line[160];
  std::snprintf(line, sizeof line, "%5s %8s %8s %6s %12s %12s %12s %10s",
                "cycle", "puts", "acked", "cut", "recover_ms", "scan_ms",
                "towers_ms", "pool_MB");
  r.note(line);
  for (std::size_t i = 0; i < cycles.size(); i++) {
    const Cycle& c = cycles[i];
    std::snprintf(line, sizeof line,
                  "%5zu %8llu %8llu %6s %12.3f %12.3f %12.3f %10.3f", i,
                  static_cast<unsigned long long>(c.puts),
                  static_cast<unsigned long long>(c.acked),
                  c.cut_inside ? "batch" : "end",
                  static_cast<double>(c.sim_recover_ns) / 1e6,
                  static_cast<double>(c.scan_ns) / 1e6,
                  static_cast<double>(c.tower_ns) / 1e6,
                  static_cast<double>(c.pool_bytes) / 1048576.0);
    r.note(line);
  }
}

void untraced(const Args& args, Report& r) {
  std::vector<double> setups, cycle_kops;
  std::optional<EpisodeRun> first;
  const double t0 = wall_s();
  for (int ep = 0; ep < kMinEpisodes || wall_s() - t0 < args.seconds; ep++) {
    EpisodeRun run = run_episode(args, r, false);
    setups.push_back(run.setup_s);
    for (const Cycle& c : run.cycles) {
      cycle_kops.push_back(cycle_kops_of(c));
    }
    if (!first) first = std::move(run);
  }
  cycle_table(r, first->cycles);
  r.info("cycles_per_episode", kCycles);
  r.info("episodes", static_cast<double>(setups.size()));
  const SimResults s = sim_results(*first);
  r.check(s.samples >= kMinSamples, "fewer than 10,000 latency samples");
  r.metric("sim_p50_us", s.p50_ns / 1000.0, "us");
  r.metric("sim_p99_us", s.p99_ns / 1000.0, "us");
  r.metric("sim_p999_us", s.p999_ns / 1000.0, "us");
  for (const char* m : {"sim_p50_us", "sim_p99_us", "sim_p999_us"}) {
    r.samples(m, s.samples);
  }
  r.metric("sim_kreq_per_s", s.kreq_per_s, "kreq/s");
  r.metric("sim_recover_ms", s.recover_ms, "ms");
  r.samples("sim_recover_ms", first->cycles.size());
  r.metric("pm_bytes_per_user_byte", s.bytes_ratio, "ratio");
  r.metric("error_rate",
           static_cast<double>(r.failed()) / static_cast<double>(r.attempted()),
           "fraction");
  r.metric("wall_kreq_per_s", median(cycle_kops), "kop/s");
  r.samples("wall_kreq_per_s", cycle_kops.size());
  r.metric("setup_s", median(setups), "s");
  r.samples("setup_s", setups.size());
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void traced(const Args& args, Report& r) {
  EpisodeRun ref = run_episode(args, r, false);
  EpisodeRun timed = run_episode(args, r, true);
  // A second untimed episode for the wall comparisons: the first one ran
  // on a cold heap, the timed one on a warm heap.
  EpisodeRun warm = run_episode(args, r, false);
  const SimResults s0 = sim_results(ref), s1 = sim_results(timed);
  r.check(s0 == s1, "timed episode differs from the untimed one in simulated time");
  r.info("sim_identical_traced", s0 == s1 ? "yes" : "no");
  cycle_table(r, timed.cycles);

  std::vector<double> crash_ms, recover_wall_ms, scan_ms, towers_ms,
      recover_bytes, ref_wall, timed_wall;
  double put_wall = 0, get_wall = 0, put_sim = 0, get_sim = 0, recover_wall = 0,
         recover_sim = 0;
  u64 puts = 0, gets = 0;
  pm::PmDevice::FlushEpoch flush{};
  storage::OpBreakdown bd{};
  for (std::size_t i = 0; i < timed.cycles.size(); i++) {
    const Cycle& c = timed.cycles[i];
    crash_ms.push_back(c.wall_crash_s * 1e3);
    recover_wall_ms.push_back(c.wall_recover_s * 1e3);
    scan_ms.push_back(static_cast<double>(c.scan_ns) / 1e6);
    towers_ms.push_back(static_cast<double>(c.tower_ns) / 1e6);
    recover_bytes.push_back(static_cast<double>(c.recover_bytes));
    ref_wall.push_back(cycle_wall_s(warm.cycles[i]));
    timed_wall.push_back(cycle_wall_s(c));
    put_wall += c.put_wall_s;
    get_wall += c.get_wall_s;
    put_sim += static_cast<double>(c.put_sim_ns);
    get_sim += static_cast<double>(c.get_sim_ns);
    recover_wall += c.wall_recover_s;
    recover_sim += static_cast<double>(c.sim_recover_ns);
    puts += c.puts;
    gets += kKeys;
    flush.clwb += c.flush.clwb;
    flush.sfence += c.flush.sfence;
    flush.bytes_flushed += c.flush.bytes_flushed;
    bd += c.bd;
  }
  const double n = static_cast<double>(puts);
  const auto per_put_us = [n](SimTime ns) {
    return static_cast<double>(ns) / n / 1000.0;
  };

  char line[160];
  r.note("model vs host (store calls, wall on this host vs simulated charge):");
  std::snprintf(line, sizeof line, "  %-34s %12s %12s %8s", "operation",
                "host_ns", "model_ns", "model/host");
  r.note(line);
  const auto row = [&](const char* op, double host, double model) {
    std::snprintf(line, sizeof line, "  %-34s %12.1f %12.1f %8.2f", op, host,
                  model, model / host);
    r.note(line);
  };
  row("PktStore::put_bytes 1 KB", put_wall * 1e9 / n, put_sim / n);
  row("PktStore::get 1 KB", get_wall * 1e9 / static_cast<double>(gets),
      get_sim / static_cast<double>(gets));
  row("PmPool+PktStore::recover (per key)",
      recover_wall * 1e9 / static_cast<double>(kKeys * timed.cycles.size()),
      recover_sim / static_cast<double>(kKeys * timed.cycles.size()));

  r.metric("http.stage_parse_us", per_put_us(bd.prep_ns), "us");
  r.metric("core.stage_checksum_us", per_put_us(bd.checksum_ns), "us");
  r.metric("core.stage_copy_us", per_put_us(bd.copy_ns), "us");
  r.metric("container.stage_alloc_index_us", per_put_us(bd.alloc_insert_ns), "us");
  r.metric("pm.stage_persist_us", per_put_us(bd.persist_ns), "us");
  r.metric("pm.clwb_per_op", static_cast<double>(flush.clwb) / n, "count");
  r.metric("pm.sfence_per_op", static_cast<double>(flush.sfence) / n, "count");
  r.metric("pm.bytes_flushed_per_op", static_cast<double>(flush.bytes_flushed) / n, "B");
  r.metric("pm.pool_bytes_held", static_cast<double>(timed.cycles.back().pool_bytes), "B");
  r.metric("pm.crash_ms", median(crash_ms), "ms");
  r.metric("core.recover_wall_ms", median(recover_wall_ms), "ms");
  r.metric("core.put_wall_us", put_wall * 1e6 / n, "us");
  r.metric("core.get_wall_us", get_wall * 1e6 / static_cast<double>(gets), "us");
  r.metric("container.recover_scan_ms", median(scan_ms), "ms");
  r.metric("container.recover_towers_ms", median(towers_ms), "ms");
  r.metric("pm.recover_bytes_read", median(recover_bytes), "B");
  std::vector<double> kops;
  for (const Cycle& c : warm.cycles) {
    kops.push_back(cycle_kops_of(c));
  }
  r.metric("wall_kreq_per_s", median(kops), "kop/s");
  r.samples("wall_kreq_per_s", kops.size());
  r.metric("pm.device_init_s", timed.device_init_s, "s");
  r.metric("obs.trace_overhead", median(timed_wall) / median(ref_wall) - 1.0,
           "fraction");

  // Layer replays: the HTTP PUTs that would carry these values.
  ReplayInput in;
  for (u64 k = 0; k < 256; k++) {
    auto v = value_of(args.seed, k, 0);
    in.requests.push_back(put_request(key_of(k), v));
    in.values.push_back(std::move(v));
  }
  replay_layers(in, 1.0, r);
}

}  // namespace

void crash_recover(const Args& args, Report& r) {
  if (args.trace) {
    traced(args, r);
  } else {
    untraced(args, r);
  }
}

}  // namespace perfbench
