// mixed-open-4core: independent users near the knee. Poisson arrivals
// from 1,000 simulated connections reach a four-core pktstore server:
// 512 B values, half GETs, Zipf 0.99 over 16,384 primed keys, 200 us
// deadline. The tail then depends on queue wait, shard imbalance and
// the GET (zero-copy TX) path.
//
// Untraced pass: three set-ups (median set-up time), one window at
// 200 krps offered (its first kWindow of simulated time gives the
// latency metrics; it then runs on for the wall budget), and a rate
// ladder of app::run_openloop runs from 100 to 300 krps that gives the
// highest rate meeting the SLO. The ladder's 200 krps step must match
// the first kLadderWindow of the assembled window exactly.
//
// Traced pass: an untraced reference window and a traced window of the
// same seed (identical simulated results required), the server's stage
// attribution, the per-layer counters and the layer replays.
#include <algorithm>
#include <cstdio>

#include "app/harness.h"
#include "http/http.h"
#include "netbed.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

using namespace papm;

namespace {

constexpr SimTime kWindow = 1000 * kNsPerMs;       // latency metrics window
constexpr SimTime kLadderWindow = 120 * kNsPerMs;  // >= 10k samples at 100 krps
constexpr SimTime kSlice = 10 * kNsPerMs;
constexpr SimTime kDeadline = 200 * kNsPerUs;
constexpr double kRate = 200'000;
constexpr u64 kMinSamples = 10'000;
constexpr int kSetups = 3;

NetConfig config(u64 seed, double rate, bool trace) {
  NetConfig c;
  c.open_loop = true;
  c.server_cores = 4;
  c.connections = 1000;
  c.rate_rps = rate;
  c.value_size = 512;
  c.get_ratio = 0.5;
  c.keyspace = 16384;
  c.zipf_theta = 0.99;
  c.deadline_ns = kDeadline;
  c.warmup_ns = 50 * kNsPerMs;  // OpenLoopRunConfig default
  c.seed = seed;
  c.trace = trace;
  return c;
}

app::OpenLoopRunConfig harness_config(const NetConfig& c) {
  app::OpenLoopRunConfig oc;
  oc.backend = app::Backend::pktstore;
  oc.server_cores = c.server_cores;
  oc.connections = c.connections;
  oc.rate_rps = c.rate_rps;
  oc.value_size = c.value_size;
  oc.get_ratio = c.get_ratio;
  oc.keyspace = c.keyspace;
  oc.zipf_theta = c.zipf_theta;
  oc.deadline_ns = c.deadline_ns;
  oc.warmup_ns = c.warmup_ns;
  oc.measure_ns = kLadderWindow;
  oc.seed = c.seed;
  return oc;
}

// Late, failed or never-completed requests over the window's arrivals.
double miss_rate(const SimSnapshot& s, u64 errors) {
  const u64 open = s.arrivals > s.completed ? s.arrivals - s.completed : 0;
  return static_cast<double>(s.misses + errors + open) /
         static_cast<double>(std::max<u64>(1, s.arrivals));
}

struct Step {
  double krps;
  app::OpenLoopResult res;
  bool meets_slo;
};

double ladder(const Args& args, Report& r, const SimSnapshot& at_200) {
  std::vector<Step> steps;
  for (double krps = 100; krps <= 300; krps += 25) {
    const app::OpenLoopResult res =
        app::run_openloop(harness_config(config(args.seed, krps * 1000, false)));
    const bool slo = res.p99_us() <= static_cast<double>(kDeadline) / 1000.0 &&
                     static_cast<double>(res.completed) >=
                         0.99 * static_cast<double>(res.arrivals) &&
                     res.errors == 0;
    steps.push_back({krps, res, slo});
    r.check(res.sojourn.count() >= kMinSamples,
            "ladder step at " + std::to_string(static_cast<int>(krps)) +
                " krps has fewer than 10,000 samples");
    if (krps == kRate / 1000) {
      app::OpenLoopResult& h = steps.back().res;
      const bool same = h.sojourn.count() == at_200.samples &&
                        h.arrivals == at_200.arrivals &&
                        h.completed == at_200.completed &&
                        h.deadline_misses == at_200.misses &&
                        h.sojourn.mean() == at_200.mean_ns &&
                        h.sojourn.percentile(99.9) == at_200.p999_ns;
      r.check(same, "assembled testbed differs from app::run_openloop");
      r.info("sim_identical_harness", same ? "yes" : "no");
    }
  }
  char line[160];
  r.note("rate ladder (app::run_openloop, 120 ms windows):");
  std::snprintf(line, sizeof line, "  %6s %9s %9s %9s %9s %7s %s", "krps",
                "samples", "p50_us", "p99_us", "p999_us", "errors", "slo");
  r.note(line);
  double best = 0;
  for (Step& s : steps) {
    std::snprintf(line, sizeof line, "  %6.0f %9zu %9.2f %9.2f %9.2f %7llu %s",
                  s.krps, s.res.sojourn.count(), s.res.p50_us(), s.res.p99_us(),
                  s.res.p999_us(), static_cast<unsigned long long>(s.res.errors),
                  s.meets_slo ? "ok" : "-");
    r.note(line);
    if (s.meets_slo) best = std::max(best, s.krps);
  }
  return best;
}

void untraced(const Args& args, Report& r) {
  std::vector<double> setups;
  std::unique_ptr<NetBed> bed;
  for (int i = 0; i < kSetups; i++) {
    bed.reset();  // one testbed (and its PM images) alive at a time
    bed = std::make_unique<NetBed>(config(args.seed, kRate, false));
    setups.push_back(bed->setup_s);
  }
  WallMeter m;
  const double t0 = wall_s();
  advance(*bed, kLadderWindow, kSlice, m);
  const SimSnapshot at_ladder = snapshot(*bed);
  advance(*bed, kWindow, kSlice, m);
  const SimSnapshot s = snapshot(*bed);
  const u64 errors_w = bed->http_errors();
  const double held = static_cast<double>(bed->pm_bytes_held());
  while (wall_s() - t0 < args.seconds) {
    advance(*bed, bed->window_elapsed() + kSlice, kSlice, m);
  }
  r.info("window_sim_ms", static_cast<double>(bed->window_elapsed()) / 1e6);
  r.info("generator_lateness_ns", 0.0);  // arrivals are events: never late
  gate(r, *bed);
  const double user_bytes =
      static_cast<double>(bed->cfg.keyspace * bed->cfg.value_size);
  bed.reset();
  const double best = ladder(args, r, at_ladder);

  r.check(s.samples >= kMinSamples, "fewer than 10,000 latency samples");
  r.metric("sim_p50_us", s.p50_ns / 1000.0, "us");
  r.metric("sim_p99_us", s.p99_ns / 1000.0, "us");
  r.metric("sim_p999_us", s.p999_ns / 1000.0, "us");
  for (const char* name : {"sim_p50_us", "sim_p99_us", "sim_p999_us"}) {
    r.samples(name, s.samples);
  }
  r.metric("sim_kreq_per_s",
           static_cast<double>(s.completed - std::min(s.completed, errors_w)) /
               (static_cast<double>(kWindow) / 1e9) / 1000.0,
           "kreq/s");
  r.metric("max_krps_at_slo", best, "krps");
  r.metric("deadline_miss_rate", miss_rate(s, errors_w), "fraction");
  r.samples("deadline_miss_rate", s.arrivals);
  r.metric("pm_bytes_per_user_byte", held / user_bytes, "ratio");
  r.metric("error_rate",
           static_cast<double>(r.failed()) / static_cast<double>(r.attempted()),
           "fraction");
  r.metric("wall_kreq_per_s", median(m.kops), "kop/s");
  r.samples("wall_kreq_per_s", m.kops.size());
  r.metric("setup_s", median(setups), "s");
  r.samples("setup_s", setups.size());
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

u64 counter_delta(NetBed& bed, const char* name) {
  return bed.client_counter(name) -
         bed.client_at_start.counter(name).value();
}

void traced(const Args& args, Report& r) {
  // Untraced reference window.
  auto ref = std::make_unique<NetBed>(config(args.seed, kRate, false));
  WallMeter mref;
  advance(*ref, kWindow, kSlice, mref);
  const SimSnapshot s0 = snapshot(*ref);
  const pm::PmDevice::FlushEpoch flush = ref->server_host->pm_device().obs_epoch();
  const double ops = static_cast<double>(s0.completed);
  const double busy = static_cast<double>(ref->server_busy_ns() - ref->busy_at_start);
  const double segs = static_cast<double>(ref->server_counter("tcp.segments_rx") +
                                          ref->server_counter("tcp.segments_tx"));
  const u64 retx = ref->server_counter("tcp.retransmits") +
                   counter_delta(*ref, "tcp.retransmits");
  const u64 drops = ref->server_counter("nic.rx_drops") +
                    counter_delta(*ref, "nic.rx_drops");
  std::vector<u64> shard_reqs;
  for (u32 i = 0; i < ref->server_host->datapaths(); i++) {
    shard_reqs.push_back(ref->server->shard_requests(i));
  }
  const double held = static_cast<double>(ref->pm_bytes_held());
  const double device_init_s = ref->device_init_s;
  const double prime_s = ref->prime_s;
  const double warmup_s = ref->warmup_s;
  gate(r, *ref);
  ref.reset();

  // Traced window, same seed.
  auto tr = std::make_unique<NetBed>(config(args.seed, kRate, true));
  WallMeter mtr;
  advance(*tr, kWindow, kSlice, mtr);
  const SimSnapshot s1 = snapshot(*tr);
  const obs::Attribution at = obs::attribute(tr->server_host->merged_trace());
  gate(r, *tr);
  tr.reset();
  // A second untraced window for the wall comparisons: the first one ran
  // on a cold heap, the traced one on a warm heap.
  auto warm = std::make_unique<NetBed>(config(args.seed, kRate, false));
  WallMeter mwarm;
  advance(*warm, kWindow, kSlice, mwarm);
  warm.reset();
  r.check(s0 == s1, "traced window differs from the untraced one in simulated time");
  r.info("sim_identical_traced", s0 == s1 ? "yes" : "no");

  const auto stage_us = [&at](obs::Stage s) { return at.mean_ns(s) / 1000.0; };
  const double unattributed = s1.mean_ns - at.server_sum_ns();
  char line[200];
  r.note("attribution (mixed-open-4core at 200 krps, mean per request, us):");
  for (int i = 0; i < obs::kStages; i++) {
    const auto s = static_cast<obs::Stage>(i);
    if (at.spans[i] == 0) continue;
    std::snprintf(line, sizeof line, "  %-12s %10.3f",
                  std::string(obs::to_string(s)).c_str(), stage_us(s));
    r.note(line);
  }
  std::snprintf(line, sizeof line,
                "  server spans %.3f vs mean sojourn %.3f: unattributed %.3f us "
                "(client queueing, client stacks, fabric, group-commit hold)",
                at.server_sum_ns() / 1000.0, s1.mean_ns / 1000.0,
                unattributed / 1000.0);
  r.note(line);

  u64 peak = 0, total = 0;
  for (const u64 n : shard_reqs) {
    peak = std::max(peak, n);
    total += n;
  }
  r.metric("app.stage_rx_us", stage_us(obs::Stage::rx), "us");
  r.metric("http.stage_parse_us", stage_us(obs::Stage::parse), "us");
  r.metric("core.stage_checksum_us", stage_us(obs::Stage::checksum), "us");
  r.metric("core.stage_copy_us", stage_us(obs::Stage::copy), "us");
  r.metric("container.stage_alloc_index_us", stage_us(obs::Stage::alloc_index), "us");
  r.metric("pm.stage_persist_us", stage_us(obs::Stage::persist), "us");
  r.metric("app.stage_tx_us", stage_us(obs::Stage::tx), "us");
  r.metric("app.unattributed_us", unattributed / 1000.0, "us");
  r.metric("app.server_cpu_util",
           busy / (static_cast<double>(kWindow) * 4.0), "fraction");
  r.metric("app.shard_imbalance",
           static_cast<double>(peak) * static_cast<double>(shard_reqs.size()) /
               static_cast<double>(std::max<u64>(1, total)),
           "ratio");
  r.metric("net.tcp_segments_per_req", segs / ops, "count");
  r.metric("net.tcp_retransmits", static_cast<double>(retx), "count");
  r.metric("nic.rx_drops", static_cast<double>(drops), "count");
  r.metric("pm.clwb_per_op", static_cast<double>(flush.clwb) / ops, "count");
  r.metric("pm.sfence_per_op", static_cast<double>(flush.sfence) / ops, "count");
  r.metric("pm.bytes_flushed_per_op", static_cast<double>(flush.bytes_flushed) / ops, "B");
  r.metric("pm.pool_bytes_held", held, "B");
  r.metric("sim.work_items_per_req", static_cast<double>(mref.items) / ops, "count");
  r.metric("wall_kreq_per_s", median(mwarm.kops), "kop/s");
  r.samples("wall_kreq_per_s", mwarm.kops.size());
  r.metric("sim.wall_ns_per_work_item",
           mwarm.wall_s * 1e9 / static_cast<double>(mwarm.items), "ns");
  r.metric("pm.device_init_s", device_init_s, "s");
  r.metric("core.prime_us_per_key", prime_s * 1e6 / 16384.0, "us");
  r.metric("sim.warmup_s", warmup_s, "s");
  r.metric("common.latency_samples", static_cast<double>(s0.samples), "count");
  r.metric("obs.trace_overhead", median(mwarm.kops) / median(mtr.kops) - 1.0,
           "fraction");

  // Layer replays over this workload's requests and values.
  ReplayInput in;
  for (u64 k = 0; k < 256; k++) {
    auto v = client_value(args.seed, k, 512);
    if (k % 2 == 0) {
      in.requests.push_back(put_request("key" + std::to_string(k), v));
    } else {
      http::Request get;
      get.method = http::Method::get;
      get.target = "/kv/key" + std::to_string(k);
      in.requests.push_back(http::serialize(get));
    }
    in.values.push_back(std::move(v));
  }
  replay_layers(in, 1.0, r);
}

}  // namespace

void mixed_open(const Args& args, Report& r) {
  if (args.trace) {
    traced(args, r);
  } else {
    untraced(args, r);
  }
}

}  // namespace perfbench
