// put-closed-1core: Figure 2's saturated single core. A closed loop of
// 50 connections issues 1 KB PUTs over 4,096 uniform keys to a
// one-core pktstore server; throughput is 1 / service time, so the
// write path (HTTP parse, ingest and checksum, skip-list insert, PM
// flush) sets every number.
//
// Untraced pass: three set-ups (median set-up time), then one window.
// Its first kWindow of simulated time gives the simulated metrics; the
// window then keeps running until the wall budget is spent, metered in
// slices for the wall-clock throughput.
//
// Traced pass: an untraced reference window and a traced window of the
// same seed (their simulated results must be identical), the same
// configuration through app::run_experiment (which must reproduce the
// traced window exactly), the stage attribution reconciled against the
// mean RTT, and the layer replays.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "app/harness.h"
#include "http/http.h"
#include "netbed.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

using namespace papm;

namespace {

constexpr SimTime kWindow = 1000 * kNsPerMs;  // simulated metrics window
constexpr SimTime kSlice = 10 * kNsPerMs;    // wall metering slice
constexpr int kSetups = 3;
constexpr u64 kMinSamples = 10'000;  // behind every percentile

NetConfig config(u64 seed, bool trace) {
  NetConfig c;
  c.server_cores = 1;
  c.connections = 50;
  c.value_size = 1024;
  c.get_ratio = 0.0;
  c.keyspace = 4096;
  c.warmup_ns = 20 * kNsPerMs;  // RunConfig default
  c.seed = seed;
  c.trace = trace;
  return c;
}

app::RunConfig harness_config(const NetConfig& c) {
  app::RunConfig rc;
  rc.backend = app::Backend::pktstore;
  rc.server_cores = c.server_cores;
  rc.connections = c.connections;
  rc.value_size = c.value_size;
  rc.get_ratio = c.get_ratio;
  rc.keyspace = c.keyspace;
  rc.warmup_ns = c.warmup_ns;
  rc.measure_ns = kWindow;
  rc.seed = c.seed;
  rc.trace = c.trace;
  return rc;
}

void untraced(const Args& args, Report& r) {
  std::vector<double> setups;
  std::unique_ptr<NetBed> bed;
  for (int i = 0; i < kSetups; i++) {
    bed.reset();  // one testbed (and its PM images) alive at a time
    bed = std::make_unique<NetBed>(config(args.seed, false));
    setups.push_back(bed->setup_s);
  }
  WallMeter m;
  const double t0 = wall_s();
  advance(*bed, kWindow, kSlice, m);
  const SimSnapshot s = snapshot(*bed);
  const double held = static_cast<double>(bed->pm_bytes_held());
  while (wall_s() - t0 < args.seconds) {
    advance(*bed, bed->window_elapsed() + kSlice, kSlice, m);
  }
  r.info("window_sim_ms", static_cast<double>(bed->window_elapsed()) / 1e6);
  gate(r, *bed);

  r.check(s.samples >= kMinSamples, "fewer than 10,000 latency samples");
  r.metric("sim_p50_us", s.p50_ns / 1000.0, "us");
  r.metric("sim_p99_us", s.p99_ns / 1000.0, "us");
  r.metric("sim_p999_us", s.p999_ns / 1000.0, "us");
  for (const char* name : {"sim_p50_us", "sim_p99_us", "sim_p999_us"}) {
    r.samples(name, s.samples);
  }
  r.metric("sim_kreq_per_s",
           static_cast<double>(s.completed) /
               (static_cast<double>(kWindow) / 1e9) / 1000.0,
           "kreq/s");
  r.metric("pm_bytes_per_user_byte",
           held / static_cast<double>(bed->cfg.keyspace * bed->cfg.value_size),
           "ratio");
  r.metric("error_rate",
           static_cast<double>(r.failed()) / static_cast<double>(r.attempted()),
           "fraction");
  r.metric("wall_kreq_per_s", median(m.kops), "kop/s");
  r.samples("wall_kreq_per_s", m.kops.size());
  r.metric("setup_s", median(setups), "s");
  r.samples("setup_s", setups.size());
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void traced(const Args& args, Report& r) {
  // Untraced reference window.
  auto ref = std::make_unique<NetBed>(config(args.seed, false));
  WallMeter mref;
  advance(*ref, kWindow, kSlice, mref);
  const SimSnapshot s0 = snapshot(*ref);
  const pm::PmDevice::FlushEpoch flush = ref->server_host->pm_device().obs_epoch();
  const double busy = static_cast<double>(ref->server_busy_ns() - ref->busy_at_start);
  const double device_init_s = ref->device_init_s;
  const double held = static_cast<double>(ref->pm_bytes_held());
  gate(r, *ref);
  ref.reset();

  // Traced window, same seed, with the passive wire tap.
  NetConfig tc = config(args.seed, true);
  tc.tap_responses = true;
  auto tr = std::make_unique<NetBed>(tc);
  WallMeter mtr;
  advance(*tr, kWindow, kSlice, mtr);
  const SimSnapshot s1 = snapshot(*tr);
  obs::TraceLog log = tr->server_host->merged_trace();
  log.merge_from(tr->wrk->trace());
  const obs::Attribution at = obs::attribute(log);
  // The server's spans end at dispatch: under group commit the response
  // leaves only when the request's epoch retires, and that hold is no
  // span. One shard releases responses in dispatch order, so the j-th
  // tx span of the window pairs with the (dispatched-before + j)-th
  // response frame on the wire.
  std::vector<SimTime> dispatch_end;
  for (const auto& e : log.events()) {
    if (e.stage == obs::Stage::tx) dispatch_end.push_back(e.ts);
  }
  std::sort(dispatch_end.begin(), dispatch_end.end());
  gate(r, *tr);
  double ack_wait_ns = 0;
  const u64 first = tr->dispatched_before_window;
  const bool paired = tr->response_tx.size() >= first + dispatch_end.size();
  r.check(paired, "wire tap saw fewer responses than the server dispatched");
  if (paired && !dispatch_end.empty()) {
    for (std::size_t j = 0; j < dispatch_end.size(); j++) {
      ack_wait_ns += static_cast<double>(tr->response_tx[first + j] - dispatch_end[j]);
    }
    ack_wait_ns /= static_cast<double>(dispatch_end.size());
  }
  tr.reset();
  // A second untraced window for the wall comparisons: the first one ran
  // on a cold heap, the traced one on a warm heap.
  auto warm = std::make_unique<NetBed>(config(args.seed, false));
  WallMeter mwarm;
  advance(*warm, kWindow, kSlice, mwarm);
  warm.reset();
  r.check(s0 == s1, "traced window differs from the untraced one in simulated time");
  r.info("sim_identical_traced", s0 == s1 ? "yes" : "no");

  // The harness on the same configuration must reproduce the window.
  const app::RunResult h = app::run_experiment(harness_config(config(args.seed, true)));
  const bool same_as_harness =
      h.rtt.count() == s1.samples && h.ops == s1.completed &&
      h.rtt.mean() == s1.mean_ns &&
      const_cast<Stats&>(h.rtt).percentile(99.9) == s1.p999_ns &&
      h.attribution.server_sum_ns() == at.server_sum_ns();
  r.check(same_as_harness, "assembled testbed differs from app::run_experiment");
  r.info("sim_identical_harness", same_as_harness ? "yes" : "no");

  // Networking outside the server (client stacks, NICs, fabric): Table
  // 1's networking row, as bench_table1 measures it, minus the server's
  // own rx/parse/tx spans, at one connection on the discard backend.
  app::RunConfig dc;
  dc.backend = app::Backend::discard;
  dc.connections = 1;
  dc.value_size = 1024;
  dc.warmup_ns = 10 * kNsPerMs;
  dc.measure_ns = 120 * kNsPerMs;
  dc.seed = args.seed;
  dc.trace = true;
  const app::RunResult d = app::run_experiment(dc);
  const double network_ns = d.rtt.mean() - d.attribution.server_sum_ns();

  const auto stage_us = [&at](obs::Stage s) { return at.mean_ns(s) / 1000.0; };
  const double stage_sum = at.server_sum_ns();
  const double rtt = s1.mean_ns;
  const double unattributed = rtt - stage_sum - network_ns;
  const double residual = unattributed - ack_wait_ns;
  char line[200];
  r.note("attribution (put-closed-1core, mean per request, us):");
  for (int i = 0; i < obs::kStages; i++) {
    const auto s = static_cast<obs::Stage>(i);
    if (at.spans[i] == 0 || s == obs::Stage::rtt) continue;
    std::snprintf(line, sizeof line, "  %-12s %10.3f", std::string(obs::to_string(s)).c_str(),
                  stage_us(s));
    r.note(line);
  }
  std::snprintf(line, sizeof line,
                "  spans %.3f + network %.3f = %.3f vs mean RTT %.3f "
                "(unattributed %.3f us, %.2f%%)",
                stage_sum / 1000.0, network_ns / 1000.0,
                (stage_sum + network_ns) / 1000.0, rtt / 1000.0,
                unattributed / 1000.0, 100.0 * unattributed / rtt);
  r.note(line);
  std::snprintf(line, sizeof line,
                "  spans %.3f + ack wait (wire tap) %.3f + network %.3f = "
                "%.3f vs mean RTT %.3f (residual %.3f us, %.3f%%)",
                stage_sum / 1000.0, ack_wait_ns / 1000.0, network_ns / 1000.0,
                (stage_sum + ack_wait_ns + network_ns) / 1000.0, rtt / 1000.0,
                residual / 1000.0, 100.0 * residual / rtt);
  r.note(line);
  r.check(std::abs(residual) <= 0.01 * rtt,
          "stages + ack wait + network do not reconcile with mean RTT within 1%");

  const double ops = static_cast<double>(s0.completed);
  r.metric("app.stage_rx_us", stage_us(obs::Stage::rx), "us");
  r.metric("http.stage_parse_us", stage_us(obs::Stage::parse), "us");
  r.metric("core.stage_checksum_us", stage_us(obs::Stage::checksum), "us");
  r.metric("core.stage_copy_us", stage_us(obs::Stage::copy), "us");
  r.metric("container.stage_alloc_index_us", stage_us(obs::Stage::alloc_index), "us");
  r.metric("pm.stage_persist_us", stage_us(obs::Stage::persist), "us");
  r.metric("app.stage_tx_us", stage_us(obs::Stage::tx), "us");
  r.metric("app.network_us", network_ns / 1000.0, "us");
  r.metric("app.ack_wait_us", ack_wait_ns / 1000.0, "us");
  r.metric("app.unattributed_us", unattributed / 1000.0, "us");
  r.metric("app.reconcile_residual_pct", 100.0 * residual / rtt, "%");
  r.metric("pm.clwb_per_op", static_cast<double>(flush.clwb) / ops, "count");
  r.metric("pm.sfence_per_op", static_cast<double>(flush.sfence) / ops, "count");
  r.metric("pm.bytes_flushed_per_op", static_cast<double>(flush.bytes_flushed) / ops, "B");
  r.metric("pm.pool_bytes_held", held, "B");
  r.metric("app.server_cpu_util", busy / static_cast<double>(kWindow), "fraction");
  r.metric("sim.work_items_per_req", static_cast<double>(mref.items) / ops, "count");
  r.metric("wall_kreq_per_s", median(mwarm.kops), "kop/s");
  r.samples("wall_kreq_per_s", mwarm.kops.size());
  r.metric("sim.wall_ns_per_work_item", mwarm.wall_s * 1e9 / static_cast<double>(mwarm.items), "ns");
  r.metric("pm.device_init_s", device_init_s, "s");
  r.metric("obs.trace_overhead", median(mwarm.kops) / median(mtr.kops) - 1.0,
           "fraction");

  // Layer replays over this workload's requests and values.
  ReplayInput in;
  for (u64 k = 0; k < 256; k++) {
    auto v = client_value(args.seed, k, 1024);
    in.requests.push_back(put_request("key" + std::to_string(k), v));
    in.values.push_back(std::move(v));
  }
  replay_layers(in, 1.0, r);
}

}  // namespace

void put_closed(const Args& args, Report& r) {
  if (args.trace) {
    traced(args, r);
  } else {
    untraced(args, r);
  }
}

}  // namespace perfbench
