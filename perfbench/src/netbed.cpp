#include "netbed.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using namespace papm;

namespace {
// Addresses of src/app/harness.cpp: RSS hashes the 4-tuple, so the same
// addresses are needed to land flows on the same shards.
constexpr u32 kClientIp = 0x0a000001;
constexpr u32 kServerIp = 0x0a000002;
constexpr u32 kOpenLoopClientBase = 0x0a010000;
constexpr int kMaxConnsPerClientHost = 16'000;
}  // namespace

NetBed::NetBed(const NetConfig& c) : cfg(c), fabric(env) {
  if (cfg.open_loop && cfg.connections > kMaxConnsPerClientHost) {
    throw std::invalid_argument("NetBed: one open-loop client host only");
  }
  const double t0 = wall_s();
  env.rng = Rng(cfg.seed);
  if (cfg.tap_responses) {
    const u32 client_ip = cfg.open_loop ? kOpenLoopClientBase : kClientIp;
    fabric.set_drop_hook([this, client_ip](u32 dst, const nic::WireFrame& f) {
      constexpr std::size_t kIp = net::kEthHdrLen;
      if (dst != client_ip || f.bytes.size() < net::kAllHdrLen ||
          f.bytes[kIp + 9] != net::kIpProtoTcp) {
        return false;
      }
      const std::size_t ip_len =
          (static_cast<std::size_t>(f.bytes[kIp + 2]) << 8) | f.bytes[kIp + 3];
      if (ip_len > net::kIpHdrLen + net::kTcpHdrLen) {
        response_tx.push_back(env.now());
      }
      return false;  // observe only
    });
  }

  app::HostConfig server_cfg;
  server_cfg.ip = kServerIp;
  server_cfg.cores = cfg.server_cores;
  server_cfg.busy_poll = true;
  server_cfg.pm_backed = true;  // default pm_size: 512 MiB
  server_host = std::make_unique<app::Host>(env, fabric, server_cfg);
  device_init_s = wall_s() - t0;

  app::HostConfig client_cfg;
  client_cfg.ip = cfg.open_loop ? kOpenLoopClientBase : kClientIp;
  client_cfg.cores = 0;  // the client machine is not the bottleneck
  client_cfg.busy_poll = false;

  app::ServerConfig scfg;
  scfg.backend = app::Backend::pktstore;
  scfg.trace = cfg.trace;

  SimTime warmup = cfg.warmup_ns;
  if (!cfg.open_loop) {
    // run_experiment: client host before the server.
    client_host = std::make_unique<app::Host>(env, fabric, client_cfg);
    server = std::make_unique<app::KvServer>(*server_host, scfg);
    app::ClientConfig cc;
    cc.server_ip = kServerIp;
    cc.connections = cfg.connections;
    cc.value_size = cfg.value_size;
    cc.get_ratio = cfg.get_ratio;
    cc.keyspace = cfg.keyspace;
    cc.zipf_theta = cfg.zipf_theta;
    cc.seed = cfg.seed;
    wrk = std::make_unique<app::WrkClient>(*client_host, cc);
    wrk->set_tracing(cfg.trace);
    wrk->start();
  } else {
    // run_openloop: server, then the client host, then priming.
    server = std::make_unique<app::KvServer>(*server_host, scfg);
    const SimTime connect_window =
        static_cast<SimTime>(cfg.connections) * 5 * kNsPerUs;
    warmup = std::max<SimTime>(
        cfg.warmup_ns, connect_window + connect_window / 4 + 20 * kNsPerMs);
    client_host = std::make_unique<app::Host>(env, fabric, client_cfg);
    app::OpenLoopConfig oc;
    oc.server_ip = kServerIp;
    oc.connections = cfg.connections;
    oc.rate_rps = cfg.rate_rps;
    oc.value_size = cfg.value_size;
    oc.get_ratio = cfg.get_ratio;
    oc.keyspace = cfg.keyspace;
    oc.zipf_theta = cfg.zipf_theta;
    oc.seed = cfg.seed;
    oc.deadline_ns = cfg.deadline_ns;
    oc.connect_window_ns = connect_window;
    open = std::make_unique<app::OpenLoopClient>(*client_host, oc);

    const double tp = wall_s();
    for (u64 k = 0; k < cfg.keyspace; k++) {
      const auto v = client_value(cfg.seed, k, cfg.value_size);
      if (!server->prime("key" + std::to_string(k), v)) {
        throw std::runtime_error("NetBed: priming failed");
      }
    }
    prime_s = wall_s() - tp;
    open->start();
  }

  const double tw = wall_s();
  env.engine.run_until(warmup);
  warmup_s = wall_s() - tw;
  begin_window();
  setup_s = wall_s() - t0;
}

void NetBed::begin_window() {
  dispatched_before_window = server->ops();
  if (wrk) wrk->reset_stats();
  if (open) open->reset_stats();
  server->reset_stats();
  server_host->reset_obs();
  window_start = env.now();
  busy_at_start = server_host->cpu().busy_ns();
  client_at_start = client_host->merged_metrics();
}

Stats& NetBed::latencies() { return wrk ? wrk->latencies() : open->sojourns(); }

u64 NetBed::completed() const {
  return wrk ? wrk->completed() : open->completed();
}

u64 NetBed::arrivals() const { return open ? open->arrivals() : completed(); }

u64 NetBed::deadline_misses() const {
  return open ? open->deadline_misses() : 0;
}

u64 NetBed::http_errors() const {
  return (wrk ? wrk->http_errors() : open->http_errors()) + server->errors();
}

u64 NetBed::work_items() const {
  return server_host->cpu().work_items() + client_host->cpu().work_items();
}

u64 NetBed::pm_bytes_held() {
  u64 held = 0;
  for (u32 i = 0; i < server_host->datapaths(); i++) {
    held += server_host->pm_pool(i).bump_used();
  }
  return held;
}

u64 NetBed::server_counter(const char* name) const {
  return server_host->merged_metrics().counter(name).value();
}

u64 NetBed::client_counter(const char* name) const {
  return client_host->merged_metrics().counter(name).value();
}

u64 NetBed::drain(SimTime limit_ns) {
  if (wrk) wrk->stop();
  if (open) open->stop();
  // Issued vs answered over the whole run (the client registry is never
  // reset): a closed-loop request counts at issue, an open-loop one at
  // its Poisson arrival.
  const auto outstanding = [this]() -> u64 {
    const u64 issued = wrk ? client_counter("client.requests")
                           : client_counter("client.arrivals");
    const u64 answered = wrk ? client_counter("http.responses_parsed")
                             : client_counter("client.requests");
    return issued > answered ? issued - answered : 0;
  };
  const SimTime end = env.now() + limit_ns;
  while (outstanding() != 0 && env.now() < end) {
    env.engine.run_until(env.now() + 100 * kNsPerUs);
  }
  return outstanding();
}

SimSnapshot snapshot(NetBed& bed) {
  Stats& lat = bed.latencies();
  SimSnapshot s;
  s.samples = lat.count();
  s.completed = bed.completed();
  s.arrivals = bed.arrivals();
  s.misses = bed.deadline_misses();
  s.mean_ns = lat.mean();
  s.p50_ns = lat.percentile(50);
  s.p99_ns = lat.percentile(99);
  s.p999_ns = lat.percentile(99.9);
  return s;
}

void gate(Report& r, NetBed& bed) {
  const u64 unanswered = bed.drain(50 * kNsPerMs);
  // Open-loop arrivals already count the requests never answered.
  r.attempt(bed.open ? bed.arrivals() : bed.completed() + unanswered);
  r.fail(bed.http_errors(), "HTTP error response");
  r.fail(unanswered, "request never answered");
}

void advance(NetBed& bed, SimTime until, SimTime slice, WallMeter& m) {
  while (bed.window_elapsed() < until) {
    const SimTime next = std::min(until, bed.window_elapsed() + slice);
    const u64 ops0 = bed.completed();
    const u64 items0 = bed.work_items();
    const double t0 = wall_s();
    bed.run_to(next);
    const double dt = wall_s() - t0;
    const u64 ops = bed.completed() - ops0;
    m.kops.push_back(static_cast<double>(ops) / dt / 1000.0);
    m.wall_s += dt;
    m.items += bed.work_items() - items0;
  }
}

std::vector<u8> client_value(u64 seed, u64 key, std::size_t size) {
  Rng vr(seed * 1315423911ULL + key);
  std::vector<u8> v(size);
  for (auto& b : v) b = static_cast<u8>(vr.next());
  return v;
}

}  // namespace perfbench
