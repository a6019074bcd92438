// The two-machine testbed of app::run_experiment (closed loop) and
// app::run_openloop (open loop), assembled here from the same public
// classes. The harness runs set-up and the measured window in one call;
// the benchmark needs them apart (set-up is timed on its own, the window
// is advanced in slices against a wall clock) and needs server stage
// tracing on the open-loop server. Construction order, addresses and
// seeds mirror src/app/harness.cpp, and the workloads check that a window
// of this testbed reproduces the harness's simulated numbers exactly.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "app/client.h"
#include "app/host.h"
#include "app/openloop.h"
#include "app/server.h"
#include "nic/fabric.h"
#include "report.h"

namespace perfbench {

struct NetConfig {
  bool open_loop = false;
  int server_cores = 1;
  int connections = 50;
  double rate_rps = 0;  // open loop only
  std::size_t value_size = 1024;
  double get_ratio = 0.0;
  u64 keyspace = 4096;
  double zipf_theta = 0.0;
  SimTime deadline_ns = papm::kNsPerMs;  // open loop only
  SimTime warmup_ns = 20 * papm::kNsPerMs;
  u64 seed = 1;
  bool trace = false;  // server spans (+ client rtt spans, closed loop)
  // Passive wire tap (a Fabric drop hook that never drops): records when
  // each server->client frame carrying TCP payload is handed to the
  // wire. Used to time the group-commit ack hold from outside.
  bool tap_responses = false;
};

class NetBed {
 public:
  // Builds the hosts, primes the store (open loop), starts the clients
  // and runs the warmup. Every phase is wall-timed.
  explicit NetBed(const NetConfig& cfg);
  NetBed(const NetBed&) = delete;
  NetBed& operator=(const NetBed&) = delete;

  // Warmup/measure boundary, as in the harness: zero the client sample
  // sets, the server's counters and the server's metrics and spans.
  void begin_window();
  // Advances simulated time to window start + `t`.
  void run_to(SimTime t) { env.engine.run_until(window_start + t); }
  [[nodiscard]] SimTime window_elapsed() const {
    return env.now() - window_start;
  }

  // Client-side results since begin_window().
  [[nodiscard]] papm::Stats& latencies();
  [[nodiscard]] u64 completed() const;
  [[nodiscard]] u64 arrivals() const;  // open loop: Poisson arrivals
  [[nodiscard]] u64 deadline_misses() const;
  [[nodiscard]] u64 http_errors() const;

  // CPU work items executed on every host so far (the event engine's
  // unit of work) and server core busy time.
  [[nodiscard]] u64 work_items() const;
  [[nodiscard]] SimTime server_busy_ns() const {
    return server_host->cpu().busy_ns();
  }
  // Bytes the server's PM pools hold (bump frontier, all shards).
  [[nodiscard]] u64 pm_bytes_held();
  // Server-side merged counter value (window-scoped: reset at the
  // boundary) and client-side counter value (never reset).
  [[nodiscard]] u64 server_counter(const char* name) const;
  [[nodiscard]] u64 client_counter(const char* name) const;

  // Stops the clients and runs until every issued request is answered
  // (or `limit_ns` of simulated time passes). Returns the number of
  // requests that never got a response.
  u64 drain(SimTime limit_ns);

  NetConfig cfg;
  papm::sim::Env env;
  papm::nic::Fabric fabric;
  std::unique_ptr<papm::app::Host> server_host;
  std::unique_ptr<papm::app::Host> client_host;
  std::unique_ptr<papm::app::KvServer> server;
  std::unique_ptr<papm::app::WrkClient> wrk;
  std::unique_ptr<papm::app::OpenLoopClient> open;

  // Wire tap (cfg.tap_responses): NIC hand-off times of the server's
  // response frames since the start, and the number of requests the
  // server had dispatched before the window.
  std::vector<SimTime> response_tx;
  u64 dispatched_before_window = 0;

  // State at the window boundary, for window-scoped deltas.
  SimTime busy_at_start = 0;
  papm::obs::MetricRegistry client_at_start;

  // Set-up phases, wall seconds.
  double device_init_s = 0;  // server Host construction (PM images)
  double prime_s = 0;        // KvServer::prime over the keyspace
  double warmup_s = 0;       // warmup run_until
  double setup_s = 0;        // everything before the measured window
  SimTime window_start = 0;
};

// The simulated results of a window so far. The traced pass compares
// these field by field with an untraced window of the same seed.
struct SimSnapshot {
  u64 samples = 0;
  u64 completed = 0;
  u64 arrivals = 0;
  u64 misses = 0;
  double mean_ns = 0, p50_ns = 0, p99_ns = 0, p999_ns = 0;
  bool operator==(const SimSnapshot&) const = default;
};
SimSnapshot snapshot(NetBed& bed);

// The correctness gate of a network window: drains the testbed, then
// counts the window's requests as attempted and every HTTP error and
// never-answered request as failed.
void gate(Report& r, NetBed& bed);

// Wall-clock throughput of the simulator over a window advanced in
// slices: completed requests and CPU work items per wall second, slice by
// slice (the median of the slices resists a noisy neighbour).
struct WallMeter {
  std::vector<double> kops;  // per slice: thousand requests per wall second
  double wall_s = 0;         // total wall time metered
  u64 items = 0;             // work items executed while metered
};

// Advances `bed`'s window to `until` (window-relative) in `slice` steps.
void advance(NetBed& bed, SimTime until, SimTime slice, WallMeter& m);

// Per-key value convention of WrkClient / OpenLoopClient / the harness
// priming loop: Rng(seed * 1315423911 + key) bytes.
std::vector<papm::u8> client_value(u64 seed, u64 key, std::size_t size);

}  // namespace perfbench
