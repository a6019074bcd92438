// Integration tests for the experiment harness: end-to-end client/server
// runs per backend, Table 1 / Figure 2 calibration properties, GET paths,
// and queueing behaviour — these are the properties the benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "app/harness.h"

namespace papm::app {
namespace {

RunConfig base_config(Backend b, int conns = 1) {
  RunConfig cfg;
  cfg.backend = b;
  cfg.connections = conns;
  cfg.warmup_ns = 10 * kNsPerMs;
  cfg.measure_ns = 60 * kNsPerMs;
  return cfg;
}

TEST(Harness, DiscardRttMatchesPaperNetworkingRow) {
  const auto r = run_experiment(base_config(Backend::discard));
  // Table 1: networking-only RTT 26.71 us.
  EXPECT_NEAR(r.mean_rtt_us(), 26.71, 0.8);
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.server_errors, 0u);
}

TEST(Harness, LsmRttMatchesPaperTotalRow) {
  const auto r = run_experiment(base_config(Backend::lsm));
  // Table 1: total 34.79 us (we land within ~1 us).
  EXPECT_NEAR(r.mean_rtt_us(), 34.79, 1.2);
  EXPECT_EQ(r.server_errors, 0u);
  // Breakdown rows (generous tolerances; shape matters).
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.prep_ns), 700, 120);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.checksum_ns), 1770, 200);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.copy_ns), 1140, 150);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.alloc_insert_ns), 2780, 700);
  EXPECT_NEAR(static_cast<double>(r.avg_breakdown.persist_ns), 1940, 250);
}

TEST(Harness, RawPersistSitsBetween) {
  const auto d = run_experiment(base_config(Backend::discard));
  const auto raw = run_experiment(base_config(Backend::raw_persist));
  const auto lsm = run_experiment(base_config(Backend::lsm));
  EXPECT_LT(d.rtt.mean(), raw.rtt.mean());
  EXPECT_LT(raw.rtt.mean(), lsm.rtt.mean());
  // raw = discard + copy + persist, within tolerance.
  EXPECT_NEAR(raw.mean_rtt_us() - d.mean_rtt_us(), 1.14 + 1.94, 0.5);
}

TEST(Harness, PktStoreBeatsLsmAndKeepsAllProperties) {
  const auto lsm = run_experiment(base_config(Backend::lsm));
  const auto pkt = run_experiment(base_config(Backend::pktstore));
  EXPECT_LT(pkt.rtt.mean(), lsm.rtt.mean());
  EXPECT_GT(pkt.kreq_per_s, lsm.kreq_per_s);
  // The reuse wins: checksum and copy effectively free.
  EXPECT_LT(pkt.avg_breakdown.checksum_ns, 200);
  EXPECT_LT(pkt.avg_breakdown.copy_ns, 100);
  // Persistence cannot be reused away.
  EXPECT_GT(pkt.avg_breakdown.persist_ns, 1700);
  EXPECT_EQ(pkt.server_errors, 0u);
}

TEST(Harness, KnobsRemoveExactlyTheirShare) {
  auto cfg = base_config(Backend::lsm);
  cfg.knobs.checksum = false;
  const auto no_csum = run_experiment(cfg);
  const auto full = run_experiment(base_config(Backend::lsm));
  // Removing the checksum removes ~1.77 us of RTT.
  EXPECT_NEAR(full.mean_rtt_us() - no_csum.mean_rtt_us(), 1.77, 0.5);
  EXPECT_EQ(no_csum.avg_breakdown.checksum_ns, 0);
}

TEST(Harness, Figure2QueueingShape) {
  // Latency grows ~linearly with connections once the single core
  // saturates; throughput plateaus; the data-management gap lands in the
  // paper's bands (tput -9..-28 %, latency +11..+42 %).
  auto raw1 = run_experiment(base_config(Backend::raw_persist, 1));
  auto lsm1 = run_experiment(base_config(Backend::lsm, 1));
  auto raw25 = run_experiment(base_config(Backend::raw_persist, 25));
  auto lsm25 = run_experiment(base_config(Backend::lsm, 25));

  // Saturation: 25 connections push throughput far above 1-connection.
  EXPECT_GT(raw25.kreq_per_s, raw1.kreq_per_s * 2);
  // Queueing: latency at 25 conns far exceeds the single-conn RTT.
  EXPECT_GT(raw25.rtt.mean(), 4 * raw1.rtt.mean());

  const double tput_gap1 = 1.0 - lsm1.kreq_per_s / raw1.kreq_per_s;
  const double tput_gap25 = 1.0 - lsm25.kreq_per_s / raw25.kreq_per_s;
  const double lat_gap1 = lsm1.rtt.mean() / raw1.rtt.mean() - 1.0;
  const double lat_gap25 = lsm25.rtt.mean() / raw25.rtt.mean() - 1.0;
  EXPECT_GT(tput_gap1, 0.08);
  EXPECT_LT(tput_gap25, 0.33);
  EXPECT_GT(lat_gap1, 0.10);
  EXPECT_LT(lat_gap25, 0.46);
  // The penalty grows with load (the paper's queueing argument).
  EXPECT_GT(lat_gap25, lat_gap1);
}

TEST(Harness, ServerCpuSaturatesUnderLoad) {
  const auto r1 = run_experiment(base_config(Backend::lsm, 1));
  const auto r25 = run_experiment(base_config(Backend::lsm, 25));
  EXPECT_LT(r1.server_cpu_util, 0.7);
  EXPECT_GT(r25.server_cpu_util, 0.95);
}

TEST(Harness, GetWorkloadRoundTrips) {
  auto cfg = base_config(Backend::lsm);
  cfg.get_ratio = 0.5;
  cfg.keyspace = 64;  // small keyspace so GETs mostly hit primed keys
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 500u);
  // Early GETs may 404 before their key is primed; most must succeed.
  EXPECT_LT(static_cast<double>(r.server_errors) / static_cast<double>(r.ops),
            0.05);
}

TEST(Harness, PktStoreGetZeroCopyWorkload) {
  auto cfg = base_config(Backend::pktstore);
  cfg.get_ratio = 0.5;
  cfg.keyspace = 64;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 500u);
  EXPECT_LT(static_cast<double>(r.server_errors) / static_cast<double>(r.ops),
            0.05);
  EXPECT_EQ(r.get_mismatches, 0u);  // the client checks every GET body
}

// Every GET body the client receives is the key's value, whatever the
// value size: below, at and just past one segment beside the response
// head, and multi-segment. 24000 and 65536 B exceed the initial
// congestion window: their zero-copy segments beyond it must queue until
// ACKs open it, or the response is truncated and the closed loop stalls.
class PktStoreGetSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PktStoreGetSizes, BodiesMatchValues) {
  auto cfg = base_config(Backend::pktstore);
  cfg.value_size = GetParam();
  cfg.get_ratio = 0.5;
  cfg.keyspace = 8;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 100u);
  EXPECT_LT(static_cast<double>(r.server_errors) / static_cast<double>(r.ops),
            0.05);
  EXPECT_EQ(r.get_mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PktStoreGetSizes,
                         ::testing::Values(1, 511, 1407, 1408, 1448, 1449,
                                           4000, 24000, 65536));

// A 512 B GET answers in one TCP segment: the response head rides in the
// segment that carries the value, and the request's ACK rides on it too.
TEST(PktStoreGet, SmallValueLeavesInOneSegment) {
  sim::Env env;
  nic::Fabric fabric(env);
  HostConfig scfg;
  scfg.ip = 2;
  scfg.cores = 1;
  scfg.busy_poll = true;
  scfg.pm_backed = true;
  Host server(env, fabric, scfg);
  HostConfig ccfg;
  ccfg.ip = 1;
  ccfg.cores = 0;
  Host client(env, fabric, ccfg);

  ServerConfig sc;
  sc.backend = Backend::pktstore;
  KvServer srv(server, sc);
  const std::vector<u8> value(512, 0x5a);
  ASSERT_TRUE(srv.prime("k", value));

  net::TcpConn* conn = client.stack().connect(2, 9000);
  http::ResponseParser parser;
  std::optional<http::Response> last;
  conn->on_readable = [&](net::TcpConn& c) {
    std::vector<u8> buf(8192);
    std::size_t n;
    while ((n = c.read(buf)) > 0) {
      auto r = parser.feed(std::span<const u8>(buf.data(), n));
      if (r.has_value()) last = std::move(r);
    }
  };
  env.engine.run_until_idle();
  ASSERT_EQ(conn->state(), net::TcpState::established);

  constexpr int kGets = 20;
  const u64 tx_before = server.stack().segments_tx();
  for (int i = 0; i < kGets; i++) {
    last.reset();
    http::Request req;
    req.method = http::Method::get;
    req.target = "/kv/k";
    (void)conn->send(http::serialize(req));
    env.engine.run_until_idle();
    ASSERT_TRUE(last.has_value());
    ASSERT_EQ(last->status, 200);
    ASSERT_EQ(last->body, value);
  }
  EXPECT_DOUBLE_EQ(
      static_cast<double>(server.stack().segments_tx() - tx_before) / kGets,
      1.0);
}

TEST(Harness, HomaLikeTransportShrinksNetworkingShare) {
  auto tcp_cfg = base_config(Backend::lsm);
  auto homa_cfg = tcp_cfg;
  homa_cfg.cost = sim::CostModel::homa_like();
  const auto tcp = run_experiment(tcp_cfg);
  const auto homa = run_experiment(homa_cfg);
  // Networking shrinks; the storage share is untouched, so its relative
  // weight grows — the §5.2 argument for the proposal.
  EXPECT_LT(homa.rtt.mean(), tcp.rtt.mean() - 10000.0);
  EXPECT_NEAR(static_cast<double>(homa.avg_breakdown.total_ns()),
              static_cast<double>(tcp.avg_breakdown.total_ns()), 500.0);
}

TEST(Harness, LossyFabricStillCompletes) {
  auto cfg = base_config(Backend::lsm);
  cfg.fabric.loss_p = 0.005;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 200u);
  EXPECT_GT(r.fabric_drops, 0u);     // drops actually happened
  EXPECT_GT(r.tcp_retransmits, 0u);  // and TCP repaired them
  EXPECT_EQ(r.server_errors, 0u);    // so no request was lost
}

// On a lossless fabric every retransmission is spurious. Under group
// commit the server holds each PUT's response, so its ACK is delayed;
// the delay bound and the RTO floor must keep the client's timer behind
// that ACK at every load.
class ZeroLossRetransmits : public ::testing::TestWithParam<int> {};

TEST_P(ZeroLossRetransmits, NoneForPktStore) {
  auto cfg = base_config(Backend::pktstore, GetParam());
  cfg.measure_ns = 200 * kNsPerMs;
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 1000u);
  EXPECT_EQ(r.fabric_drops, 0u);
  EXPECT_EQ(r.tcp_retransmits, 0u);
  EXPECT_EQ(r.server_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Conns, ZeroLossRetransmits,
                         ::testing::Values(25, 50, 75, 100));

TEST(Harness, LargeValuesSpanSegments) {
  auto cfg = base_config(Backend::pktstore);
  cfg.value_size = 4000;  // 3 segments per request
  const auto r = run_experiment(cfg);
  EXPECT_GT(r.ops, 300u);
  EXPECT_EQ(r.server_errors, 0u);
  // More bytes => higher persist cost per op.
  EXPECT_GT(r.avg_breakdown.persist_ns, 3 * 1940 / 2);
}

TEST(Harness, LsmWithWalIsSlower) {
  auto wal_cfg = base_config(Backend::lsm);
  wal_cfg.lsm_wal = true;
  const auto with_wal = run_experiment(wal_cfg);
  const auto without = run_experiment(base_config(Backend::lsm));
  EXPECT_GT(with_wal.rtt.mean(), without.rtt.mean() + 2000.0);
}

// Sends `segments` one at a time on a fresh connection to a one-core
// `backend` server and records how the server answered; then PUTs on a
// second connection, which must still be served and answered
// `follow_up_status` (201 for a new key on pktstore, 200 on raw_persist).
struct RawExchange {
  std::optional<http::Response> resp;  // the first connection's answer
  bool closed = false;                 // the server closed that connection
  u64 errors = 0;                      // server errors over both requests
  SimTime copy_ns = 0;                 // copy time the first request charged
};

RawExchange send_raw_segments(Backend backend,
                              const std::vector<std::string>& segments,
                              int follow_up_status) {
  sim::Env env;
  nic::Fabric fabric(env);
  HostConfig scfg;
  scfg.ip = 2;
  scfg.cores = 1;
  scfg.busy_poll = true;
  scfg.pm_backed = true;
  Host server(env, fabric, scfg);
  HostConfig ccfg;
  ccfg.ip = 1;
  ccfg.cores = 0;
  Host client(env, fabric, ccfg);
  ServerConfig sc;
  sc.backend = backend;
  KvServer srv(server, sc);

  std::optional<http::Response> last;
  auto open = [&](http::ResponseParser& parser) {
    net::TcpConn* conn = client.stack().connect(2, 9000);
    conn->on_readable = [&last, p = &parser](net::TcpConn& c) {
      std::vector<u8> buf(8192);
      std::size_t n;
      while ((n = c.read(buf)) > 0) {
        auto r = p->feed(std::span<const u8>(buf.data(), n));
        if (r.has_value()) last = std::move(r);
      }
    };
    env.engine.run_until_idle();
    EXPECT_EQ(conn->state(), net::TcpState::established);
    return conn;
  };

  RawExchange out;
  http::ResponseParser first_parser;
  net::TcpConn* first = open(first_parser);
  for (const std::string& seg : segments) {
    (void)first->send(std::span<const u8>(
        reinterpret_cast<const u8*>(seg.data()), seg.size()));
    env.engine.run_until_idle();
  }
  out.resp = last;
  out.closed = first->state() != net::TcpState::established;
  out.copy_ns = srv.breakdown_sum().copy_ns;

  last.reset();
  http::ResponseParser good_parser;
  net::TcpConn* good = open(good_parser);
  http::Request req;
  req.method = http::Method::put;
  req.target = "/kv/k";
  req.body = {'v'};
  (void)good->send(http::serialize(req));
  env.engine.run_until_idle();
  EXPECT_TRUE(last.has_value() && last->status == follow_up_status)
      << "the server stopped serving after the first connection";
  out.errors = srv.errors();
  return out;
}

// A request head that is not whole and well-formed in the first segment
// is answered 400 and its connection closed (DESIGN.md §10).
TEST(BadHead, SplitAcrossSegmentsGets400) {
  const RawExchange r = send_raw_segments(
      Backend::pktstore,
      {"PUT /kv/k HTTP/1.1\r\nContent-", "Length: 3\r\n\r\nabc"}, 201);
  ASSERT_TRUE(r.resp.has_value()) << "split head stalled the connection";
  EXPECT_EQ(r.resp->status, 400);
  EXPECT_TRUE(r.closed) << "the server must close a connection it rejected";
  EXPECT_EQ(r.errors, 1u);
}

TEST(BadHead, GarbageRequestLineGets400) {
  const RawExchange r =
      send_raw_segments(Backend::pktstore, {"GARBAGE\r\n\r\n"}, 201);
  ASSERT_TRUE(r.resp.has_value()) << "malformed head stalled the connection";
  EXPECT_EQ(r.resp->status, 400);
  EXPECT_TRUE(r.closed) << "the server must close a connection it rejected";
  EXPECT_EQ(r.errors, 1u);
}

// raw_persist copies the body, Content-Length bytes, and nothing after
// it: bytes a segment carries past the body are neither stored nor
// charged as copy time.
TEST(RawPersist, CopiesOnlyContentLengthBytes) {
  const RawExchange r = send_raw_segments(
      Backend::raw_persist,
      {"PUT /kv/k HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd" +
       std::string(1000, 'x')},
      200);
  ASSERT_TRUE(r.resp.has_value());
  EXPECT_EQ(r.resp->status, 200);
  EXPECT_FALSE(r.closed);
  EXPECT_EQ(r.copy_ns, sim::CostModel{}.copy_cost(4));
  EXPECT_EQ(r.errors, 0u);
}

// The request path end to end, per backend and server core count: PUTs
// of one segment and of several, GETs of a key written through the
// connection's own (ingress) shard, of keys primed on every shard and of
// a missing key, DELETEs of present and missing keys, and GETs after the
// DELETEs. Statuses and bodies are checked exactly.
class RequestPath
    : public ::testing::TestWithParam<std::tuple<Backend, int>> {};

TEST_P(RequestPath, StatusesAndBodies) {
  const auto [backend, cores] = GetParam();
  const bool indexed = backend == Backend::lsm || backend == Backend::pktstore;
  sim::Env env;
  nic::Fabric fabric(env);
  HostConfig scfg;
  scfg.ip = 2;
  scfg.cores = cores;
  scfg.busy_poll = true;
  scfg.pm_backed = true;
  Host server(env, fabric, scfg);
  HostConfig ccfg;
  ccfg.ip = 1;
  ccfg.cores = 0;
  Host client(env, fabric, ccfg);
  ServerConfig sc;
  sc.backend = backend;
  KvServer srv(server, sc);

  // Prime eight keys, noting the shard each lands in by the shard's
  // store.puts counter.
  std::vector<std::pair<std::string, std::vector<u8>>> primed;
  std::vector<u32> primed_shard;
  for (int i = 0; indexed && i < 8; i++) {
    std::vector<u8> v(300 + 100 * i);
    for (std::size_t j = 0; j < v.size(); j++) {
      v[j] = static_cast<u8>(j * 7 + static_cast<std::size_t>(i));
    }
    std::vector<u64> before(server.datapaths());
    for (u32 s = 0; s < server.datapaths(); s++) {
      before[s] = server.metrics(s).counter("store.puts").value();
    }
    ASSERT_TRUE(srv.prime("p" + std::to_string(i), v));
    u32 shard = 0;
    for (u32 s = 0; s < server.datapaths(); s++) {
      if (server.metrics(s).counter("store.puts").value() != before[s]) {
        shard = s;
      }
    }
    primed.emplace_back("p" + std::to_string(i), std::move(v));
    primed_shard.push_back(shard);
  }

  net::TcpConn* conn = client.stack().connect(2, 9000);
  http::ResponseParser parser;
  std::optional<http::Response> last;
  conn->on_readable = [&](net::TcpConn& c) {
    std::vector<u8> buf(8192);
    std::size_t n;
    while ((n = c.read(buf)) > 0) {
      auto r = parser.feed(std::span<const u8>(buf.data(), n));
      if (r.has_value()) last = std::move(r);
    }
  };
  env.engine.run_until_idle();
  ASSERT_EQ(conn->state(), net::TcpState::established);
  auto request = [&](http::Method m, const std::string& key,
                     std::vector<u8> body = {}) {
    last.reset();
    http::Request req;
    req.method = m;
    req.target = "/kv/" + key;
    req.body = std::move(body);
    (void)conn->send(http::serialize(req));
    env.engine.run_until_idle();
    EXPECT_TRUE(last.has_value()) << "no response for " << key;
    return last.value_or(http::Response{});
  };
  auto value = [](std::size_t n, u8 salt) {
    std::vector<u8> v(n);
    for (std::size_t i = 0; i < n; i++) v[i] = static_cast<u8>(i * 13 + salt);
    return v;
  };
  const std::vector<u8> one_seg = value(1024, 1);
  const std::vector<u8> multi_seg = value(4000, 2);
  const int put_status = indexed ? 201 : 200;

  http::Response r = request(http::Method::put, "one", one_seg);
  EXPECT_EQ(r.status, put_status);
  EXPECT_TRUE(r.body.empty());
  r = request(http::Method::put, "multi", multi_seg);
  EXPECT_EQ(r.status, put_status);
  EXPECT_TRUE(r.body.empty());
  EXPECT_EQ(srv.errors(), 0u);
  if (!indexed) {
    // raw_persist charges one copy per segment's share of the body: the
    // request stream is cut into kMss-byte segments, the first carrying
    // the head.
    http::Request req;
    req.method = http::Method::put;
    req.target = "/kv/multi";
    req.body = multi_seg;
    const std::size_t head = http::serialize(req).size() - multi_seg.size();
    const sim::CostModel cost;
    SimTime want = cost.copy_cost(one_seg.size());
    for (std::size_t at = head; at < head + multi_seg.size();) {
      const std::size_t end =
          std::min((at / net::kMss + 1) * net::kMss, head + multi_seg.size());
      want += cost.copy_cost(end - at);
      at = end;
    }
    EXPECT_EQ(srv.breakdown_sum().copy_ns, want);
    return;
  }

  u32 ingress = 0;
  for (u32 s = 0; s < server.datapaths(); s++) {
    if (srv.shard_requests(s) != 0) ingress = s;
  }
  EXPECT_EQ(srv.shard_requests(ingress), srv.ops());

  r = request(http::Method::get, "one");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, one_seg);
  r = request(http::Method::get, "multi");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, multi_seg);
  for (const auto& [key, v] : primed) {
    r = request(http::Method::get, key);
    EXPECT_EQ(r.status, 200) << key;
    EXPECT_EQ(r.body, v) << key;
  }
  if constexpr (obs::kEnabled) {
    if (cores > 1) {
      EXPECT_NE(std::count(primed_shard.begin(), primed_shard.end(), ingress),
                static_cast<long>(primed_shard.size()))
          << "no key was primed on a non-ingress shard";
    }
  }
  r = request(http::Method::get, "missing");
  EXPECT_EQ(r.status, 404);
  EXPECT_TRUE(r.body.empty());

  // DELETE erases on every shard: the multi-segment key on the ingress
  // shard, and every primed key wherever it landed.
  r = request(http::Method::del, "multi");
  EXPECT_EQ(r.status, 204);
  EXPECT_TRUE(r.body.empty());
  for (const auto& [key, v] : primed) {
    EXPECT_EQ(request(http::Method::del, key).status, 204) << key;
  }
  r = request(http::Method::del, "missing");
  EXPECT_EQ(r.status, backend == Backend::lsm ? 204 : 404);
  EXPECT_TRUE(r.body.empty());
  r = request(http::Method::get, "multi");
  EXPECT_EQ(r.status, 404);
  EXPECT_TRUE(r.body.empty());
  for (const auto& [key, v] : primed) {
    EXPECT_EQ(request(http::Method::get, key).status, 404) << key;
  }
  r = request(http::Method::get, "one");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, one_seg);
  EXPECT_EQ(srv.errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RequestPath,
    ::testing::Combine(::testing::Values(Backend::raw_persist, Backend::lsm,
                                         Backend::pktstore),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "core";
    });

// Range query end-to-end: prime keys through the harness-style server,
// then issue GET /scan/<from>/<to> on a raw connection and check the
// listing (the paper's "efficient range query support" property).
class ScanTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ScanTest, RangeQueryListsKeysInOrder) {
  sim::Env env;
  nic::Fabric fabric(env);
  HostConfig scfg;
  scfg.ip = 2;
  scfg.cores = 1;
  scfg.busy_poll = true;
  scfg.pm_backed = true;
  Host server(env, fabric, scfg);
  HostConfig ccfg;
  ccfg.ip = 1;
  ccfg.cores = 0;
  Host client(env, fabric, ccfg);

  ServerConfig sc;
  sc.backend = GetParam();
  KvServer srv(server, sc);

  net::TcpConn* conn = client.stack().connect(2, 9000);
  http::ResponseParser parser;
  std::optional<http::Response> last;
  conn->on_readable = [&](net::TcpConn& c) {
    std::vector<u8> buf(8192);
    std::size_t n;
    while ((n = c.read(buf)) > 0) {
      auto r = parser.feed(std::span<const u8>(buf.data(), n));
      if (r.has_value()) last = std::move(r);
    }
  };
  auto request = [&](http::Method m, std::string target, std::vector<u8> body) {
    last.reset();
    http::Request req;
    req.method = m;
    req.target = std::move(target);
    req.body = std::move(body);
    (void)conn->send(http::serialize(req));
    env.engine.run_until_idle();
    ASSERT_TRUE(last.has_value());
  };
  env.engine.run_until_idle();
  ASSERT_EQ(conn->state(), net::TcpState::established);

  for (const char* k : {"apple", "banana", "cherry", "date", "elderberry"}) {
    request(http::Method::put, std::string("/kv/") + k,
            std::vector<u8>(std::strlen(k), 'x'));
    ASSERT_EQ(last->status, 201);
  }
  // [banana, date): two keys, ordered.
  request(http::Method::get, "/scan/banana/date", {});
  ASSERT_EQ(last->status, 200);
  const std::string listing(last->body.begin(), last->body.end());
  EXPECT_EQ(listing, "banana\t6\ncherry\t6\n");
  // Unbounded upper end.
  request(http::Method::get, "/scan/date/", {});
  EXPECT_EQ(std::string(last->body.begin(), last->body.end()),
            "date\t4\nelderberry\t10\n");
}

INSTANTIATE_TEST_SUITE_P(Backends, ScanTest,
                         ::testing::Values(Backend::lsm, Backend::pktstore));

TEST(Harness, DeterministicForSeed) {
  const auto a = run_experiment(base_config(Backend::lsm));
  const auto b = run_experiment(base_config(Backend::lsm));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_DOUBLE_EQ(a.rtt.mean(), b.rtt.mean());
}

}  // namespace
}  // namespace papm::app
