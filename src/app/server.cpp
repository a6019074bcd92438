#include "app/server.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <map>
#include <stdexcept>

#include "obs/export.h"

namespace papm::app {

namespace {

// /trace/recent page size. Small by design: the page is assembled and
// sent on a datapath core, so its bytes (copy + per-segment tx) are the
// dominant term in the admin plane's p99 footprint — 32 spans is one
// scrape page, the full log belongs in the bench-exit trace file.
constexpr std::size_t kTraceRecentSpans = 32;

// Flight-recorder ring size per shard (ServerConfig::flight_recorder).
constexpr u32 kFlightrecRecords = 4096;

// In-place request-head parse over the first segment's payload: no copy,
// no allocation beyond the key string. Returns nullopt if the head is not
// complete or is malformed.
struct Head {
  http::Method method;
  std::string_view key;  // target without the leading "/kv/"
  std::size_t head_len;
  std::size_t body_len;
};

std::optional<Head> parse_head_inplace(std::string_view payload) {
  const std::size_t end = payload.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::nullopt;
  Head h{};
  h.head_len = end + 4;
  h.body_len = 0;

  const std::size_t line_end = payload.find("\r\n");
  const std::size_t sp1 = payload.find(' ');
  if (sp1 == std::string_view::npos || sp1 > line_end) return std::nullopt;
  const std::size_t sp2 = payload.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 > line_end) return std::nullopt;
  const std::string_view m = payload.substr(0, sp1);
  if (m == "PUT" || m == "POST") {
    h.method = http::Method::put;
  } else if (m == "GET") {
    h.method = http::Method::get;
  } else if (m == "DELETE") {
    h.method = http::Method::del;
  } else {
    h.method = http::Method::other;
  }
  std::string_view target = payload.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.starts_with("/kv/")) target.remove_prefix(4);
  h.key = target;

  // Content-Length, if present.
  std::size_t pos = line_end + 2;
  while (pos < end) {
    std::size_t eol = payload.find("\r\n", pos);
    if (eol == std::string_view::npos || eol > end) eol = end;
    const std::string_view line = payload.substr(pos, eol - pos);
    constexpr std::string_view kCl = "Content-Length:";
    if (line.size() > kCl.size() &&
        (line.starts_with(kCl) || line.starts_with("content-length:"))) {
      std::string_view v = line.substr(kCl.size());
      while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
      std::size_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      h.body_len = n;
    }
    pos = eol + 2;
  }
  return h;
}

std::string shard_name(std::string_view base, u32 shard) {
  return shard == 0 ? std::string(base)
                    : std::string(base) + ".s" + std::to_string(shard);
}

}  // namespace

KvServer::KvServer(Host& host, const ServerConfig& cfg)
    : host_(host), cfg_(cfg) {
  shards_.resize(host_.datapaths());
  for (u32 i = 0; i < host_.datapaths(); i++) {
    Shard& sh = shards_[i];
    switch (cfg.backend) {
      case Backend::discard:
        break;
      case Backend::raw_persist: {
        auto r = host_.pm_pool(i).alloc(kRawRegion);
        if (!r.ok()) throw std::runtime_error("KvServer: no PM for raw region");
        sh.raw_region = r.value();
        break;
      }
      case Backend::lsm: {
        // Carve a dedicated region for the store's own PM allocator, which
        // charges general-allocator prices (Table 1 alloc+insert row) —
        // unlike the packet pool's freelist prices. On a sharded host the
        // span adapts to the shard's slice of the device (never more than
        // half, so packet buffers keep room).
        constexpr u64 kStoreSpan = 192u << 20;
        const u64 carve =
            std::min<u64>(kStoreSpan, host_.pm_pool(i).capacity() / 2) /
            kCacheLine * kCacheLine;
        auto span = host_.pm_pool(i).alloc(carve);
        if (!span.ok()) throw std::runtime_error("KvServer: no PM for store");
        sh.store_pool = pm::PmPool::create(
            host_.pm_device(), shard_name("storepool", i),
            align_up(span.value(), kCacheLine), carve - kCacheLine);
        storage::LsmOptions o;
        o.knobs = cfg.knobs;
        o.use_wal = cfg.lsm_wal;
        sh.lsm = storage::LsmStore::create(host_.pm_device(), *sh.store_pool,
                                           shard_name("db", i), o);
        break;
      }
      case Backend::pktstore:
        sh.pktstore = core::PktStore::create(host_.pool(i),
                                             shard_name("store", i),
                                             cfg.pkt_opts);
        break;
    }
    // Group/epoch commit rides the stores' batcher hooks; raw_persist
    // persists through the batcher itself, so every persisting backend
    // holds its acks the same way (Figure 2 compares like with like).
    // The policy travels in StoreKnobs (pkt_opts carries no persistence
    // policy of its own).
    if (host_.pm_backed() && cfg.backend != Backend::discard) {
      sh.batcher.emplace(host_.pm_device(), cfg.knobs.group_commit);
      sh.batcher->register_pool(host_.pm_pool(i));
      if (sh.store_pool.has_value()) sh.batcher->register_pool(*sh.store_pool);
      if (sh.lsm.has_value()) sh.lsm->set_batcher(&*sh.batcher);
      if (sh.pktstore.has_value()) sh.pktstore->set_batcher(&*sh.batcher);
    }
    obs::MetricRegistry& reg = host_.metrics(i);
    sh.m_requests = &reg.counter("server.requests");
    sh.m_errors = &reg.counter("server.errors");
    sh.m_parsed = &reg.counter("http.requests_parsed");
    sh.m_req_ns = &reg.histogram("server.req_ns");
    if (sh.lsm.has_value()) sh.lsm->set_metrics(&reg);
    if (sh.pktstore.has_value()) sh.pktstore->set_metrics(&reg);
    // Telemetry plane (all runtime opt-in, compiled out with PAPM_OBS=OFF
    // so the flags are accepted but cost nothing — the kill-switch build
    // stays bit-identical even with the plane armed).
    if constexpr (obs::kEnabled) {
      if (cfg.trace_capacity != 0) {
        host_.trace(i).set_capacity(cfg.trace_capacity);
        host_.trace(i).set_dropped_counter(&reg.counter("obs.trace_dropped"));
      }
      if (cfg.admin) sh.m_admin = &reg.counter("admin.requests");
      if (cfg.flight_recorder && host_.pm_backed()) {
        auto fr = obs::FlightRecorder::create(
            host_.pm_device(), host_.pm_pool(i), static_cast<u16>(i),
            kFlightrecRecords);
        if (!fr.ok()) {
          throw std::runtime_error("KvServer: no PM for flight recorder");
        }
        sh.flightrec.emplace(std::move(fr.value()));
        if (sh.batcher.has_value()) sh.flightrec->set_batcher(&*sh.batcher);
        sh.flightrec->set_metrics(&reg);
      }
    }
    const Status st = host_.stack(i).listen(
        cfg.port, [this, i](net::TcpConn& c) { on_accept(c, i); });
    if (!st.ok()) throw std::runtime_error("KvServer: listen failed");
  }
}

void KvServer::on_accept(net::TcpConn& conn, u32 shard) {
  conns_[&conn].shard = shard;
  conn.on_readable = [this](net::TcpConn& c) { on_readable(c); };
  conn.on_closed = [this](net::TcpConn& c) {
    auto it = conns_.find(&c);
    if (it != conns_.end()) {
      for (const net::PktRange& r : it->second.segs) {
        net::PktBufPool::release(r.pb);
      }
      conns_.erase(it);
    }
  };
}

bool KvServer::try_parse_head(ConnState& st) {
  // The head must lie within the first segment (always true for the
  // paper's request sizes; requests are not pipelined).
  const auto payload = st.segs[0].bytes();
  const std::string_view view(reinterpret_cast<const char*>(payload.data()),
                              payload.size());
  auto& env = host_.env();
  const SimTime t0 = env.now();
  env.clock().advance(env.cost.scaled(env.cost.server_http_parse_ns));
  const auto head = parse_head_inplace(view);
  if (!head.has_value()) return false;
  st.parse_ts = t0;
  st.parse_dur = env.now() - t0;
  obs::inc(shards_[st.shard].m_parsed);
  st.head_parsed = true;
  st.method = head->method;
  st.key = std::string(head->key);
  st.head_len = head->head_len;
  st.body_len = head->body_len;
  return true;
}

Status KvServer::normalize_pkts(ConnState& st) {
  net::PktBufPool& pool = host_.pool(st.shard);
  auto& env = host_.env();
  for (net::PktRange& r : st.segs) {
    net::PktBuf* pb = r.pb;
    if (pb->owner == &pool) continue;
    net::PktBuf* np = pool.alloc(pb->len);
    if (np == nullptr) return Errc::out_of_space;
    env.clock().advance(env.cost.copy_cost(pb->len));
    u8* dst = pool.writable(*np, pb->len).data();
    if (pb->sliced()) {
      // Materialize contiguously in this shard's pool: header bytes from
      // the header block, payload from the slice. After a TCP trim,
      // payload_off can exceed the header block's capacity — headers are
      // never semantically read after parse, so copy what exists and
      // leave the gap zero-filled.
      const u32 hdr = std::min<u32>(pb->cap, pb->payload_off);
      std::memcpy(dst, pb->owner->arena().data(pb->data_h, hdr), hdr);
      const auto pl = pb->owner->payload(*pb);
      std::memcpy(dst + pb->payload_off, pl.data(), pl.size());
    } else {
      std::memcpy(dst, pb->owner->data(*pb), pb->len);
    }
    pool.arena().mark_dirty(np->data_h, pb->len);
    np->len = pb->len;
    np->tstamp = pb->tstamp;
    np->hw_tstamp = pb->hw_tstamp;
    np->wire_csum = pb->wire_csum;
    np->payload_csum = pb->payload_csum;
    np->csum_verified = pb->csum_verified;
    np->rss_hash = pb->rss_hash;
    np->rss_queue = static_cast<u16>(st.shard);
    np->l2_off = pb->l2_off;
    np->l3_off = pb->l3_off;
    np->l4_off = pb->l4_off;
    np->payload_off = pb->payload_off;
    np->l4_proto = pb->l4_proto;
    np->ip = pb->ip;
    np->tcp = pb->tcp;
    net::PktBufPool::release(pb);
    r.pb = np;  // same payload_off and length: the range's offsets hold
  }
  return Errc::ok;
}

void KvServer::on_flow_migrated(net::TcpConn& conn, u32 new_shard) {
  auto it = conns_.find(&conn);
  if (it == conns_.end() || new_shard >= shards_.size()) return;
  // Buffered segments keep their old-pool buffers until dispatch
  // normalizes them (pktstore) or reads them owner-routed (lsm/raw).
  it->second.shard = new_shard;
}

bool KvServer::prime(std::string_view key, std::span<const u8> value) {
  // Spread keys across shards with a seed-free FNV-1a so priming is
  // deterministic across runs and builds (std::hash makes no such
  // promise).
  u64 h = 1469598103934665603ull;
  for (const char c : key) h = (h ^ static_cast<u8>(c)) * 1099511628211ull;
  Shard& sh = shards_[h % shards_.size()];
  // Discard the charged store time: collect it into a scope the caller
  // never reads, so the global clock (and the shard cores) stay put.
  SimTime discarded = 0;
  const sim::Clock::Scope scope(host_.env().clock(), host_.env().now(),
                                &discarded);
  Status s = Errc::ok;
  switch (cfg_.backend) {
    case Backend::discard:
    case Backend::raw_persist:
      break;  // nothing to index; GETs are not served from these
    case Backend::lsm:
      s = sh.lsm->put(key, value, nullptr);
      break;
    case Backend::pktstore:
      s = sh.pktstore->put_bytes(key, value, nullptr);
      break;
  }
  return s.ok();
}

void KvServer::gate_release(const std::shared_ptr<ReplGate>& g) {
  if (!g->local || !g->remote || g->fired) return;
  g->fired = true;
  repl_gated_ops_++;
  // The tax is the wait *beyond local readiness*: without replication
  // the ack leaves at local_at (put done, or epoch committed under group
  // commit), so only the remote wait past that point is added latency.
  // Quorum acks that beat the local epoch commit cost nothing.
  const SimTime end = std::max(g->remote_at, g->local_at);
  if (g->remote_at > g->local_at) repl_tax_ns_ += g->remote_at - g->local_at;
  if (g->traced && end > g->local_at) {
    // The replication stage of this request: locally ready -> released.
    host_.trace(g->shard).record(g->req, obs::Stage::repl, g->local_at,
                                 end - g->local_at);
  }
  // The connection may have closed while its ack waited on the quorum.
  if (conns_.contains(g->conn)) respond(*g->conn, g->status);
}

void KvServer::close_epoch(u32 shard) {
  Shard& sh = shards_[shard];
  if (!sh.batcher.has_value() || !sh.batcher->epoch_open()) return;
  host_.cpu().run_on(shard, [&sh] { sh.batcher->close(); });
}

void KvServer::on_readable(net::TcpConn& conn) {
  auto it = conns_.find(&conn);
  if (it == conns_.end()) {
    // A rejected connection, closing: drop whatever it still sends.
    for (net::PktBuf* pb : conn.read_pkts()) net::PktBufPool::release(pb);
    return;
  }
  ConnState& st = it->second;

  for (net::PktBuf* pb : conn.read_pkts()) {
    if (st.segs.empty()) st.rx_start = pb->tstamp;  // NIC ingress stamp
    st.have_bytes += pb->payload_len();
    st.segs.push_back(net::payload_range(*pb));
  }
  if (st.segs.empty()) return;  // EOF signal: no request in flight
  if (!st.head_parsed && !try_parse_head(st)) {
    // The head must arrive whole and well-formed in the first segment
    // (DESIGN.md §10); later segments cannot complete it.
    count_error(shards_[st.shard]);
    respond(conn, 400);
    for (const net::PktRange& r : st.segs) net::PktBufPool::release(r.pb);
    conns_.erase(it);
    conn.close();
    return;
  }
  if (st.have_bytes < st.head_len + st.body_len) return;  // body incomplete
  dispatch(conn, st);
}

bool KvServer::admin_dispatch(net::TcpConn& conn, ConnState& st) {
  if (!obs::kEnabled || !cfg_.admin) return false;
  if (st.method != http::Method::get) return false;
  const bool trace_recent = st.key.starts_with("/trace/recent");
  if (st.key != "/stats" && st.key != "/metrics" && !trace_recent) {
    return false;
  }
  auto& env = host_.env();

  // Snapshot via the registries' associative merge — the datapath shards
  // are never locked or paused; the admin request pays for its own copy.
  std::string body;
  if (st.key == "/metrics") {
    body = obs::prometheus_text(host_.merged_metrics());
  } else if (trace_recent) {
    body = obs::trace_recent_json(host_.merged_trace(), kTraceRecentSpans);
  } else {
    const obs::MetricRegistry merged = host_.merged_metrics();
    body = "{\"now_ns\": " + std::to_string(env.now()) +
           ", \"ops\": " + std::to_string(ops_) +
           ", \"errors\": " + std::to_string(errors_) +
           ", \"admin_requests\": " + std::to_string(admin_requests_) +
           ", \"shards\": " + std::to_string(shards_.size()) +
           ", \"shard_requests\": [";
    for (std::size_t i = 0; i < shards_.size(); i++) {
      body += (i == 0 ? "" : ", ") + std::to_string(shards_[i].requests);
    }
    body += "], \"flightrec_records\": " + std::to_string(flightrec_records()) +
            ", \"flightrec_wraps\": " + std::to_string(flightrec_wraps()) +
            ", \"metrics\": " + merged.to_json() + "}";
  }
  // The snapshot assembly is real work on this shard's core — sequential
  // DRAM string building, charged at the streaming rate (a PM-copy rate
  // here would bill telemetry like datapath persistence and blow the
  // 1%-of-p99 admin budget on every /trace/recent hit).
  env.clock().advance(env.cost.stream_cost(body.size()));
  admin_requests_++;
  obs::inc(shards_[st.shard].m_admin);
  respond(conn, 200,
          std::span<const u8>(reinterpret_cast<const u8*>(body.data()),
                              body.size()));
  finish_request(conn, st);
  return true;
}

void KvServer::flight_record(ConnState& st, const storage::OpBreakdown& bd,
                             u64 req, int status) {
  Shard& sh = shards_[st.shard];
  if (!sh.flightrec.has_value()) return;
  const auto ns32 = [](SimTime ns) {
    return ns <= 0 ? 0u
                   : static_cast<u32>(std::min<SimTime>(ns, 0xffffffff));
  };
  obs::FlightRecord fr;
  fr.req = req;
  fr.t0_ns = static_cast<u64>(st.rx_start);
  fr.epoch = sh.batcher.has_value() && sh.batcher->batching()
                 ? sh.batcher->epoch_serial()
                 : 0;
  if (st.rx_start != 0 && st.parse_ts >= st.rx_start) {
    fr.stage_ns[static_cast<int>(obs::Stage::rx)] =
        ns32(st.parse_ts - st.rx_start);
  }
  fr.stage_ns[static_cast<int>(obs::Stage::parse)] =
      ns32(st.parse_dur) + ns32(bd.prep_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::checksum)] = ns32(bd.checksum_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::slice)] = ns32(bd.slice_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::copy)] = ns32(bd.copy_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::alloc_index)] =
      ns32(bd.alloc_insert_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::nic_insert)] =
      ns32(bd.nic_insert_ns);
  fr.stage_ns[static_cast<int>(obs::Stage::persist)] = ns32(bd.persist_ns);
  fr.result = static_cast<u16>(status);
  switch (st.method) {
    case http::Method::put: fr.op = 'P'; break;
    case http::Method::get: fr.op = 'G'; break;
    case http::Method::del: fr.op = 'D'; break;
    default: fr.op = '?'; break;
  }
  sh.flightrec->append(fr);
}

void KvServer::dispatch(net::TcpConn& conn, ConnState& st) {
  auto& env = host_.env();
  if (admin_dispatch(conn, st)) return;
  Shard& sh = shards_[st.shard];
  // Group-commit / cache-warmth regime: requests queued behind the core.
  const bool batched = host_.cpu().backlogged();
  if (sh.batcher.has_value()) {
    sh.batcher->begin_op(batched, static_cast<u64>(env.now()));
  }
  if (sh.lsm.has_value()) sh.lsm->set_batched(batched);
  if (sh.pktstore.has_value()) sh.pktstore->set_batched(batched);
  storage::OpBreakdown bd;

  // One Table-1 row per request: rx covers NIC ingress of the first
  // segment up to the head parse (TCP delivery, checksum verify, wakeup);
  // parse is the head-parse window recorded by try_parse_head.
  obs::TraceContext tr(env, cfg_.trace ? &host_.trace(st.shard) : nullptr,
                       next_req_++);
  if (tr.active()) {
    if (st.rx_start != 0 && st.parse_ts >= st.rx_start) {
      tr.record(obs::Stage::rx, st.rx_start, st.parse_ts - st.rx_start);
    }
    tr.record(obs::Stage::parse, st.parse_ts, st.parse_dur);
  }
  const SimTime t_backend = env.now();

  // discard and raw_persist index nothing: their GETs and DELETEs are
  // answered 200 without touching a store.
  const bool indexed = sh.lsm.has_value() || sh.pktstore.has_value();
  Reply reply;
  std::vector<net::PktRange> body;  // a PUT's value, over its segments
  switch (st.method) {
    case http::Method::put:
      // A request that spanned a flow migration holds segments from the
      // old shard's pool; pktstore re-homes them before its chain adopts
      // the data, so the body's ranges are taken after that.
      if (sh.pktstore.has_value() && !normalize_pkts(st).ok()) {
        reply.status = 507;
        break;
      }
      body = net::window(st.segs, st.head_len, st.body_len);
      reply.status = !put_body(sh, st, body, bd) ? 507 : indexed ? 201 : 200;
      break;
    case http::Method::get:
      if (indexed) reply = get_value(st, batched);
      break;
    case http::Method::del:
      if (indexed) reply.status = erase_everywhere(st.key);
      break;
    case http::Method::other:
      break;
  }
  if (reply.status == 507) count_error(sh);

  // Stitch the backend's OpBreakdown into contiguous stage spans laid out
  // from the backend-call start: the breakdown is a set of durations whose
  // sum never exceeds the elapsed backend time, so the stitched spans stay
  // inside [t_backend, now). prep lands on the parse stage (request
  // preparation — memtable key setup, WAL record framing).
  if (tr.active()) {
    SimTime at = t_backend;
    const auto emit = [&](obs::Stage s, SimTime d) {
      if (d != 0) {
        tr.record(s, at, d);
        at += d;
      }
    };
    emit(obs::Stage::parse, bd.prep_ns);
    emit(obs::Stage::checksum, bd.checksum_ns);
    emit(obs::Stage::slice, bd.slice_ns);
    emit(obs::Stage::copy, bd.copy_ns);
    emit(obs::Stage::alloc_index, bd.alloc_insert_ns);
    emit(obs::Stage::nic_insert, bd.nic_insert_ns);
    emit(obs::Stage::persist, bd.persist_ns);
  }

  // The request's flight-recorder row goes down *before* the ack path:
  // under group commit its publication rides the same epoch whose close
  // releases the ack, and in pass-through mode it persists before the
  // response — either way an acked op is always recoverable.
  if constexpr (obs::kEnabled) flight_record(st, bd, tr.req(), reply.status);

  // Durable mutations inside an open epoch ack only once the epoch's
  // fences retire (group commit's correctness condition); reads and
  // failures that never touched durable state respond immediately.
  const bool mutation =
      st.method == http::Method::put || st.method == http::Method::del;
  const bool defer_ack =
      mutation && sh.batcher.has_value() && sh.batcher->batching();
  // Only pktstore replicates, and only a mutation that succeeded: a
  // stored PUT (201) or a DELETE that found the key (204).
  const bool replicate = repl_ != nullptr &&
                         cfg_.backend == Backend::pktstore &&
                         (reply.status == 201 || reply.status == 204);
  {
    auto tx_span = tr.span(obs::Stage::tx);
    if (reply.hit.shard != nullptr) {
      respond_value_zero_copy(conn, reply.hit);
    } else if (replicate) {
      // Quorum-gated ack: the client hears 201/204 only once the write
      // is locally durable AND a quorum of hosts holds it (or the
      // degrade deadline released it as a counted local-only ack).
      auto gate = std::make_shared<ReplGate>();
      gate->conn = &conn;
      gate->status = reply.status;
      gate->shard = st.shard;
      gate->req = tr.req();
      gate->traced = tr.active();
      if (defer_ack) {
        sh.batcher->on_committed([this, gate] {
          gate->local = true;
          gate->local_at = host_.env().now();
          gate_release(gate);
        });
      } else {
        gate->local = true;
        gate->local_at = env.now();
      }
      auto done = [this, gate](bool /*degraded*/) {
        gate->remote = true;
        gate->remote_at = host_.env().now();
        gate_release(gate);
      };
      // Traced requests carry their id across the wire so the replica's
      // apply span stitches into the same Perfetto trace.
      const u64 trace_id = tr.active() ? tr.req() : 0;
      if (st.method == http::Method::put) {
        // Forward the same packets' value ranges, refcounted — the
        // replicas receive the bytes the client's segments carried.
        repl_->submit_put(st.key, repl::gather_from_pkts(body),
                          static_cast<u32>(st.body_len), host_.pool(st.shard),
                          std::move(done), trace_id);
      } else {
        repl_->submit_erase(st.key, std::move(done), trace_id);
      }
      gate_release(gate);  // quorum=1 resolves synchronously
    } else if (defer_ack) {
      net::TcpConn* c = &conn;
      sh.batcher->on_committed(
          [this, c, status = reply.status, body = std::move(reply.body)] {
            // The connection may have closed while its ack was queued.
            if (conns_.contains(c)) respond(*c, status, body);
          });
    } else {
      respond(conn, reply.status, reply.body);
    }
  }
  if (sh.batcher.has_value()) {
    sh.batcher->end_op();
    // An epoch left open closes as pinned work on the shard's core: at its
    // deadline, or once the burst drained.
    const auto close = [this, shard = st.shard] { close_epoch(shard); };
    sh.batcher->arm_deadline_check(close);
    sh.batcher->arm_drain_check(close);
  }
  ops_++;
  sh.requests++;
  obs::inc(sh.m_requests);
  if (st.rx_start != 0) obs::observe(sh.m_req_ns, env.now() - st.rx_start);
  breakdown_sum_ += bd;
  finish_request(conn, st);
}

void KvServer::finish_request(net::TcpConn& conn, ConnState& st) {
  for (const net::PktRange& r : st.segs) net::PktBufPool::release(r.pb);
  ConnState fresh;
  fresh.shard = st.shard;
  std::swap(conns_[&conn], fresh);
}

void KvServer::count_error(Shard& sh) {
  errors_++;
  obs::inc(sh.m_errors);
}

// Stores a PUT's body on the ingress shard (write-local); false when the
// backend had no room.
bool KvServer::put_body(Shard& sh, const ConnState& st,
                        std::span<const net::PktRange> body,
                        storage::OpBreakdown& bd) {
  switch (cfg_.backend) {
    case Backend::discard:
      return true;
    case Backend::raw_persist: {
      // The Fig. 2 "simple application that copies and persists data in
      // the PM region": one copy per segment's share of the body, one
      // flush, no structure.
      auto& env = host_.env();
      if (sh.raw_off + st.body_len > kRawRegion) sh.raw_off = 0;
      const u64 region = sh.raw_region + sh.raw_off;
      u64 at = region;
      const SimTime t0 = env.now();
      for (const net::PktRange& r : body) {
        env.clock().advance(env.cost.copy_cost(r.len));
        host_.pm_device().store(at, r.bytes());
        at += r.len;
      }
      bd.copy_ns += env.now() - t0;
      const SimTime t1 = env.now();
      sh.batcher->persist(region, st.body_len);
      bd.persist_ns += env.now() - t1;
      sh.raw_off += align_up(st.body_len, kCacheLine);
      return true;
    }
    case Backend::lsm:
      // A body in one segment goes to the store as a view (its internal
      // copy is the Table 1 copy row); one over several is gathered first.
      return (body.size() == 1
                  ? sh.lsm->put(st.key, body[0].bytes(), &bd)
                  : sh.lsm->put(st.key, net::flatten(body), &bd))
          .ok();
    case Backend::pktstore:
      // Zero-copy ingest: the chain adopts the body's ranges.
      return sh.pktstore->put_pkts(st.key, body, &bd).ok();
  }
  return true;
}

// GET routing: probes shard `home` (the ingress shard, where RSS flow
// affinity puts the key's PUTs from this client, so it hits in the common
// case), then the others in index order, which keep reads correct when
// another connection wrote the key. Returns the first shard whose
// probe(shard) result is not a miss (a hit or an error) with that result,
// or null and the miss.
template <typename Probe>
auto KvServer::probe_shards(u32 home, Probe&& probe) {
  const auto found = [](const auto& r) {
    return r.ok() || r.errc() != Errc::not_found;
  };
  auto r = probe(shards_[home]);
  if (found(r)) return std::pair{&shards_[home], std::move(r)};
  for (u32 i = 0; i < shards_.size(); i++) {
    if (i == home) continue;
    auto other = probe(shards_[i]);
    if (found(other)) return std::pair{&shards_[i], std::move(other)};
  }
  return std::pair{static_cast<Shard*>(nullptr), std::move(r)};
}

// GET: a scan listing, or the key's value from the first shard holding it.
KvServer::Reply KvServer::get_value(const ConnState& st, bool batched) {
  Reply reply;
  if (st.key.starts_with("/scan/")) {
    reply.body = scan_response(st.key);
    return reply;
  }
  const auto miss_status = [](Errc e) { return e == Errc::not_found ? 404 : 500; };
  if (cfg_.backend == Backend::lsm) {
    // lsm sets a shard's warm flag before probing it.
    auto v = probe_shards(st.shard, [&](Shard& s) {
               s.lsm->set_batched(batched);
               return s.lsm->get(st.key);
             }).second;
    if (v.ok()) {
      reply.body = std::move(v.value());
    } else {
      reply.status = miss_status(v.errc());
    }
    return reply;
  }
  // pktstore probes a shard with whatever warm flag it last had, and sets
  // the flag only on the shard that holds the key, after the probe.
  auto [shard, head] = probe_shards(
      st.shard, [&](Shard& s) { return s.pktstore->find(st.key); });
  if (!head.ok()) {
    reply.status = miss_status(head.errc());
    return reply;
  }
  shard->pktstore->set_batched(batched);
  reply.hit = {shard, head.value()};
  return reply;
}

// DELETE erases on every shard: a key written through two ingress shards
// has a copy in each.
int KvServer::erase_everywhere(std::string_view key) {
  bool any = false;
  for (Shard& s : shards_) {
    any |= s.lsm.has_value() ? s.lsm->erase(key).ok() : s.pktstore->erase(key);
  }
  // An lsm erase succeeds whether or not the key was there, so only a
  // failure on every shard answers 500; pktstore reports absence: 404.
  return any ? 204 : cfg_.backend == Backend::lsm ? 500 : 404;
}

std::vector<u8> KvServer::scan_response(std::string_view target) {
  // Range query (the §3 "efficient range query support" property):
  // target is "/scan/<from>/<to>"; the response lists "key<TAB>len" lines
  // for up to kMaxScan keys in [from, to). On a sharded store the
  // per-shard iterators are merged in key order with duplicates (the same
  // key written via two ingress cores) collapsed — each shard contributes
  // at most kMaxScan candidates, so the global cut is exact.
  constexpr std::size_t kMaxScan = 100;
  target.remove_prefix(6);  // "/scan/"
  const std::size_t slash = target.find('/');
  const std::string_view from = target.substr(0, slash);
  const std::string_view to =
      slash == std::string_view::npos ? std::string_view{}
                                      : target.substr(slash + 1);
  std::map<std::string, u64> merged;
  for (auto& sh : shards_) {
    std::size_t n = 0;
    auto collect = [&](std::string_view key, u64 len) {
      merged.emplace(std::string(key), len);
      return ++n < kMaxScan;
    };
    if (sh.lsm.has_value()) {
      sh.lsm->scan(from, to, [&](std::string_view k, std::span<const u8> v) {
        return collect(k, v.size());
      });
    } else if (sh.pktstore.has_value()) {
      sh.pktstore->scan(
          from, to, [&](std::string_view k, const core::PktStore::ValueMeta& m) {
            return collect(k, m.len);
          });
    }
  }
  std::string out;
  std::size_t n = 0;
  for (const auto& [key, len] : merged) {
    out += key;
    out += '\t';
    out += std::to_string(len);
    out += '\n';
    if (++n >= kMaxScan) break;
  }
  return {out.begin(), out.end()};
}

void KvServer::respond(net::TcpConn& conn, int status,
                       std::span<const u8> body) {
  auto& env = host_.env();
  env.clock().advance(env.cost.scaled(env.cost.server_http_build_ns));
  http::Response resp;
  resp.status = status;
  resp.body.assign(body.begin(), body.end());
  (void)conn.send(http::serialize(resp));
}

void KvServer::respond_value_zero_copy(net::TcpConn& conn, const PktHit& hit) {
  auto& env = host_.env();
  env.clock().advance(env.cost.scaled(env.cost.server_http_build_ns));
  const core::PktStore& store = *hit.shard->pktstore;
  const std::string head = "HTTP/1.1 200 OK\r\nContent-Length: " +
                           std::to_string(store.value_len(hit.head)) +
                           "\r\n\r\n";
  // The head rides in the first segment; the value leaves as frags over
  // the stored buffers, zero copy (§4.2).
  auto pkts = store.get_as_pkts(
      hit.head, std::span<const u8>(reinterpret_cast<const u8*>(head.data()),
                                    head.size()));
  if (!pkts.ok()) {
    count_error(*hit.shard);
    respond(conn, 500);
    return;
  }
  for (net::PktBuf* pb : pkts.value()) (void)conn.send_pkt(pb);
}

}  // namespace papm::app
