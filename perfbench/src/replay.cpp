// Layer replays: a workload's own requests and values pushed through the
// real-code layer functions, timed on the wall clock and printed next to
// the cost-model charge the simulator books for the same operation.
#include <cstdio>

#include "common/crc32c.h"
#include "common/inet_csum.h"
#include "http/http.h"
#include "sim/cost_model.h"
#include "workloads.h"

namespace perfbench {

using namespace papm;

std::vector<u8> put_request(const std::string& key,
                            const std::vector<u8>& value) {
  http::Request req;
  req.method = http::Method::put;
  req.target = "/kv/" + key;
  req.body = value;
  return http::serialize(req);
}

namespace {

// Wall ns per call of `fn` over every item, one sample per round.
template <typename Fn>
double ns_per_call(std::size_t items, Fn&& fn) {
  const double t0 = wall_s();
  for (std::size_t i = 0; i < items; i++) fn(i);
  return (wall_s() - t0) * 1e9 / static_cast<double>(items);
}

}  // namespace

void replay_layers(const ReplayInput& in, double seconds, Report& r) {
  std::vector<double> parse_ns, crc_ns, csum_ns;
  std::size_t value_bytes = 0;
  for (const auto& v : in.values) value_bytes += v.size();
  const double kb_per_value =
      static_cast<double>(value_bytes) / 1024.0 / static_cast<double>(in.values.size());
  u64 sink = 0;
  const double end = wall_s() + seconds;
  do {
    parse_ns.push_back(ns_per_call(in.requests.size(), [&](std::size_t i) {
      http::RequestParser p;
      const auto req = p.feed(in.requests[i]);
      sink += req.has_value() ? req->body.size() : 0;
    }));
    crc_ns.push_back(ns_per_call(in.values.size(), [&](std::size_t i) {
      sink += crc32c(in.values[i]);
    }) / kb_per_value);
    csum_ns.push_back(ns_per_call(in.values.size(), [&](std::size_t i) {
      sink += inet_checksum(in.values[i]);
    }) / kb_per_value);
  } while (wall_s() < end);
  r.info("replay_sink", static_cast<double>(sink % 1000));  // keeps the calls live

  const sim::CostModel cost;
  const double parse = median(parse_ns), crc = median(crc_ns),
               csum = median(csum_ns);
  char line[160];
  r.note("model vs host (layer replays, wall ns on this host vs cost-model charge):");
  std::snprintf(line, sizeof line, "  %-34s %12s %12s %8s", "operation",
                "host_ns", "model_ns", "model/host");
  r.note(line);
  const auto row = [&](const char* op, double host, double model) {
    std::snprintf(line, sizeof line, "  %-34s %12.1f %12.1f %8.2f", op, host,
                  model, model / host);
    r.note(line);
  };
  row("http request parse (per request)", parse,
      static_cast<double>(cost.server_http_parse_ns));
  row("crc32c (per KB)", crc, static_cast<double>(cost.crc32c_cost(1024)));
  row("inet checksum (per KB)", csum,
      static_cast<double>(cost.inet_csum_cost(1024)));

  r.metric("http.parse_wall_ns", parse, "ns");
  r.samples("http.parse_wall_ns", parse_ns.size());
  r.metric("common.crc32c_wall_ns_per_kb", crc, "ns");
  r.samples("common.crc32c_wall_ns_per_kb", crc_ns.size());
  r.metric("common.inet_csum_wall_ns_per_kb", csum, "ns");
  r.samples("common.inet_csum_wall_ns_per_kb", csum_ns.size());
}

}  // namespace perfbench
