// The benchmark's workloads. Each runs one pass and fills the Report:
// the untraced pass (args.trace == false) reports the end-to-end
// metrics, the traced pass the per-layer metrics.
#pragma once

#include <vector>

#include "report.h"

namespace perfbench {

void put_closed(const Args& args, Report& r);
void mixed_open(const Args& args, Report& r);
void crash_recover(const Args& args, Report& r);

// Replays a workload's requests and values through the real-code layer
// functions (HTTP request parse, CRC32C, Internet checksum) for about
// `seconds` of wall time. Reports the wall cost of each call next to the
// cost-model charge for the same operation (the model-vs-host table).
struct ReplayInput {
  std::vector<std::vector<papm::u8>> requests;  // serialized HTTP requests
  std::vector<std::vector<papm::u8>> values;    // value bytes
};
void replay_layers(const ReplayInput& in, double seconds, Report& r);

// Serialized HTTP PUT of `value` under "/kv/<key>", as the clients send.
std::vector<papm::u8> put_request(const std::string& key,
                                  const std::vector<papm::u8>& value);

}  // namespace perfbench
