// Shared pieces of the serving benchmark's load generator: the seeded
// request pool a workload cycles through, and the small utilities both the
// wire load generator (loadgen.cpp) and the in-process layer timer (layers.cpp) use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.h"
#include "net/wire.h"
#include "registry/epoch.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace servebench {

using namespace ropuf;

/// Requests in a workload's pool. Each connection cycles the whole pool
/// from its own offset; with 32768 entries a device's next request sits
/// thousands of lookups later, so a fleet larger than the 4096-entry cache
/// misses on every revisit while a 2048-device fleet always hits.
inline constexpr std::size_t kPoolSize = 32768;

// The fixed shape of every run; drive and layers echo these in their JSON.
/// Reactor shards of the server under test (`ropuf_serve --shards 2` in
/// run.py); the layer timer splits admission into as many slices.
inline constexpr std::size_t kShards = 2;
/// Generator connections, one closed-loop thread each.
inline constexpr std::size_t kConnections = 2;
/// Closed-loop authentications in flight per connection: enough to keep a
/// shard busy, so the closed loop measures the server's capacity rather
/// than how quickly the two processes wake each other (512 left the shards
/// idle a fifth of the time and doubled the run-to-run spread).
inline constexpr std::size_t kWindow = 2048;
/// Unmeasured warm-up at the start of every phase, in seconds.
inline constexpr double kWarmupS = 0.25;

/// The verdict a v1 request must receive (admission-free verify) and the
/// request itself, pre-encoded so the timed loops only copy bytes.
struct Pool {
  int protocol = 1;
  std::vector<service::AuthRequest> requests;   ///< v1
  std::vector<std::string> frames;              ///< v1 request frames
  std::vector<net::WireResponse> expected;      ///< v1 expected answers
  std::vector<service::ProofIntent> intents;    ///< v2

  std::size_t size() const {
    return protocol == 1 ? requests.size() : intents.size();
  }
  std::uint64_t device_at(std::size_t i) const {
    return protocol == 1 ? requests[i].device_id : intents[i].device_id;
  }
};

/// Builds the workload's pool. v1 pools carry the verdict every request
/// must get, from AuthService::verify on the same registry with the same
/// verification options the server runs (admission is not part of verify:
/// a denial is counted as a failure, not compared).
inline Pool make_pool(const registry::Registry& reg, const service::AuthService& reference,
                      int protocol, std::uint64_t seed) {
  Pool pool;
  pool.protocol = protocol;
  // The default request mix of WorkloadSpec: 1% bit flips, 5% forged, 2%
  // unknown ids.
  service::WorkloadSpec spec;
  spec.requests = kPoolSize;
  spec.seed = seed ^ 0x5e5e'bea7'0000'0001ull;
  if (protocol == 2) {
    pool.intents = service::synthesize_proof_workload(reg, spec);
    return pool;
  }
  pool.requests = service::synthesize_workload(reg, reference.options(), spec);
  pool.frames.reserve(pool.requests.size());
  pool.expected.reserve(pool.requests.size());
  for (const service::AuthRequest& request : pool.requests) {
    pool.frames.push_back(net::encode_request_frame(request));
    pool.expected.push_back(net::wire_response(reference.verify(request)));
  }
  return pool;
}

/// The service options the server derives from the same flags, minus
/// admission and the detector (the reference verdict is admission-free),
/// verifying inline like `ropuf_serve --threads 1`.
inline service::AuthServiceOptions reference_options(const cli::Args& args) {
  service::AuthServiceOptions opts = cli::auth_options_from_args(args);
  opts.admission = service::AdmissionOptions{};
  opts.detector.enabled = false;
  opts.threads = ThreadBudget(1);
  return opts;
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline bool same_response(const net::WireResponse& a, const net::WireResponse& b) {
  return a.status == b.status && a.distance == b.distance &&
         a.response_bits == b.response_bits;
}

/// Median of a sample (copied; the caller keeps its order).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]) of a sample, sorted in place.
inline double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  index = std::clamp<std::size_t>(index, 1, values.size());
  return values[index - 1];
}

/// Minimal JSON object writer for the result documents.
class JsonOut {
 public:
  void number(const std::string& key, double value) { field(key, format(value)); }
  void numbers(const std::string& key, const std::vector<double>& values) {
    std::string list;
    for (const double v : values) list += (list.empty() ? "" : ", ") + format(v);
    field(key, "[" + list + "]");
  }
  void integer(const std::string& key, std::uint64_t value) {
    field(key, std::to_string(value));
  }
  void text(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    field(key, quoted + "\"");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  /// A latency that includes a failed request is infinite; Python's json
  /// module reads the bare Infinity token.
  static std::string format(double value) {
    if (std::isinf(value)) return "Infinity";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  void field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

/// The in-process layer timer (layers.cpp): prints one JSON object of
/// per-call costs for the workload's exact request stream.
int run_layers(const cli::Args& args);

}  // namespace servebench
