// Serving-layer extension: batched authentication throughput.
//
// Builds a fleet-scale registry (src/registry/), stands up the auth service
// (src/service/) and measures batched challenge-response verification
// throughput at thread budgets 1, 2 and 8 — the deployment knob a verifier
// operator actually turns. Two paths are measured:
//
//   warm  — the enrollment cache holds every requested device, so a request
//           costs one shard lookup plus the CRP comparison
//   cold  — the cache is disabled, so every request pays the full binary
//           record decode (the cost the LRU exists to elide)
//
// Shape checks: verdicts must be bit-identical across budgets (the
// determinism contract), and the warm path at 8 threads must clear 3x the
// single-thread throughput.
#include "bench_common.h"

#include <chrono>
#include <thread>

#include "common/table.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace {

using namespace ropuf;

constexpr std::size_t kDevices = 2048;
constexpr std::size_t kRequests = 16384;

const registry::Registry& fleet_registry() {
  static const registry::Registry reg = [] {
    registry::FleetSpec spec;
    spec.devices = kDevices;
    spec.stages = 5;
    spec.pairs = 64;
    spec.seed = 0x5ca1ab1e;
    return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
  }();
  return reg;
}

/// The single-epoch head every service in this bench verifies against.
const registry::EpochRegistry& fleet_epochs() {
  static const registry::EpochRegistry epochs(fleet_registry());
  return epochs;
}

service::AuthServiceOptions service_options(std::size_t threads, bool cached) {
  service::AuthServiceOptions options;
  options.response_bits = 32;
  options.max_distance = 4;
  options.cache_capacity = cached ? 4096 : 0;
  options.threads = ThreadBudget(threads);
  return options;
}

const std::vector<service::AuthRequest>& workload() {
  static const std::vector<service::AuthRequest> requests = [] {
    service::WorkloadSpec spec;
    spec.requests = kRequests;
    return service::synthesize_workload(fleet_registry(), service_options(1, true),
                                        spec);
  }();
  return requests;
}

double measure_verifications_per_sec(const service::AuthService& service) {
  const auto start = std::chrono::steady_clock::now();
  const auto verdicts = service.verify_batch(workload());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(verdicts.size()) / elapsed.count();
}

void run() {
  bench::banner("bench_auth_service",
                "serving extension - batched CRP verification throughput");

  std::printf("registry: %zu devices, %zu bytes   workload: %zu requests\n\n",
              fleet_registry().device_count(), fleet_registry().byte_size(),
              workload().size());

  TextTable table({"threads", "warm verif/s", "cold verif/s", "speedup (warm)"});
  double warm_single = 0.0, warm_eight = 0.0;
  std::uint64_t reference_digest = 0;
  bool deterministic = true;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const service::AuthService warm(&fleet_epochs(), service_options(threads, true));
    const service::AuthService cold(&fleet_epochs(), service_options(threads, false));
    // Warm-up pass fills the LRU (and surfaces first-touch costs once).
    const auto verdicts = warm.verify_batch(workload());
    const std::uint64_t digest = service::verdict_digest(verdicts);
    if (threads == 1) reference_digest = digest;
    if (digest != reference_digest) deterministic = false;

    const double warm_rate = measure_verifications_per_sec(warm);
    const double cold_rate = measure_verifications_per_sec(cold);
    if (threads == 1) warm_single = warm_rate;
    if (threads == 8) warm_eight = warm_rate;
    table.add_row({std::to_string(threads), TextTable::num(warm_rate / 1000.0, 1) + "k",
                   TextTable::num(cold_rate / 1000.0, 1) + "k",
                   TextTable::num(warm_rate / warm_single, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check (verdicts bit-identical across budgets): %s\n",
              deterministic ? "HOLDS" : "VIOLATED");
  // The scaling check needs the cores to exist: on a machine with fewer
  // than 8 hardware threads an 8-thread budget cannot beat wall-clock, so
  // the check reports the measured ratio without asserting.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 8) {
    std::printf("shape check (warm path >= 3x single-thread at 8 threads): %s "
                "(%.2fx)\n",
                warm_eight >= 3.0 * warm_single ? "HOLDS" : "VIOLATED",
                warm_eight / warm_single);
  } else {
    std::printf("shape check (warm path >= 3x single-thread at 8 threads): "
                "SKIPPED (%u hardware threads, measured %.2fx)\n",
                cores, warm_eight / warm_single);
  }
}

void bm_verify_batch_warm(benchmark::State& state) {
  const service::AuthService service(
      &fleet_epochs(),
      service_options(static_cast<std::size_t>(state.range(0)), true));
  service.verify_batch(workload());  // fill the cache outside the timing loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.verify_batch(workload()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRequests));
}
BENCHMARK(bm_verify_batch_warm)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void bm_verify_batch_cold(benchmark::State& state) {
  const service::AuthService service(
      &fleet_epochs(),
      service_options(static_cast<std::size_t>(state.range(0)), false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.verify_batch(workload()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRequests));
}
BENCHMARK(bm_verify_batch_cold)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void bm_registry_lookup(benchmark::State& state) {
  // The cold path's unit cost: binary search + one record decode.
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t id = fleet_registry().device_id_at(i++ % kDevices);
    benchmark::DoNotOptimize(fleet_registry().lookup(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_registry_lookup);

}  // namespace

int main(int argc, char** argv) { return ropuf::bench::bench_main(argc, argv, run); }
