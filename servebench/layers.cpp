// In-process layer timing for the serving benchmark's traced run.
//
// Replays the workload's exact request pool through each layer's public
// calls — the wire codec (net/wire.h), RegistrySnapshot::find and
// load_epoch_files, AuthService::verify_batch (in the server's 256-request
// batches) and verify_proof (one proof at a time, as the server calls it),
// AdmissionController::admit, StreamDetector::observe + penalty, and the
// auth:: key derivation and nonce factory — and prints
// one JSON object of per-call costs. Each cost is measured on one thread,
// without the other reactor shard competing for locks, allocator and CPU
// caches; that contention stays in the ladder's reactor remainder. Layers
// a workload does not exercise (admission without defenses, proofs on v1)
// report 0. run.py combines these with the server's own counters into the
// layer ladder.
#include <cstdio>
#include <functional>

#include "auth/auth.h"
#include "service/admission.h"
#include "service/detector.h"
#include "workload.h"

namespace servebench {
namespace {

/// Defeats dead-code elimination of timed results.
volatile std::size_t g_sink = 0;

/// Median over five rounds of the cost of one operation, in ns. `body`
/// performs `ops` operations per call; a round repeats it for a fifth of
/// `budget_s`, after one untimed warm-up call.
double ns_per_op(double budget_s, std::size_t ops, const std::function<void()>& body) {
  constexpr int kRounds = 5;
  body();
  std::vector<double> rounds;
  const auto round_ns = static_cast<std::int64_t>(budget_s / kRounds * 1e9);
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = now_ns();
    std::size_t calls = 0;
    std::int64_t elapsed = 0;
    do {
      body();
      ++calls;
      elapsed = now_ns() - t0;
    } while (elapsed < round_ns);
    rounds.push_back(static_cast<double>(elapsed) / static_cast<double>(calls * ops));
  }
  return median(rounds);
}

/// Walks the pool in fixed-size chunks, wrapping around.
class Cursor {
 public:
  Cursor(std::size_t size, std::size_t chunk) : size_(size), chunk_(chunk) {}
  template <class F>
  void each(F&& f) {
    for (std::size_t k = 0; k < chunk_; ++k) {
      f(next_);
      next_ = next_ + 1 == size_ ? 0 : next_ + 1;
    }
  }

 private:
  std::size_t size_;
  std::size_t chunk_;
  std::size_t next_ = 0;
};

net::FrameView extract(std::string_view bytes) {
  const net::ExtractResult got = net::try_extract_frame(bytes);
  ROPUF_REQUIRE(got.status == net::ExtractResult::Status::kFrame, "frame did not extract");
  return got.frame;
}

}  // namespace

int run_layers(const cli::Args& args) {
  const std::string path = args.get("registry", "");
  const int protocol = static_cast<int>(cli::count_arg(args, "protocol", 1));
  const std::uint64_t seed = cli::count_arg(args, "seed", 1);
  const double seconds = args.number("seconds", 2.0);
  ROPUF_REQUIRE(protocol == 1 || protocol == 2, "--protocol must be 1 or 2");

  const registry::EpochFileSet files = registry::load_epoch_files(path);
  const registry::EpochRegistry epochs(files.base, files.deltas);
  const service::AuthService reference(&epochs, reference_options(args));
  const Pool pool = make_pool(files.base, reference, protocol, seed);
  const std::size_t n = pool.size();

  // The serving configuration: ropuf_serve's options for the same flags,
  // verifying inline with one admission slice per reactor shard.
  service::AuthServiceOptions served = cli::auth_options_from_args(args);
  served.threads = ThreadBudget(1);
  served.admission_shards = kShards;

  constexpr int kMeasurements = 12;
  const double budget = seconds / kMeasurements;
  constexpr std::size_t kChunk = 1024;
  JsonOut json;

  // v2 exchanges as the server would see them: a nonce per request and the
  // prover's tag over it (all zeros when the prover holds no key).
  std::vector<service::ProofRequest> proofs;
  std::vector<net::WireResponse> proof_answers;
  if (protocol == 2) {
    auth::NonceFactory nonces(seed);
    for (const service::ProofIntent& intent : pool.intents) {
      service::ProofRequest request;
      request.request_id = intent.request_id;
      request.device_id = intent.device_id;
      request.nonce = nonces.next(intent.device_id, intent.request_id);
      if (intent.has_key) {
        request.tag = auth::prove(intent.key, request.nonce, request.request_id,
                                  request.device_id);
      }
      proofs.push_back(request);
    }
    for (const service::AuthVerdict& v : reference.verify_proof_batch(proofs)) {
      proof_answers.push_back(net::wire_response(v));
    }
  }

  // ---------------------------------------------------------- net.wire
  {
    Cursor c(n, kChunk);
    std::vector<std::string> request_frames;   // what the server decodes
    std::vector<std::string> response_frames;  // what the client decodes
    for (std::size_t i = 0; i < n; ++i) {
      if (protocol == 1) {
        request_frames.push_back(pool.frames[i]);
        response_frames.push_back(net::encode_response_frame(pool.expected[i]));
      } else {
        const service::ProofRequest& p = proofs[i];
        request_frames.push_back(net::encode_request_frame_v2(p.request_id, p.device_id) +
                                 net::encode_proof_frame(p.request_id, p.tag));
        response_frames.push_back(
            net::encode_challenge_frame(p.request_id, p.nonce) +
            net::encode_response_frame_v2(p.request_id, proof_answers[i]));
      }
    }
    // Per authentication: one v1 request/response, or the v2 request +
    // proof and challenge + response frame pairs.
    json.number("net.wire.encode_request_ns", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    if (protocol == 1) {
                      g_sink = g_sink + net::encode_request_frame(pool.requests[i]).size();
                    } else {
                      const service::ProofRequest& p = proofs[i];
                      g_sink = g_sink +
                               net::encode_request_frame_v2(p.request_id, p.device_id).size() +
                               net::encode_proof_frame(p.request_id, p.tag).size();
                    }
                  });
                }));
    json.number("net.wire.decode_request_ns", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    const std::string_view bytes = request_frames[i];
                    const net::FrameView first = extract(bytes);
                    if (protocol == 1) {
                      g_sink = g_sink + net::decode_request_payload(first.payload).device_id;
                    } else {
                      const net::FrameView second = extract(bytes.substr(first.frame_bytes));
                      g_sink = g_sink +
                               net::decode_request_payload_v2(first.payload).device_id +
                               net::decode_proof_payload(second.payload).tag[0];
                    }
                  });
                }));
    json.number("net.wire.encode_response_ns", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    if (protocol == 1) {
                      g_sink = g_sink + net::encode_response_frame(pool.expected[i]).size();
                    } else {
                      const service::ProofRequest& p = proofs[i];
                      g_sink = g_sink +
                               net::encode_challenge_frame(p.request_id, p.nonce).size() +
                               net::encode_response_frame_v2(p.request_id, proof_answers[i])
                                   .size();
                    }
                  });
                }));
    json.number("net.wire.decode_response_ns", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    const std::string_view bytes = response_frames[i];
                    const net::FrameView first = extract(bytes);
                    if (protocol == 1) {
                      g_sink = g_sink + net::decode_response_payload(first.payload).distance;
                    } else {
                      const net::FrameView second = extract(bytes.substr(first.frame_bytes));
                      g_sink = g_sink +
                               net::decode_challenge_payload(first.payload).nonce[0] +
                               net::decode_response_payload_v2(second.payload).request_id;
                    }
                  });
                }));
  }

  // ---------------------------------------------------------- registry
  {
    const std::shared_ptr<const registry::RegistrySnapshot> snapshot = epochs.snapshot();
    Cursor c(n, kChunk);
    json.number("registry.find_ns", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    g_sink = g_sink + snapshot->find(pool.device_at(i)).has_value();
                  });
                }));
    json.number("registry.load_ms", ns_per_op(budget, 1, [&]() {
                  g_sink = g_sink + registry::load_epoch_files(path).base.device_count();
                }) / 1e6);
  }

  // ----------------------------------------------------------- service
  constexpr std::size_t kBatch = 256;  // the server's max_batch
  if (protocol == 1) {
    const service::AuthService svc(&epochs, served);
    Cursor c(n, kBatch);
    std::vector<service::AuthRequest> batch;
    json.number("service.verify_batch_ns_per_req", ns_per_op(budget, kBatch, [&]() {
                  batch.clear();
                  c.each([&](std::size_t i) { batch.push_back(pool.requests[i]); });
                  g_sink = g_sink + svc.verify_batch(batch).size();
                }));
  } else {
    json.number("service.verify_batch_ns_per_req", 0.0);
  }
  if (protocol == 1 && served.admission.enabled()) {
    service::AdmissionController admission(served.admission);
    Cursor c(n, kChunk);
    json.number("service.admission_ns_per_req", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    const service::AuthRequest& r = pool.requests[i];
                    g_sink = g_sink + static_cast<std::size_t>(
                                          admission.admit(r.device_id, r.challenge));
                  });
                }));
  } else {
    json.number("service.admission_ns_per_req", 0.0);
  }
  if (protocol == 1 && served.detector.enabled) {
    service::StreamDetector detector(served.detector);
    Cursor c(n, kChunk);
    json.number("service.detector_ns_per_req", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    const service::AuthRequest& r = pool.requests[i];
                    const net::WireResponse& v = pool.expected[i];
                    service::StreamObservation observation;
                    observation.challenge = r.challenge;
                    observation.guess_weight = r.response.popcount();
                    observation.accepted = v.status == net::WireStatus::kAccept;
                    observation.answered =
                        observation.accepted || v.status == net::WireStatus::kReject;
                    observation.distance = static_cast<std::size_t>(v.distance);
                    g_sink = g_sink + detector.penalty(r.device_id).reuse_shift;
                    detector.observe(r.device_id, observation);
                  });
                }));
  } else {
    json.number("service.detector_ns_per_req", 0.0);
  }

  // -------------------------------------------------------------- auth
  if (protocol == 2) {
    // The server verifies each proof alone, as it arrives.
    const service::AuthService svc(&epochs, served);
    Cursor c(n, kChunk);
    json.number("auth.verify_proof_ns", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    g_sink = g_sink + svc.verify_proof(proofs[i]).distance;
                  });
                }));
    auth::NonceFactory nonces(seed);
    json.number("auth.nonce_ns", ns_per_op(budget, kChunk, [&]() {
                  c.each([&](std::size_t i) {
                    g_sink = g_sink + nonces.next(pool.intents[i].device_id, i)[0];
                  });
                }));
  } else {
    json.number("auth.verify_proof_ns", 0.0);
    json.number("auth.nonce_ns", 0.0);
  }
  {
    // The key derivation every cache fill of a provisioned record runs.
    std::vector<puf::ConfigurableEnrollment> enrolled;
    for (std::size_t i = 0; i < n && enrolled.size() < 256; ++i) {
      if (auto found = files.base.find(pool.device_at(i))) enrolled.push_back(*found);
    }
    Cursor c(enrolled.size(), enrolled.size());
    json.number("auth.key_derive_ns", ns_per_op(budget, enrolled.size(), [&]() {
                  c.each([&](std::size_t i) {
                    g_sink = g_sink + auth::derive_enrollment_key(enrolled[i]).has_value();
                  });
                }));
  }
  json.integer("shards", kShards);
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace servebench
