#include "soak/soak.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "attack/harvest.h"
#include "auth/auth.h"
#include "common/error.h"
#include "common/rng.h"
#include "net/client.h"
#include "puf/crp.h"
#include "puf/measurement.h"
#include "silicon/environment.h"

namespace ropuf::soak {
namespace {

/// One legitimate prover: a minted device wired for live responses.
struct Prover {
  std::uint64_t device_id = 0;
  const sil::Chip* chip = nullptr;
  const puf::ConfigurableEnrollment* enrollment = nullptr;
  puf::CrpOracle oracle;
  Rng noise_rng;

  Prover(std::uint64_t id, const sil::Chip* c,
         const puf::ConfigurableEnrollment* e, std::size_t bits, Rng rng)
      : device_id(id), chip(c), enrollment(e), oracle(e, bits), noise_rng(rng) {}
};

/// Trains a fresh logistic clone on the harvest so far and scores it on
/// fresh challenges. Coin-flip by definition while nothing was harvested.
double checkpoint_accuracy(const attack::DistanceOracleHarvester& harvester,
                           const puf::ConfigurableEnrollment& enrollment,
                           const SoakOptions& options) {
  if (harvester.harvested().empty()) return 0.5;  // nothing to train on yet
  attack::LogisticModel model;
  Rng fit_rng(options.seed ^ 0xf17c10ull);
  model.fit(harvester.training_set(), options.fit, fit_rng);
  return attack::clone_accuracy(model, enrollment, options.service.response_bits,
                                options.eval_challenges, options.seed ^ 0xe5a1ull);
}

}  // namespace

SoakReport run_soak(const SoakOptions& options) {
  ROPUF_REQUIRE(options.slots > 0, "soak needs at least one slot");
  ROPUF_REQUIRE(options.burst_requests > 0, "burst_requests must be positive");
  ROPUF_REQUIRE(options.eval_challenges > 0, "eval_challenges must be positive");
  ROPUF_REQUIRE(options.fleet.devices >= 2,
                "soak needs the attacked device plus at least one legitimate one");
  ROPUF_REQUIRE(options.protocol == net::kWireVersion ||
                    options.protocol == net::kWireVersionV2,
                "soak protocol must be 1 or 2");

  // ---- mint the fleet with silicon kept, build the served registry.
  std::vector<registry::MintedDevice> minted =
      registry::mint_fleet_with_chips(options.fleet);
  registry::RegistryBuilder builder;
  for (const registry::MintedDevice& device : minted) {
    builder.add(device.device_id, device.enrollment);
  }
  const registry::Registry reg = registry::Registry::from_bytes(builder.build());

  const registry::EpochRegistry epochs(reg);
  const service::AuthService svc(&epochs, options.service);
  net::ServerOptions server_options = options.server;
  net::AuthServer server(&svc, server_options);
  const std::uint16_t port = server.bind_and_listen();
  std::thread server_thread([&server] { server.run(); });

  SoakReport report;
  try {
    const std::size_t bits =
        std::min(options.service.response_bits, options.fleet.pairs);

    // ---- the adversary: a distance-oracle harvester on its own connection,
    // targeting the first minted device.
    const registry::MintedDevice& target = minted.front();
    report.target_device = target.device_id;
    // Always the evasive wrapper: at the default attacker_decoys = 0 it is
    // a pure pass-through (byte-identical probe stream to the plain
    // harvester), and > 0 turns on low-and-slow decoy interleaving.
    attack::EvasiveOptions evasion;
    evasion.decoys_per_probe = options.attacker_decoys;
    attack::EvasiveHarvester harvester(target.device_id, bits,
                                       options.fleet.pairs,
                                       options.seed ^ 0xa77ac4ull, evasion);
    net::ClientOptions attacker_options;
    attacker_options.port = port;
    net::AuthClient attacker(attacker_options);
    attacker.connect();

    // ---- legitimate provers over the rest of the fleet, one persistent
    // pipelined connection. Noise streams fork serially in device order.
    Rng noise_base(options.seed ^ 0x1e917ull);
    std::vector<Prover> provers;
    provers.reserve(minted.size() - 1);
    for (std::size_t d = 1; d < minted.size(); ++d) {
      provers.emplace_back(minted[d].device_id, &minted[d].chip,
                           &minted[d].enrollment, bits, noise_base.fork());
    }
    net::ClientOptions legit_options;
    legit_options.port = port;
    legit_options.window = std::min<std::size_t>(options.burst_requests,
                                                 server_options.max_pending);
    net::AuthClient legit(legit_options);
    legit.connect();

    puf::UnitMeasurementSpec measurement;
    measurement.noise_sigma_ps = options.readout_noise_ps;
    Rng challenge_rng(options.seed ^ 0xc4a11ull);

    const std::vector<sil::OperatingPoint>& corners = sil::vt_corner_schedule();
    const std::size_t checkpoint_count = std::min(options.checkpoints, options.slots);
    const std::size_t checkpoint_stride =
        checkpoint_count == 0 ? 0 : options.slots / checkpoint_count;

    std::vector<service::AuthRequest> admitted_requests;
    std::vector<service::ProofRequest> admitted_proofs;
    std::vector<service::AuthVerdict> online_verdicts;
    std::size_t legit_cursor = 0;

    // ---- protocol v2 plumbing: negotiated connections, one shared request
    // id stream, and the closed-loop request/challenge/proof/response round
    // both traffic sources drive.
    const bool v2 = options.protocol == net::kWireVersionV2;
    if (v2) {
      ROPUF_REQUIRE(attacker.negotiate() == net::kWireVersionV2,
                    "soak server failed to pin protocol v2");
      ROPUF_REQUIRE(legit.negotiate() == net::kWireVersionV2,
                    "soak server failed to pin protocol v2");
    }
    std::uint64_t next_rid = 1;
    std::string replay_frame;  ///< newest accepted proof, verbatim bytes

    struct V2Outcome {
      net::WireResponse response;
      auth::Nonce nonce{};
      auth::Tag tag{};
      std::string proof_frame;
    };
    const auto v2_round = [](net::AuthClient& client, std::uint64_t rid,
                             std::uint64_t device_id,
                             const std::optional<crypto::Sha256Digest>& key) {
      client.send_raw(net::encode_request_frame_v2(rid, device_id));
      const net::AuthClient::RawFrame challenge_frame = client.recv_frame();
      ROPUF_REQUIRE(challenge_frame.type == net::FrameType::kAuthChallenge,
                    "soak expected a v2 challenge");
      const net::ChallengePayload challenge =
          net::decode_challenge_payload(challenge_frame.payload);
      ROPUF_REQUIRE(challenge.request_id == rid,
                    "challenge for the wrong request id");
      V2Outcome outcome;
      outcome.nonce = challenge.nonce;
      outcome.tag = key ? auth::prove(*key, challenge.nonce, rid, device_id)
                        : auth::Tag{};
      outcome.proof_frame = net::encode_proof_frame(rid, outcome.tag);
      client.send_raw(outcome.proof_frame);
      const net::AuthClient::RawFrame response_frame = client.recv_frame();
      ROPUF_REQUIRE(response_frame.type == net::FrameType::kAuthResponse &&
                        response_frame.version == net::kWireVersionV2,
                    "soak expected a v2 response");
      const net::V2Response answer =
          net::decode_response_payload_v2(response_frame.payload);
      ROPUF_REQUIRE(answer.request_id == rid, "response for the wrong request id");
      outcome.response = answer.response;
      return outcome;
    };

    for (std::size_t slot = 0; slot < options.slots; ++slot) {
      // -- attacker volley: strictly closed loop, one probe in flight.
      if (v2) {
        // Same cadence, starved oracle: the attacker spends its probes on
        // challenges it cannot answer, and the verdicts carry no distance —
        // there is nothing to feed the harvester, so its model never moves
        // off the coin flip.
        for (std::size_t p = 0; p < options.attacker_probes_per_slot; ++p) {
          v2_round(attacker, next_rid++, target.device_id, std::nullopt);
          ++report.attacker_probes;
        }
      } else {
        for (std::size_t p = 0; p < options.attacker_probes_per_slot; ++p) {
          const attack::Probe probe = harvester.next_probe();
          service::AuthRequest request;
          request.device_id = probe.device_id;
          request.challenge = probe.challenge;
          request.response = probe.guess;
          const net::WireResponse response = attacker.send_request(request);
          ++report.attacker_probes;
          switch (response.status) {
            case net::WireStatus::kAccept:
            case net::WireStatus::kReject:
              harvester.answered(static_cast<std::size_t>(response.distance));
              break;
            case net::WireStatus::kRateLimited:
            case net::WireStatus::kOverloaded:
              harvester.deferred();
              break;
            default:
              // Budget exhausted (or any other terminal answer): drop the
              // challenge and try a fresh one — the budgets deplete separately.
              harvester.abandoned();
              break;
          }
        }
      }

      // -- legitimate burst: live responses measured at the slot's corner.
      // The schedule walks nominal -> voltage corners -> temperature
      // corners across the run, so drift arrives mid-soak.
      const sil::OperatingPoint corner =
          corners[slot * corners.size() / options.slots];
      if (v2) {
        for (std::size_t r = 0; r < options.burst_requests; ++r) {
          Prover& prover = provers[legit_cursor++ % provers.size()];
          // Rep on a live re-measurement: the full per-pair response at the
          // slot's corner, corrected back to the enrollment key (or not,
          // past the code's radius — then the prover fails honestly).
          const std::vector<double> values = puf::measure_unit_ddiffs(
              *prover.chip, corner, measurement, prover.noise_rng);
          const BitVec noisy =
              puf::configurable_respond(values, *prover.enrollment);
          const std::optional<crypto::Sha256Digest> key =
              auth::recover_key(noisy, *prover.enrollment);
          const std::uint64_t rid = next_rid++;
          const V2Outcome outcome = v2_round(legit, rid, prover.device_id, key);
          ++report.legit_requests;
          if (outcome.response.status == net::WireStatus::kOverloaded) {
            ++report.legit_denied;
            continue;
          }
          ++report.legit_answered;
          if (outcome.response.accepted()) {
            ++report.legit_accepted;
            replay_frame = outcome.proof_frame;
          }
          service::ProofRequest proof;
          proof.request_id = rid;
          proof.device_id = prover.device_id;
          proof.nonce = outcome.nonce;
          proof.tag = outcome.tag;
          admitted_proofs.push_back(proof);
          online_verdicts.push_back(net::auth_verdict(outcome.response));
        }

        // -- replay probe: the newest accepted proof, byte-identical. Its
        // session was consumed when it verified, so kReject is the only
        // correct answer.
        if (!replay_frame.empty()) {
          legit.send_raw(replay_frame);
          const net::AuthClient::RawFrame frame = legit.recv_frame();
          ROPUF_REQUIRE(frame.type == net::FrameType::kAuthResponse &&
                            frame.version == net::kWireVersionV2,
                        "soak expected a v2 response to a replay");
          const net::V2Response answer =
              net::decode_response_payload_v2(frame.payload);
          ++report.replay_probes;
          if (answer.response.status == net::WireStatus::kReject) {
            ++report.replay_rejected;
          }
          replay_frame.clear();
        }
      } else {
        std::vector<service::AuthRequest> burst;
        burst.reserve(options.burst_requests);
        for (std::size_t r = 0; r < options.burst_requests; ++r) {
          Prover& prover = provers[legit_cursor++ % provers.size()];
          service::AuthRequest request;
          request.device_id = prover.device_id;
          request.challenge = challenge_rng.next_u64();
          const std::vector<double> values = puf::measure_unit_ddiffs(
              *prover.chip, corner, measurement, prover.noise_rng);
          request.response = prover.oracle.respond(request.challenge, values);
          burst.push_back(std::move(request));
        }
        const std::vector<net::WireResponse> responses = legit.send_batch(burst);
        report.legit_requests += burst.size();
        for (std::size_t r = 0; r < responses.size(); ++r) {
          const net::WireResponse& response = responses[r];
          if (net::wire_status_is_transport(response.status) ||
              response.status == net::WireStatus::kRateLimited ||
              response.status == net::WireStatus::kBudgetExhausted) {
            ++report.legit_denied;
            continue;
          }
          ++report.legit_answered;
          if (response.accepted()) ++report.legit_accepted;
          admitted_requests.push_back(burst[r]);
          online_verdicts.push_back(net::auth_verdict(response));
        }
      }

      // -- checkpoint: train on the harvest so far, score on fresh CRPs.
      // Under v2 the harvest is empty by construction, so every checkpoint
      // sits at the coin flip — the defense the soak is pinning.
      if (checkpoint_stride > 0 && (slot + 1) % checkpoint_stride == 0 &&
          report.checkpoints.size() < checkpoint_count) {
        SoakCheckpoint checkpoint;
        checkpoint.slot = slot;
        checkpoint.attacker_admitted = harvester.core().admitted();
        checkpoint.bits_recovered = harvester.core().harvested().size();
        checkpoint.clone_accuracy =
            checkpoint_accuracy(harvester.core(), target.enrollment, options);
        report.checkpoints.push_back(checkpoint);
      }
    }

    attacker.close();
    legit.close();

    report.availability =
        report.legit_requests == 0
            ? 0.0
            : static_cast<double>(report.legit_answered) /
                  static_cast<double>(report.legit_requests);
    report.attacker_admitted = harvester.core().admitted();
    report.attacker_deferred = harvester.core().deferrals();
    report.attacker_abandoned = harvester.core().abandoned_challenges();
    report.bits_recovered = harvester.core().harvested().size();
    report.challenges_recovered = harvester.core().challenges_recovered();
    report.attacker_decoys = harvester.decoys_sent();
    report.final_accuracy =
        checkpoint_accuracy(harvester.core(), target.enrollment, options);

    // Detector outcome: where the ladder left the attacked device, and the
    // worst level any legitimate prover was ever escalated to (all zeros
    // with the detector off).
    report.target_suspicion = svc.suspicion_level(target.device_id);
    for (const Prover& prover : provers) {
      report.max_legit_suspicion = std::max(
          report.max_legit_suspicion, svc.suspicion_level(prover.device_id));
    }

    // -- digest parity: an offline, admission-free verifier over exactly
    // the admitted legit requests (v2: the online proof transcript) must
    // reproduce the online verdicts bit-for-bit at several thread budgets.
    report.online_digest = service::verdict_digest(online_verdicts);
    report.digest_parity = true;
    for (const std::size_t budget : {1u, 2u, 8u}) {
      service::AuthServiceOptions offline_options = options.service;
      offline_options.admission = service::AdmissionOptions{};
      offline_options.threads = ThreadBudget(budget);
      const service::AuthService offline(&epochs, offline_options);
      const std::uint64_t digest = service::verdict_digest(
          v2 ? offline.verify_proof_batch(admitted_proofs)
             : offline.verify_batch(admitted_requests));
      if (digest != report.online_digest) report.digest_parity = false;
    }
  } catch (...) {
    server.request_stop();
    server_thread.join();
    throw;
  }

  server.request_stop();
  server_thread.join();
  return report;
}

}  // namespace ropuf::soak
