#include "service/auth_service.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "puf/crp.h"
#include "registry/format.h"

namespace ropuf::service {
namespace {

/// Nominal per-bit readout value pushed through the workload fault model;
/// the magnitude only matters to glitch scaling, not to any verdict.
constexpr double kNominalReadPs = 1000.0;

std::uint64_t mix_id(std::uint64_t id) {
  // SplitMix64 finalizer: spreads sequential ids across shards.
  id += 0x9e3779b97f4a7c15ull;
  id = (id ^ (id >> 30)) * 0xbf58476d1ce4e5b9ull;
  id = (id ^ (id >> 27)) * 0x94d049bb133111ebull;
  return id ^ (id >> 31);
}

}  // namespace

const char* auth_status_name(AuthStatus status) {
  switch (status) {
    case AuthStatus::kAccept: return "accept";
    case AuthStatus::kReject: return "reject";
    case AuthStatus::kUnknownDevice: return "unknown-device";
    case AuthStatus::kCorruptRecord: return "corrupt-record";
    case AuthStatus::kMalformedRequest: return "malformed-request";
    case AuthStatus::kRateLimited: return "rate-limited";
    case AuthStatus::kBudgetExhausted: return "budget-exhausted";
  }
  return "unknown";
}

// -------------------------------------------------------------------- cache

EnrollmentCache::EnrollmentCache(std::size_t capacity, const std::string& metric_prefix)
    : capacity_(capacity) {
  // Small caches stay single-sharded so the capacity bound (and LRU order,
  // which the tests pin) is exact; serving-sized caches spread over 8 shards
  // to keep batch workers off each other's mutex.
  shard_count_ = capacity >= 64 ? 8 : (capacity > 0 ? 1 : 0);
  if (shard_count_ > 0) shards_ = std::make_unique<Shard[]>(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    shards_[s].lru = BoundedLru<Entry>(split_share(capacity, shard_count_, s));
  }
  obs::Registry& registry = obs::Registry::instance();
  hits_ = &registry.counter(metric_prefix + "_hits");
  misses_ = &registry.counter(metric_prefix + "_misses");
  bypasses_ = &registry.counter(metric_prefix + "_bypass");
  evictions_ = &registry.counter(metric_prefix + "_evictions");
  stale_ = &registry.counter(metric_prefix + "_stale");
}

std::size_t EnrollmentCache::shard_index(std::uint64_t device_id) const {
  return mix_id(device_id) % shard_count_;
}

EnrollmentCache::Entry EnrollmentCache::get(std::uint64_t device_id,
                                            std::uint64_t epoch) {
  if (shard_count_ == 0) {
    // A disabled cache is not a miss: hit/miss rates should describe an
    // *enabled* cache, so cache-off runs count their own bypass series.
    bypasses_->add(1);
    return nullptr;
  }
  Shard& shard = shards_[shard_index(device_id)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const Entry* cached = shard.lru.touch(device_id);
  if (cached == nullptr) {
    misses_->add(1);
    return nullptr;
  }
  if ((*cached)->epoch != epoch) {
    // Stale generation: the registry swapped under this entry. Evict it
    // eagerly — the caller re-resolves against the live snapshot and put()s
    // a fresh entry, so one swap costs each hot device one extra lookup.
    shard.lru.erase(device_id);
    stale_->add(1);
    misses_->add(1);
    return nullptr;
  }
  hits_->add(1);
  return *cached;
}

void EnrollmentCache::put(std::uint64_t device_id, Entry entry) {
  if (shard_count_ == 0) return;
  Shard& shard = shards_[shard_index(device_id)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (Entry* cached = shard.lru.touch(device_id)) {
    *cached = std::move(entry);
    return;
  }
  // Every shard bound is >= 1 (8 shards only kick in at capacity >= 64), so
  // evicting one entry always makes room.
  shard.lru.insert(device_id, std::move(entry),
                   [this](std::uint64_t, Entry&) { evictions_->add(1); });
}

std::size_t EnrollmentCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].lru.size();
  }
  return total;
}

// ------------------------------------------------------------------ service

AuthService::AuthService(const registry::EpochRegistry* epochs,
                         AuthServiceOptions options)
    : epochs_(epochs),
      options_(options),
      cache_(options.cache_capacity),
      unknown_cache_(options.unknown_cache_capacity, "service.unknown_cache") {
  ROPUF_REQUIRE(epochs_ != nullptr, "null epoch registry");
  ROPUF_REQUIRE(options_.response_bits > 0, "response_bits must be positive");
  ROPUF_REQUIRE(options_.batch_grain > 0, "batch_grain must be positive");
  ROPUF_REQUIRE(options_.admission_shards > 0, "admission_shards must be positive");
  ROPUF_REQUIRE(!options_.admission.enabled() ||
                    options_.admission.device_capacity >= options_.admission_shards,
                "admission device_capacity must cover every admission shard");
  ROPUF_REQUIRE(!options_.detector.enabled ||
                    options_.detector.device_capacity >= options_.admission_shards,
                "detector device_capacity must cover every admission shard");
  // A device's admission and detector state share its slice (same hash
  // routing), and each slice holds a split_share() of both device
  // capacities. Disabled detectors are inert but keep the accessors safe.
  const std::size_t shards = options_.admission_shards;
  for (std::size_t s = 0; s < shards; ++s) {
    AdmissionOptions admission = options_.admission;
    admission.device_capacity = split_share(admission.device_capacity, shards, s);
    DetectorOptions detector = options_.detector;
    detector.device_capacity = split_share(detector.device_capacity, shards, s);
    slices_.emplace_back(admission, detector);
  }
  ROPUF_REQUIRE(!options_.reenroll.enabled() ||
                    (options_.reenroll.device_capacity > 0 &&
                     options_.reenroll.queue_capacity > 0),
                "re-enrollment needs nonzero device and queue capacities");
  reenroll_.streaks = BoundedLru<std::size_t>(options_.reenroll.device_capacity);
  obs::Registry& obs = obs::Registry::instance();
  reenroll_queued_ = &obs.counter("service.reenroll_queued");
  reenroll_overflow_ = &obs.counter("service.reenroll_overflow");
  reenroll_taken_ = &obs.counter("service.reenroll_taken");
}

std::size_t AuthService::admission_slice_index(std::uint64_t device_id) const {
  if (slices_.size() == 1) return 0;
  return mix_id(device_id) % slices_.size();
}

void AuthService::flush_admission_metrics() const {
  for (DeviceSlice& slice : slices_) slice.admission.flush_metrics();
}

std::uint32_t AuthService::suspicion_level(std::uint64_t device_id) const {
  return slices_[admission_slice_index(device_id)].detector.level(device_id);
}

AuthVerdict AuthService::verify(const AuthRequest& request) const {
  // Pin the live generation for the duration of this one verdict; a swap
  // between two verify() calls is observable, a swap during one is not.
  return verify_pinned(*epochs_->snapshot(), request);
}

EnrollmentCache::Entry AuthService::resolve_lookup(
    const registry::RegistrySnapshot& snapshot, std::uint64_t device_id) const {
  const std::uint64_t epoch = snapshot.epoch();
  EnrollmentCache::Entry looked_up = cache_.get(device_id, epoch);
  if (looked_up == nullptr) looked_up = unknown_cache_.get(device_id, epoch);
  if (looked_up != nullptr) return looked_up;
  // Resolve against the pinned snapshot once and cache the *outcome* —
  // including the negative ones, so repeat corrupt/unknown traffic never
  // re-walks the registry or pays a thrown FormatError per request.
  // Entries are tagged with the snapshot's epoch: after a swap they stop
  // answering (stale-evicted on first touch), so a replaced or retired
  // record can never serve from cache. Unknown-device outcomes go to
  // their own smaller cache: their key space is unbounded, and a spray of
  // random ids must only ever evict other unknowns, never the enrollments
  // legitimate traffic depends on.
  auto resolved = std::make_shared<CachedLookup>();
  resolved->epoch = epoch;
  try {
    std::optional<puf::ConfigurableEnrollment> found = snapshot.find(device_id);
    if (found.has_value()) {
      resolved->enrollment = std::move(*found);
      // Derive the v2 verification key once per (device, epoch): Rep over
      // the clean enrollment response plus the KCV cross-check. Leaving it
      // disengaged (unprovisioned record or tampered auth material) is
      // itself a cached outcome — every proof against it answers
      // kCorruptRecord without touching the extractor again.
      if (resolved->enrollment->has_auth()) {
        resolved->auth_key = auth::derive_enrollment_key(*resolved->enrollment);
      }
    } else {
      resolved->outcome = CachedLookup::Outcome::kUnknownDevice;
    }
  } catch (const registry::FormatError&) {
    resolved->outcome = CachedLookup::Outcome::kCorruptRecord;
  }
  looked_up = std::move(resolved);
  if (looked_up->outcome == CachedLookup::Outcome::kUnknownDevice) {
    unknown_cache_.put(device_id, looked_up);
  } else {
    cache_.put(device_id, looked_up);
  }
  return looked_up;
}

AuthVerdict AuthService::verify_pinned(const registry::RegistrySnapshot& snapshot,
                                       const AuthRequest& request) const {
  static obs::Counter& requests = obs::Registry::instance().counter("service.requests");
  static obs::Counter& accepted = obs::Registry::instance().counter("service.accepted");
  static obs::Counter& rejected = obs::Registry::instance().counter("service.rejected");
  static obs::Counter& unknown =
      obs::Registry::instance().counter("service.unknown_device");
  static obs::Counter& corrupt =
      obs::Registry::instance().counter("service.corrupt_record");
  static obs::Counter& malformed =
      obs::Registry::instance().counter("service.malformed");
  static obs::Histogram& verify_us =
      obs::Registry::instance().latency_histogram("service.verify_us");
  requests.add(1);
  const obs::ScopedLatency verify_timer(verify_us);

  const EnrollmentCache::Entry looked_up =
      resolve_lookup(snapshot, request.device_id);
  switch (looked_up->outcome) {
    case CachedLookup::Outcome::kUnknownDevice:
      unknown.add(1);
      return AuthVerdict{AuthStatus::kUnknownDevice, 0, options_.response_bits};
    case CachedLookup::Outcome::kCorruptRecord:
      corrupt.add(1);
      return AuthVerdict{AuthStatus::kCorruptRecord, 0, options_.response_bits};
    case CachedLookup::Outcome::kEnrolled:
      break;
  }
  const puf::ConfigurableEnrollment& enrollment = *looked_up->enrollment;

  const std::size_t bits =
      std::min(options_.response_bits, enrollment.layout.pair_count);
  if (request.response.size() != bits) {
    malformed.add(1);
    return AuthVerdict{AuthStatus::kMalformedRequest, 0, bits};
  }
  const puf::CrpOracle oracle(&enrollment, bits);
  const BitVec reference = oracle.reference(request.challenge);
  const std::size_t distance = reference.hamming_distance(request.response);
  if (distance <= options_.max_distance) {
    accepted.add(1);
    return AuthVerdict{AuthStatus::kAccept, distance, bits};
  }
  rejected.add(1);
  return AuthVerdict{AuthStatus::kReject, distance, bits};
}

std::vector<AuthVerdict> AuthService::verify_batch(
    const std::vector<AuthRequest>& requests) const {
  static obs::Counter& batches = obs::Registry::instance().counter("service.batches");
  static obs::Counter& batch_items =
      obs::Registry::instance().counter("service.batch_items");
  static obs::Histogram& batch_us =
      obs::Registry::instance().latency_histogram("service.batch_us");
  batches.add(1);
  batch_items.add(requests.size());
  const obs::ScopedLatency batch_timer(batch_us);
  const obs::TraceSpan span("service.verify_batch");

  // ONE snapshot pin for the whole batch: every verdict resolves against
  // the same registry generation, so an epoch swap mid-batch cannot split
  // the batch — its verdicts stay bit-stable against the epoch it was
  // admitted under (the swap-under-traffic invariant).
  const std::shared_ptr<const registry::RegistrySnapshot> snapshot =
      epochs_->snapshot();

  // Admission is order-dependent per-device state, so it is decided in a
  // *serial* pre-pass over arrival order; only the verification of the
  // admitted remainder runs on the pool. The admitted verdicts are then
  // exactly what an admission-free verify_batch would produce for the same
  // subsequence — the digest-parity property the soak harness pins. With
  // admission off there is no pre-pass and `decisions` stays empty.
  const bool detect = options_.detector.enabled;
  std::vector<Admission> decisions;
  if (options_.admission.enabled()) {
    decisions.resize(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::uint64_t id = requests[i].device_id;
      DeviceSlice& slice = slices_[admission_slice_index(id)];
      // The detector's escalation ladder tightens a suspicious device's
      // effective knobs at decision time; a neutral penalty reproduces the
      // static admission decision bit-for-bit.
      const AdmissionPenalty penalty =
          detect ? slice.detector.penalty(id) : AdmissionPenalty{};
      decisions[i] = slice.admission.admit(id, requests[i].challenge, penalty);
    }
  }
  std::vector<AuthVerdict> verdicts = parallel_transform<AuthVerdict>(
      requests.size(), options_.threads,
      [&](std::size_t i) {
        switch (decisions.empty() ? Admission::kAdmit : decisions[i]) {
          case Admission::kRateLimited:
            return AuthVerdict{AuthStatus::kRateLimited, 0, options_.response_bits};
          case Admission::kBudgetExhausted:
            return AuthVerdict{AuthStatus::kBudgetExhausted, 0, options_.response_bits};
          case Admission::kAdmit:
            break;
        }
        return verify_pinned(*snapshot, requests[i]);
      },
      options_.batch_grain);
  // Detector feedback and re-enrollment tracking are one serial post-pass,
  // like admission is a serial pre-pass: the batch's verdicts stream in
  // arrival order, so the suspicion state (and with it the next batch's
  // penalties) and the re-enrollment queue are deterministic at any thread
  // budget — and never a verdict change.
  const bool reenroll = options_.reenroll.enabled();
  if (!detect && !reenroll) return verdicts;
  std::unique_lock<std::mutex> reenroll_lock;
  if (reenroll) reenroll_lock = std::unique_lock<std::mutex>(reenroll_.mutex);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::uint64_t id = requests[i].device_id;
    const AuthStatus status = verdicts[i].status;
    if (detect) {
      StreamObservation observation;
      observation.challenge = requests[i].challenge;
      observation.guess_weight = requests[i].response.popcount();
      observation.answered =
          status == AuthStatus::kAccept || status == AuthStatus::kReject;
      observation.accepted = status == AuthStatus::kAccept;
      observation.distance = verdicts[i].distance;
      slices_[admission_slice_index(id)].detector.observe(id, observation);
    }
    if (reenroll) track_reenrollment(id, status);
  }
  return verdicts;
}

AuthVerdict AuthService::verify_proof(const ProofRequest& request) const {
  return verify_proof_pinned(*epochs_->snapshot(), request);
}

AuthVerdict AuthService::verify_proof_pinned(
    const registry::RegistrySnapshot& snapshot, const ProofRequest& request) const {
  static obs::Counter& requests =
      obs::Registry::instance().counter("service.proof_requests");
  static obs::Counter& accepted =
      obs::Registry::instance().counter("service.proofs_accepted");
  static obs::Counter& rejected =
      obs::Registry::instance().counter("service.proofs_rejected");
  static obs::Counter& unknown =
      obs::Registry::instance().counter("service.proof_unknown_device");
  static obs::Counter& corrupt =
      obs::Registry::instance().counter("service.proof_corrupt_record");
  static obs::Histogram& verify_us =
      obs::Registry::instance().latency_histogram("service.proof_verify_us");
  requests.add(1);
  const obs::ScopedLatency verify_timer(verify_us);

  const EnrollmentCache::Entry looked_up =
      resolve_lookup(snapshot, request.device_id);
  switch (looked_up->outcome) {
    case CachedLookup::Outcome::kUnknownDevice:
      unknown.add(1);
      return AuthVerdict{AuthStatus::kUnknownDevice, 0, 0};
    case CachedLookup::Outcome::kCorruptRecord:
      corrupt.add(1);
      return AuthVerdict{AuthStatus::kCorruptRecord, 0, 0};
    case CachedLookup::Outcome::kEnrolled:
      break;
  }
  if (!looked_up->auth_key.has_value()) {
    // Enrolled but not provisioned for v2 (or its auth material failed the
    // key check): the record cannot back a proof.
    corrupt.add(1);
    return AuthVerdict{AuthStatus::kCorruptRecord, 0, 0};
  }
  // response_bits reports the helper-covered span; distance is always 0 —
  // the whole point of v2 is that no distance oracle leaves the verifier.
  const puf::ConfigurableEnrollment& enrollment = *looked_up->enrollment;
  const std::size_t covered =
      enrollment.auth_helper.size() * enrollment.auth_helper.front().size();
  if (auth::verify_tag(*looked_up->auth_key, request.nonce, request.request_id,
                       request.device_id, request.tag)) {
    accepted.add(1);
    return AuthVerdict{AuthStatus::kAccept, 0, covered};
  }
  rejected.add(1);
  return AuthVerdict{AuthStatus::kReject, 0, covered};
}

std::vector<AuthVerdict> AuthService::verify_proof_batch(
    const std::vector<ProofRequest>& requests) const {
  static obs::Counter& batches =
      obs::Registry::instance().counter("service.proof_batches");
  batches.add(1);
  const obs::TraceSpan span("service.verify_proof_batch");
  // One snapshot pin, no admission pre-pass and no re-enrollment post-pass:
  // a proof verdict is a pure function of its request and the pinned
  // registry, so the batch is bit-identical at any thread budget.
  const std::shared_ptr<const registry::RegistrySnapshot> snapshot =
      epochs_->snapshot();
  return parallel_transform<AuthVerdict>(
      requests.size(), options_.threads,
      [&](std::size_t i) { return verify_proof_pinned(*snapshot, requests[i]); },
      options_.batch_grain);
}

void AuthService::track_reenrollment(std::uint64_t device_id, AuthStatus status) const {
  if (status == AuthStatus::kAccept) {
    // A clean accept proves the enrollment still matches the silicon.
    reenroll_.streaks.erase(device_id);
    return;
  }
  if (status != AuthStatus::kReject) return;  // says nothing about drift
  std::size_t* streak = reenroll_.streaks.touch(device_id);
  if (streak == nullptr) streak = &reenroll_.streaks.insert(device_id, 0);
  ++*streak;
  if (*streak < options_.reenroll.fail_threshold) return;
  // Threshold crossed: queue once and restart the streak, so a device
  // re-queues only after fail_threshold *new* consecutive rejects.
  *streak = 0;
  if (reenroll_.queued.count(device_id) != 0) return;
  if (reenroll_.queue.size() >= options_.reenroll.queue_capacity) {
    reenroll_overflow_->add(1);
    return;
  }
  reenroll_.queue.push_back(device_id);
  reenroll_.queued.insert(device_id);
  reenroll_queued_->add(1);
}

std::vector<std::uint64_t> AuthService::take_reenroll_queue() const {
  const std::lock_guard<std::mutex> lock(reenroll_.mutex);
  std::vector<std::uint64_t> taken = std::move(reenroll_.queue);
  reenroll_.queue.clear();
  reenroll_.queued.clear();
  reenroll_taken_->add(taken.size());
  return taken;
}

std::size_t AuthService::reenroll_backlog() const {
  const std::lock_guard<std::mutex> lock(reenroll_.mutex);
  return reenroll_.queue.size();
}

std::size_t apply_reenrollments(const AuthService& service,
                                registry::EpochRegistry& epochs,
                                const ReenrollOracle& oracle) {
  static obs::Counter& applied =
      obs::Registry::instance().counter("service.reenroll_applied");
  registry::DeltaBuilder builder;
  for (const std::uint64_t device_id : service.take_reenroll_queue()) {
    std::optional<puf::ConfigurableEnrollment> fresh = oracle(device_id);
    if (fresh.has_value()) builder.upsert(device_id, std::move(*fresh));
  }
  const std::size_t count = builder.entry_count();
  if (count == 0) return 0;
  epochs.append_delta(registry::DeltaSegment::from_bytes(builder.build()));
  applied.add(count);
  return count;
}

// ----------------------------------------------------------------- workload


std::vector<AuthRequest> synthesize_workload(const registry::Registry& registry,
                                             const AuthServiceOptions& options,
                                             const WorkloadSpec& spec) {
  ROPUF_REQUIRE(registry.device_count() > 0, "cannot synthesize against an empty registry");
  ROPUF_REQUIRE(spec.flip_rate >= 0.0 && spec.flip_rate <= 1.0,
                "flip_rate must be in [0, 1]");
  ROPUF_REQUIRE(spec.forge_rate >= 0.0 && spec.unknown_rate >= 0.0 &&
                    spec.forge_rate + spec.unknown_rate <= 1.0,
                "forge_rate + unknown_rate must stay within [0, 1]");

  Rng rng(spec.seed);
  std::vector<AuthRequest> requests;
  requests.reserve(spec.requests);
  for (std::size_t r = 0; r < spec.requests; ++r) {
    AuthRequest request;
    request.challenge = rng.next_u64();
    const double category = rng.uniform();

    if (category < spec.unknown_rate) {
      // An id outside the enrolled population; the response content is
      // irrelevant (the unknown-device verdict fires before comparison).
      do {
        request.device_id = rng.next_u64();
      } while (request.device_id == 0 || registry.contains(request.device_id));
      BitVec response(options.response_bits);
      for (std::size_t i = 0; i < response.size(); ++i) response.set(i, rng.flip());
      request.response = std::move(response);
      requests.push_back(std::move(request));
      continue;
    }

    const std::size_t device_index = rng.uniform_below(registry.device_count());
    request.device_id = registry.device_id_at(device_index);
    const puf::ConfigurableEnrollment enrollment = registry.lookup(request.device_id);
    const std::size_t bits = std::min(options.response_bits, enrollment.layout.pair_count);

    if (category < spec.unknown_rate + spec.forge_rate) {
      // Forged attempt: right shape, random content.
      BitVec response(bits);
      for (std::size_t i = 0; i < bits; ++i) response.set(i, rng.flip());
      request.response = std::move(response);
      requests.push_back(std::move(request));
      continue;
    }

    // Legitimate prover: the enrollment-time reference with per-bit readout
    // noise, optionally pushed through the fault model. A dropped read is
    // the hardened readout's terminal condition (retry budget spent): the
    // prover degrades the whole response rather than fabricating bits, and
    // the service answers kMalformedRequest for it.
    const puf::CrpOracle oracle(&enrollment, bits);
    const BitVec reference = oracle.reference(request.challenge);
    try {
      BitVec response(bits);
      for (std::size_t i = 0; i < bits; ++i) {
        bool bit = reference.get(i) ^ (rng.uniform() < spec.flip_rate);
        if (spec.injector != nullptr) {
          const sil::FaultInjector::ReadOutcome outcome =
              spec.injector->apply(i, kNominalReadPs);
          if (outcome.dropped) {
            throw MeasurementFault(FaultKind::kRetryExhausted,
                                   "prover readout dropped past the retry budget");
          }
          if (outcome.kind != FaultKind::kNone) bit = !bit;
        }
        response.set(i, bit);
      }
      request.response = std::move(response);
    } catch (const MeasurementFault&) {
      request.response = BitVec();
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<ProofIntent> synthesize_proof_workload(const registry::Registry& registry,
                                                   const WorkloadSpec& spec) {
  ROPUF_REQUIRE(registry.device_count() > 0,
                "cannot synthesize against an empty registry");
  ROPUF_REQUIRE(spec.flip_rate >= 0.0 && spec.flip_rate <= 1.0,
                "flip_rate must be in [0, 1]");
  ROPUF_REQUIRE(spec.forge_rate >= 0.0 && spec.unknown_rate >= 0.0 &&
                    spec.forge_rate + spec.unknown_rate <= 1.0,
                "forge_rate + unknown_rate must stay within [0, 1]");

  Rng rng(spec.seed);
  std::vector<ProofIntent> intents;
  intents.reserve(spec.requests);
  for (std::size_t r = 0; r < spec.requests; ++r) {
    ProofIntent intent;
    intent.request_id = r + 1;
    const double category = rng.uniform();

    if (category < spec.unknown_rate) {
      do {
        intent.device_id = rng.next_u64();
      } while (intent.device_id == 0 || registry.contains(intent.device_id));
      intents.push_back(intent);
      continue;
    }

    const std::size_t device_index = rng.uniform_below(registry.device_count());
    intent.device_id = registry.device_id_at(device_index);
    if (category < spec.unknown_rate + spec.forge_rate) {
      // Forger: right identity, no silicon — keyless, so the client sends
      // the all-zeros tag an HMAC output can never equal.
      intents.push_back(intent);
      continue;
    }

    // Legitimate prover: re-measure the enrolled response with per-bit
    // flips and run Rep. Within the code's correction radius the enrolled
    // key comes back; beyond it the prover fails closed (keyless).
    const puf::ConfigurableEnrollment enrollment = registry.lookup(intent.device_id);
    const BitVec reference = enrollment.response();
    BitVec noisy(reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      noisy.set(i, reference.get(i) ^ (rng.uniform() < spec.flip_rate));
    }
    const std::optional<crypto::Sha256Digest> key =
        auth::recover_key(noisy, enrollment);
    if (key.has_value()) {
      intent.has_key = true;
      intent.key = *key;
    }
    intents.push_back(intent);
  }
  return intents;
}

std::uint64_t verdict_digest(const std::vector<AuthVerdict>& verdicts) {
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  for (const AuthVerdict& verdict : verdicts) {
    mix(static_cast<std::uint64_t>(verdict.status));
    mix(verdict.distance);
    mix(verdict.response_bits);
  }
  return digest;
}

}  // namespace ropuf::service
