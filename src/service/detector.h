// Online model-building detection for the CRP authentication service.
//
// The admission layer (service/admission.h) bounds the *volume* of CRP
// leakage with static per-device budgets; this layer recognizes its *shape*.
// The distance-oracle attack (attack/harvest.h) has a distinctive stream
// signature no legitimate prover produces:
//
//  * repeat-probe runs — the same challenge re-asked far past the bounded
//    retry a real prover ever needs (the oracle needs b+1 asks per
//    challenge);
//  * single-bit guesses — non-accepted probes whose claimed response has
//    popcount <= 1 (the all-zeros baseline and the one-hot probes), where
//    a genuine response sits near popcount b/2 — and the rare genuine
//    device whose reference is itself near-zero gets *accepted* for its
//    low-weight responses, so those are exempt;
//  * distance staircases — a weight-0 baseline for challenge c answered
//    with distance d0, followed by weight-1 probes for the *same* c whose
//    distances step to exactly d0 +/- 1, the arithmetic the oracle mines.
//
// StreamDetector scores a sliding window of per-device observations for
// those signatures and drives an escalation ladder: enough suspicion bumps
// the device's level, and each level stretches its effective admission
// rate_interval (2^level) and halves its reuse_budget (>> level) via
// AdmissionPenalty — so a flagged device starves while everyone else keeps
// the loose static knobs. Clean traffic decays the score and eventually
// steps the level back down, so a false positive is a slowdown, never a
// permanent ban.
//
// Signatures are *window-count* based, not consecutive-run based, on
// purpose: an evasive harvester (attack::EvasiveHarvester) that interleaves
// plausible-looking decoy queries between oracle probes dilutes any
// consecutive-run rule, but its oracle probes still accumulate in the
// window. The window just needs to out-span the decoy spacing.
//
// Like admission, the detector is deterministic in observation order and
// never touches verdicts: it only changes *which* requests the admission
// pre-pass admits, so the admitted subsequence keeps digest parity with an
// admission-free offline batch at any thread budget or shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/lru.h"
#include "obs/metrics.h"
#include "service/admission.h"

namespace ropuf::service {

/// Detector knobs. Defaults are tuned for the soak contract: the plain and
/// evasive harvesters escalate within their first challenge while the
/// legit prover mix never flags at all.
struct DetectorOptions {
  /// Master switch; everything below is inert when false.
  bool enabled = false;
  /// Sliding observation window per device (newest `window` observations).
  std::size_t window = 32;
  /// Same-challenge asks tolerated inside the window before the repeat
  /// signature fires (a legitimate prover retries a challenge at most once
  /// or twice; the oracle asks it bits+1 times).
  std::size_t repeat_tolerance = 2;
  /// Non-accepted popcount<=1 guesses inside the window before the
  /// single-bit signature fires. A real b-bit response has expected weight
  /// b/2, and the rare genuine device whose reference sits near all-zeros
  /// gets *accepted* for its low-weight responses — so legit traffic never
  /// contributes, while oracle probes (rejected or denied) always do.
  std::size_t low_weight_run = 4;
  /// Same-challenge baseline/probe distance-step chain length before the
  /// staircase signature fires.
  std::size_t staircase_run = 3;
  /// Score added per flagged signature, per observation.
  std::uint32_t repeat_score = 2;
  std::uint32_t low_weight_score = 1;
  std::uint32_t staircase_score = 3;
  /// Accumulated score that bumps the escalation ladder one level.
  std::uint32_t escalate_threshold = 8;
  /// Ladder ceiling (penalties saturate here).
  std::uint32_t max_level = 4;
  /// Clean (unflagged) observations per decay step: each step halves the
  /// score, and a zero score steps the level back down.
  std::uint64_t decay_window = 64;
  /// Bound on tracked per-device states (LRU eviction past it, same sketch
  /// trade-off as admission: an id-spray must not grow server memory).
  std::size_t device_capacity = 4096;
};

/// One observation of a device's request stream, in arrival order: what was
/// asked, what shape the claimed response had, and what the verifier said.
struct StreamObservation {
  std::uint64_t challenge = 0;
  /// popcount of the submitted response bits.
  std::size_t guess_weight = 0;
  /// True for a real accept/reject verdict (distance is meaningful); false
  /// for degradations (denied, unknown, malformed — no distance oracle).
  bool answered = false;
  /// True for kAccept. An *accepted* low-weight response is a genuine
  /// device whose reference happens to sit near all-zeros — not an oracle
  /// probe (those miss by ~reference-popcount) — so the single-bit
  /// signature skips it; the false-positive the first soak tuning caught.
  bool accepted = false;
  /// Verdict Hamming distance when answered.
  std::size_t distance = 0;
};

/// Deterministic per-device stream classifier + escalation ladder. Feed
/// observations in arrival order via observe() (the service's serial
/// post-pass does); read the current penalty in the admission pre-pass.
/// Calls are mutex-serialized for concurrent batches, but — exactly like
/// AdmissionController — determinism is a property of the call order.
class StreamDetector {
 public:
  explicit StreamDetector(DetectorOptions options);

  /// Classifies one observation and advances the device's score/ladder.
  /// No-op when the detector is disabled.
  void observe(std::uint64_t device_id, const StreamObservation& observation);

  /// The device's current escalation level (0 = unsuspected or untracked).
  std::uint32_t level(std::uint64_t device_id) const;

  /// The admission penalty for the device's current level.
  AdmissionPenalty penalty(std::uint64_t device_id) const;

  /// The ladder: level L stretches the refill interval 2^L times and
  /// halves the reuse budget L times. Saturates instead of wrapping.
  static AdmissionPenalty penalty_for_level(std::uint32_t level);

  /// Devices currently tracked (bounded by device_capacity).
  std::size_t tracked_devices() const;

  const DetectorOptions& options() const { return options_; }

 private:
  struct WindowEntry {
    std::uint64_t challenge = 0;
    std::size_t weight = 0;
    bool accepted = false;
  };
  struct DeviceState {
    /// Ring of the newest `window` observations.
    std::vector<WindowEntry> window;
    std::size_t window_next = 0;
    /// Staircase tracking: the newest answered weight-0 baseline and how
    /// many same-challenge weight-1 probes have stepped off it by exactly 1.
    bool baseline_valid = false;
    std::uint64_t baseline_challenge = 0;
    std::size_t baseline_distance = 0;
    std::size_t staircase_length = 0;
    /// Suspicion accumulator and ladder position.
    std::uint32_t score = 0;
    std::uint32_t level = 0;
    std::uint64_t clean_streak = 0;
  };

  DeviceState& state_for(std::uint64_t device_id);

  DetectorOptions options_;
  mutable std::mutex mutex_;
  BoundedLru<DeviceState> states_;
  obs::Counter* observations_ = nullptr;
  obs::Counter* repeat_flags_ = nullptr;
  obs::Counter* low_weight_flags_ = nullptr;
  obs::Counter* staircase_flags_ = nullptr;
  obs::Counter* escalations_ = nullptr;
  obs::Counter* deescalations_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Histogram* escalated_level_ = nullptr;
};

}  // namespace ropuf::service
