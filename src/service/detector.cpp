#include "service/detector.h"

#include <algorithm>

#include "common/error.h"

namespace ropuf::service {
namespace {

/// Escalation-level buckets: the ladder is short, so one bucket per level.
const std::vector<double>& level_bounds() {
  static const std::vector<double> bounds = {1, 2, 3, 4, 5, 6, 7, 8};
  return bounds;
}

}  // namespace

StreamDetector::StreamDetector(DetectorOptions options)
    : options_(options), states_(options.device_capacity) {
  if (options_.enabled) {
    ROPUF_REQUIRE(options_.window > 0, "detector window must be positive");
    ROPUF_REQUIRE(options_.repeat_tolerance > 0,
                  "repeat_tolerance must be positive (1 = flag the first repeat)");
    ROPUF_REQUIRE(options_.low_weight_run > 0, "low_weight_run must be positive");
    ROPUF_REQUIRE(options_.staircase_run > 0, "staircase_run must be positive");
    ROPUF_REQUIRE(options_.escalate_threshold > 0,
                  "escalate_threshold must be positive");
    ROPUF_REQUIRE(options_.max_level > 0, "max_level must be positive");
    ROPUF_REQUIRE(options_.decay_window > 0, "decay_window must be positive");
    ROPUF_REQUIRE(options_.device_capacity > 0, "device_capacity must be positive");
  }
  obs::Registry& registry = obs::Registry::instance();
  observations_ = &registry.counter("service.detector.observations");
  repeat_flags_ = &registry.counter("service.detector.repeat_flags");
  low_weight_flags_ = &registry.counter("service.detector.low_weight_flags");
  staircase_flags_ = &registry.counter("service.detector.staircase_flags");
  escalations_ = &registry.counter("service.detector.escalations");
  deescalations_ = &registry.counter("service.detector.deescalations");
  evictions_ = &registry.counter("service.detector.evictions");
  escalated_level_ =
      &registry.histogram("service.detector.escalated_level", level_bounds());
}

AdmissionPenalty StreamDetector::penalty_for_level(std::uint32_t level) {
  AdmissionPenalty penalty;
  penalty.interval_factor =
      level >= 64 ? ~0ull : (1ull << level);
  penalty.reuse_shift = level;
  return penalty;
}

StreamDetector::DeviceState& StreamDetector::state_for(std::uint64_t device_id) {
  if (DeviceState* state = states_.touch(device_id)) return *state;
  // Evicting forgets the victim's suspicion — the standard bounded-sketch
  // trade-off, and why device_capacity defaults fleet-sized.
  return states_.insert(device_id, DeviceState{},
                        [this](std::uint64_t, DeviceState&) { evictions_->add(1); });
}

void StreamDetector::observe(std::uint64_t device_id,
                             const StreamObservation& observation) {
  if (!options_.enabled) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  observations_->add(1);
  DeviceState& state = state_for(device_id);

  // Slide the window first, so every signature sees the newest observation.
  const WindowEntry newest{observation.challenge, observation.guess_weight,
                           observation.accepted};
  if (state.window.size() < options_.window) {
    state.window.push_back(newest);
  } else {
    state.window[state.window_next] = newest;
    state.window_next = (state.window_next + 1) % state.window.size();
  }

  // Repeat-probe signature: the same challenge asked more than a plausible
  // retry count of times inside the window. Counted over the whole window
  // (not consecutively) so decoy interleaving cannot wash it out.
  std::size_t same_challenge = 0;
  std::size_t low_weight = 0;
  for (const WindowEntry& entry : state.window) {
    if (entry.challenge == observation.challenge) ++same_challenge;
    if (entry.weight <= 1 && !entry.accepted) ++low_weight;
  }
  const bool repeat_flag = same_challenge > options_.repeat_tolerance;

  // Single-bit-guess signature: a run of non-accepted popcount<=1 claimed
  // responses. A genuine response carries ~b/2 set bits, and the rare
  // device whose reference really is near-zero gets *accepted* for its
  // low-weight responses — so these only come from oracle probing (or a
  // broken prover, which the decay path forgives).
  const bool low_weight_flag = low_weight >= options_.low_weight_run;

  // Distance-staircase signature: answered weight-1 probes stepping exactly
  // +/-1 off the answered weight-0 baseline of the *same* challenge — the
  // bit-recovery arithmetic itself. The baseline is keyed to its challenge
  // and survives unrelated observations, so interleaved decoys don't reset
  // the chain.
  bool staircase_flag = false;
  if (observation.answered) {
    if (observation.guess_weight == 0) {
      state.baseline_valid = true;
      state.baseline_challenge = observation.challenge;
      state.baseline_distance = observation.distance;
      state.staircase_length = 0;
    } else if (observation.guess_weight == 1 && state.baseline_valid &&
               observation.challenge == state.baseline_challenge &&
               (observation.distance + 1 == state.baseline_distance ||
                observation.distance == state.baseline_distance + 1)) {
      ++state.staircase_length;
      staircase_flag = state.staircase_length >= options_.staircase_run;
    }
  }

  std::uint32_t delta = 0;
  if (repeat_flag) {
    delta += options_.repeat_score;
    repeat_flags_->add(1);
  }
  if (low_weight_flag) {
    delta += options_.low_weight_score;
    low_weight_flags_->add(1);
  }
  if (staircase_flag) {
    delta += options_.staircase_score;
    staircase_flags_->add(1);
  }

  if (delta == 0) {
    // Clean observation: decay. Every decay_window clean observations halve
    // the score; once it reaches zero the ladder steps back down, so a
    // false positive costs a bounded slowdown, never a permanent ban.
    ++state.clean_streak;
    if (state.clean_streak >= options_.decay_window) {
      state.clean_streak = 0;
      if (state.score > 0) {
        state.score /= 2;
      } else if (state.level > 0) {
        --state.level;
        deescalations_->add(1);
      }
    }
    return;
  }

  state.clean_streak = 0;
  state.score += delta;
  if (state.score >= options_.escalate_threshold) {
    state.score = 0;
    if (state.level < options_.max_level) {
      ++state.level;
      escalations_->add(1);
      escalated_level_->record(static_cast<double>(state.level));
    }
  }
}

std::uint32_t StreamDetector::level(std::uint64_t device_id) const {
  if (!options_.enabled) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  // A read never promotes in the LRU: penalty lookups on the admission
  // pre-pass must not keep an otherwise-idle device resident.
  const DeviceState* state = states_.peek(device_id);
  return state == nullptr ? 0 : state->level;
}

AdmissionPenalty StreamDetector::penalty(std::uint64_t device_id) const {
  return penalty_for_level(level(device_id));
}

std::size_t StreamDetector::tracked_devices() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return states_.size();
}

}  // namespace ropuf::service
