// Challenge-response interface over a board of configurable RO pairs.
//
// Secret-key generation uses a PUF's fixed response; authentication (the
// paper's other headline application) wants many challenge-response pairs.
// For RO PUFs the standard construction lets the challenge choose *which*
// ROs are compared: here a 64-bit challenge seeds a deterministic
// permutation of the board's RO pairs and selects a subset of them, so each
// challenge yields a different response bit-string from the same enrolled
// silicon while every bit still comes from a margin-maximized comparison.
//
// Notes on the threat model: unlike the FPGA-reconfiguration approaches the
// paper criticizes (Section II), the *configurations are fixed at
// enrollment* — the challenge only permutes which enrolled pairs are read,
// so the modeling surface does not grow with the CRP count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "puf/schemes.h"

namespace ropuf::puf {

/// Deterministic pair subset derived from a challenge: `indices[i]` is the
/// enrolled pair supplying response bit i.
std::vector<std::size_t> challenge_to_pairs(std::uint64_t challenge,
                                            std::size_t pair_count,
                                            std::size_t response_bits);

/// The reference response to `challenge`: bit i is the enrolled bit of pair
/// challenge_to_pairs(...)[i]. `enrolled` holds one bit per pair (bit p =
/// pair p's enrollment-time bit) — all a verifier stores per device.
BitVec reference_response(const BitVec& enrolled, std::uint64_t challenge,
                          std::size_t response_bits);

/// A challenge-response evaluator bound to one board's enrollment.
class CrpOracle {
 public:
  /// `enrollment` must outlive the oracle. `response_bits` must not exceed
  /// the enrolled pair count (bits are drawn without replacement).
  CrpOracle(const ConfigurableEnrollment* enrollment, std::size_t response_bits);

  std::size_t response_bits() const { return response_bits_; }

  /// Response to `challenge` computed from fresh unit measurements.
  BitVec respond(std::uint64_t challenge, const std::vector<double>& unit_values) const;

  /// The reference response from the enrollment-time bits (what a verifier
  /// database stores per challenge).
  BitVec reference(std::uint64_t challenge) const;

 private:
  const ConfigurableEnrollment* enrollment_;
  std::size_t response_bits_;
};

}  // namespace ropuf::puf
