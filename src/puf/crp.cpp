#include "puf/crp.h"

#include "common/error.h"
#include "common/rng.h"
#include "puf/selection.h"

namespace ropuf::puf {

std::vector<std::size_t> challenge_to_pairs(std::uint64_t challenge,
                                            std::size_t pair_count,
                                            std::size_t response_bits) {
  ROPUF_REQUIRE(pair_count > 0, "no enrolled pairs");
  ROPUF_REQUIRE(response_bits >= 1 && response_bits <= pair_count,
                "response length must be 1..pair_count");

  // Deterministic Fisher-Yates keyed by the challenge. Using the library
  // Rng keeps the expansion identical on enroller and verifier.
  Rng rng(challenge);
  std::vector<std::size_t> order(pair_count);
  for (std::size_t i = 0; i < pair_count; ++i) order[i] = i;
  rng.shuffle(order);
  order.resize(response_bits);
  return order;
}

BitVec reference_response(const BitVec& enrolled, std::uint64_t challenge,
                          std::size_t response_bits) {
  const auto pairs = challenge_to_pairs(challenge, enrolled.size(), response_bits);
  BitVec response(response_bits);
  for (std::size_t i = 0; i < pairs.size(); ++i) response.set(i, enrolled.get(pairs[i]));
  return response;
}

CrpOracle::CrpOracle(const ConfigurableEnrollment* enrollment, std::size_t response_bits)
    : enrollment_(enrollment), response_bits_(response_bits) {
  ROPUF_REQUIRE(enrollment_ != nullptr, "null enrollment");
  ROPUF_REQUIRE(!enrollment_->selections.empty(), "enrollment has no pairs");
  ROPUF_REQUIRE(response_bits_ >= 1 && response_bits_ <= enrollment_->selections.size(),
                "response length must be 1..pair_count");
}

BitVec CrpOracle::respond(std::uint64_t challenge,
                          const std::vector<double>& unit_values) const {
  const auto pairs =
      challenge_to_pairs(challenge, enrollment_->selections.size(), response_bits_);
  BitVec response(response_bits_);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Selection& sel = enrollment_->selections[pairs[i]];
    const PairValues pv = pair_values(unit_values, enrollment_->layout, pairs[i]);
    const double margin =
        configured_margin(sel.top_config, sel.bottom_config, pv.top, pv.bottom);
    response.set(i, margin > 0.0);
  }
  return response;
}

BitVec CrpOracle::reference(std::uint64_t challenge) const {
  return reference_response(enrollment_->response(), challenge, response_bits_);
}

}  // namespace ropuf::puf
