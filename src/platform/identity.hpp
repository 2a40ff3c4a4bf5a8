// Participant identities for the volunteer-computing platform layer.
//
// The paper's threat model (Section 1, footnote 1) rests on identities being
// cheap: "A dedicated individual can obtain hundreds of user names, each of
// which can be assigned thousands of tasks" — SETI@home saw days with more
// than 5,000 new user names. The platform therefore models *identities*
// (what the supervisor sees) separately from *principals* (who actually
// controls them): one adversary principal may own many identities.
#pragma once

#include <cstdint>

namespace redund::platform {

/// Dense identifier the supervisor assigns at registration.
using ParticipantId = std::uint32_t;

/// Who really operates an identity. kAdversary identities collude: they
/// share knowledge of every assignment any of them holds.
enum class Principal { kHonest, kAdversary };

/// The supervisor-visible record for one registered identity.
struct ParticipantRecord {
  ParticipantId id = 0;
  Principal principal = Principal::kHonest;  ///< Ground truth (sim only).
  bool blacklisted = false;                  ///< Supervisor reaction state.
};

}  // namespace redund::platform
