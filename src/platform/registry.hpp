// Participant registry: registration, Sybil enrollment, blacklisting.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/identity.hpp"

namespace redund::platform {

/// The supervisor's book of registered identities.
///
/// Not thread-safe: the registry belongs to the (single) supervisor; Monte
/// Carlo parallelism runs one platform instance per replica.
class Registry {
 public:
  /// Registers one identity; returns its id.
  ParticipantId enroll(Principal principal);

  /// Registers `count` adversary-controlled identities at once (the cheap
  /// Sybil enrollment of footnote 1). Returns the first new id; ids are
  /// contiguous.
  ParticipantId enroll_sybils(std::int64_t count);

  /// Marks an identity blacklisted; its future work requests are refused.
  void blacklist(ParticipantId id);

  /// Sets or clears the blacklist mark, keeping the sorted blacklist
  /// index in sync. Records are read-only outside the registry, so every
  /// change of ParticipantRecord::blacklisted comes through here (or
  /// blacklist()) — the schedulers' eligible-count arithmetic reads the
  /// index instead of scanning the records.
  void set_blacklisted(ParticipantId id, bool on);

  [[nodiscard]] const ParticipantRecord& record(ParticipantId id) const;

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(records_.size());
  }
  [[nodiscard]] std::int64_t active_count() const noexcept;
  [[nodiscard]] std::int64_t blacklisted_count() const noexcept;

  [[nodiscard]] const std::vector<ParticipantRecord>& records() const noexcept {
    return records_;
  }

  /// Blacklisted ids in ascending order (maintained by set_blacklisted).
  [[nodiscard]] const std::vector<ParticipantId>& blacklisted_ids()
      const noexcept {
    return blacklisted_ids_;
  }

 private:
  std::vector<ParticipantRecord> records_;
  std::vector<ParticipantId> blacklisted_ids_;  ///< Ascending id order.
};

}  // namespace redund::platform
