#include "platform/registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace redund::platform {

ParticipantId Registry::enroll(Principal principal) {
  const auto id = static_cast<ParticipantId>(records_.size());
  records_.push_back({id, principal, false});
  return id;
}

ParticipantId Registry::enroll_sybils(std::int64_t count) {
  if (count < 1) {
    throw std::invalid_argument("Registry::enroll_sybils: count must be >= 1");
  }
  const ParticipantId first = enroll(Principal::kAdversary);
  for (std::int64_t i = 1; i < count; ++i) {
    enroll(Principal::kAdversary);
  }
  return first;
}

void Registry::blacklist(ParticipantId id) { set_blacklisted(id, true); }

void Registry::set_blacklisted(ParticipantId id, bool on) {
  if (record(id).blacklisted == on) return;
  records_[id].blacklisted = on;
  const auto at =
      std::lower_bound(blacklisted_ids_.begin(), blacklisted_ids_.end(), id);
  if (on) {
    blacklisted_ids_.insert(at, id);
  } else {
    blacklisted_ids_.erase(at);
  }
}

const ParticipantRecord& Registry::record(ParticipantId id) const {
  if (id >= records_.size()) {
    throw std::out_of_range("Registry::record: unknown participant id");
  }
  return records_[id];
}

std::int64_t Registry::active_count() const noexcept {
  return size() - blacklisted_count();
}

std::int64_t Registry::blacklisted_count() const noexcept {
  return static_cast<std::int64_t>(blacklisted_ids_.size());
}

}  // namespace redund::platform
