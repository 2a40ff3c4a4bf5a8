// Deterministic pending-event queues for the asynchronous supervisor
// runtime.
//
// Generalizes the completion min-heap inside sim/des.cpp into reusable
// queues carrying typed events. Two properties matter for reproducibility:
//
//   * Ties in simulated time are broken by schedule order (a monotonically
//     increasing sequence number), so the processing order is a pure
//     function of the event schedule — never of queue internals.
//   * Events are never cancelled. A timer that became irrelevant (its unit
//     completed, or was re-issued under a new epoch) drains as a stale
//     no-op; producers stamp events with the subject's epoch and consumers
//     drop mismatches. This keeps the queues allocation-free on the cancel
//     path and makes replay trivially deterministic.
//
// Two implementations share the interface (reserve / schedule / peek / pop):
//
//   * EventQueue — a plain std::vector binary heap driven by
//     std::push_heap/pop_heap. O(log n) per operation; the reference
//     implementation every other queue must match pop-for-pop.
//   * CalendarQueue — a bucketed ring (Brown's calendar queue, CACM 1988):
//     events hash into "day" buckets by floor(time / width), pop scans the
//     ring from the current day. O(1) amortized schedule/pop when the bucket
//     width tracks the mean event spacing, which periodic rebuilds maintain.
//     Pops in exactly the same (time, seq) order as the binary heap: equal
//     times always land in the same bucket (same day), buckets are kept
//     sorted, and the day scan visits strictly increasing times.
//
// Both queues also expose pop_run(): the maximal same-timestamp run at the
// head removed in one call and returned as a contiguous view — the
// supervisor's batch drain consumes runs, not single events, and the
// calendar returns the common single-bucket run (every initial deadline of
// a campaign shares one timestamp) zero-copy from its arena.
//
// The supervisor selects between them via RuntimeConfig::queue; because the
// pop order is contractually identical, the choice cannot change any
// simulation result — only its speed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/contracts.hpp"

namespace redund::runtime {

/// What a pending event means when it fires.
enum class EventKind : std::uint8_t {
  kCompletion,     ///< A participant returns the result of a unit.
  kDeadline,       ///< A unit's report deadline elapses.
  kReissue,        ///< A timed-out unit's backoff elapses; re-deal it.
  kAdaptiveCheck,  ///< Periodic reliability review of a straggling task.
  kFault,          ///< A FaultSchedule entry starts (subject = fault index).
  kFaultEnd,       ///< A windowed fault's duration elapses (same subject).
  kHealthCheck,    ///< Periodic campaign health review (stall detection).
  kReplan,         ///< Periodic adaptive-controller re-plan review.
};

/// Which pending-event queue the supervisor's loop runs on.
enum class QueueKind : std::uint8_t {
  kBinaryHeap,  ///< std::vector min-heap; O(log n), the reference.
  kCalendar,    ///< Bucketed ring; O(1) amortized, same pop order.
};

/// Width of Event::seq: 2^56 schedules per queue, far past any campaign.
inline constexpr int kSeqBits = 56;
inline constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

/// One scheduled event. `subject` is a unit index (task index for
/// kAdaptiveCheck, fault index for kFault/kFaultEnd); `epoch` invalidates
/// stale unit timers. 24 bytes: seq and kind share one word, and subject
/// and epoch hold 32 bits each — the supervisor rejects a campaign whose
/// unit slots, tasks or faults would not fit (validate_sizes in
/// supervisor.cpp), and unit epochs are 32-bit already (UnitTable::epoch).
struct Event {
  double time = 0.0;
  std::uint64_t seq : kSeqBits = 0;
  EventKind kind : 8 = EventKind::kCompletion;
  std::int32_t subject = 0;
  std::uint32_t epoch = 0;
};
static_assert(sizeof(Event) == 24);

/// Strict event order: (time, seq) ascending. seq is unique, so this is a
/// total order — the determinism contract both queues implement.
[[nodiscard]] inline bool fires_before(const Event& a,
                                       const Event& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// Packs a schedule() call into an Event. The caller keeps subject and
/// epoch within 32 bits; seq wraps at 2^56, which no campaign reaches.
[[nodiscard]] inline Event make_event(double time, std::uint64_t seq,
                                      EventKind kind, std::int64_t subject,
                                      std::uint64_t epoch) {
  REDUND_PRECONDITION(subject >= std::numeric_limits<std::int32_t>::min() &&
                          subject <= std::numeric_limits<std::int32_t>::max() &&
                          epoch <= std::numeric_limits<std::uint32_t>::max(),
                      "event subject and epoch fit in 32 bits");
  return Event{time, seq & kSeqMask, kind, static_cast<std::int32_t>(subject),
               static_cast<std::uint32_t>(epoch)};
}

/// Min-heap over (time, seq).
class EventQueue {
 public:
  /// Pre-sizes the backing storage for `capacity` simultaneously pending
  /// events; the event loop then never reallocates while its high-water
  /// mark stays below this.
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }

  // redund: hot
  void schedule(double time, EventKind kind, std::int64_t subject,
                std::uint64_t epoch = 0) {
    // Storage is pre-sized by reserve(); steady-state pushes never allocate.
    heap_.push_back(make_event(time, next_seq_++, kind, subject, epoch));  // redund-lint: allow(hot-alloc)
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_.capacity();
  }

  /// Earliest pending event, or nullptr when empty. The pointer is
  /// invalidated by the next schedule()/pop().
  [[nodiscard]] const Event* peek() const noexcept {
    return heap_.empty() ? nullptr : heap_.data();
  }

  /// Removes and returns the earliest event (schedule order on time ties).
  // redund: hot
  Event pop() {
    REDUND_PRECONDITION(!heap_.empty(), "pop() requires a pending event");
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    Event event = heap_.back();
    heap_.pop_back();
    return event;
  }

  /// Removes the maximal run of events sharing the head timestamp and
  /// returns a view of it in (time, seq) order, backed by `scratch`. The
  /// view is valid until the next call on this queue or on `scratch`.
  // redund: hot
  std::span<const Event> pop_run(std::vector<Event>& scratch) {
    scratch.clear();
    scratch.push_back(pop());  // redund-lint: allow(hot-alloc)
    const double time = scratch.front().time;
    while (!heap_.empty() && heap_.front().time == time) {
      // Amortized by the caller's reused scratch buffer; the run replaces
      // the per-event pops the supervisor would otherwise issue anyway.
      scratch.push_back(pop());  // redund-lint: allow(hot-alloc, hot-per-element-insert)
    }
    return {scratch.data(), scratch.size()};
  }

 private:
  // "a fires after b" — makes the max-heap algorithms yield a min-heap.
  struct After {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return fires_before(b, a);
    }
  };

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Calendar queue: a ring of day buckets over simulated time, stored as a
/// packed arena with a separate cache-line-packed header array.
///
/// An event at time t belongs to day floor(t / width); its bucket is
/// day mod nbuckets (nbuckets a power of two). The live events sit in one
/// flat arena grouped by bucket, each bucket's slice sorted by
/// (time, seq); a 16-byte header per bucket carries (min_time, count), so
/// the pop-side day scan touches *only* the header array — four headers
/// per cache line — and never the event storage until it has found the
/// minimum's bucket. pop() scans days forward from the current day: the
/// first bucket whose header's min actually belongs to the day under
/// inspection holds the global minimum, because equal times share a day
/// and later days hold strictly later times. If a whole lap (nbuckets
/// days) finds nothing, the next event is more than one "year" away and a
/// direct min over the headers relocates the cursor — the standard
/// sparse-queue fallback, also header-only.
///
/// The arena is built in bulk — histogram, prefix-sum, scatter, per-slice
/// sort — from the staging buffer at the first pop (a cold campaign
/// schedules every initial event up front) and again at every rebuild.
/// A build of n events costs O(n) plus O(k log k) per slice of k events:
/// most slices hold a few events, but a fold of overflow re-arm waves
/// puts thousands of same-time events in one slice, out of seq order
/// (see sort_slice_). Bulk building into one flat array replaces the
/// per-bucket vector ring of the previous layout, whose initial
/// distribution paid a malloc and a cache miss per bucket. Events
/// scheduled after a build go to a small side min-heap (the overflow);
/// pop compares the arena front with the overflow front, and a rebuild
/// folds the overflow back into the arena whenever it outgrows a fraction
/// of the live set (or the arena drains past the shrink band). Every
/// event scheduled after a build carries a larger seq than every arena
/// event, so on a shared timestamp the arena run drains strictly before
/// the overflow run — (time, seq) order holds across the two stores by
/// construction.
///
/// Days are compared as exact integers held in doubles; width_ is clamped
/// so day numbers stay below 2^50 and the floor/step/compare arithmetic is
/// exact. Negative times are not supported (the runtime starts at t = 0).
class CalendarQueue {
 public:
  CalendarQueue() { reset_geometry_(); }

  /// Pre-sizes the staging buffer for the initial bulk load (see
  /// schedule()); the arena allocates lazily at the first build.
  void reserve(std::size_t capacity) {
    if (size_ != 0) return;  // Only meaningful before the first schedule.
    staged_.reserve(capacity);
  }

  // redund: hot
  void schedule(double time, EventKind kind, std::int64_t subject,
                std::uint64_t epoch = 0) {
    const Event event = make_event(time, next_seq_++, kind, subject, epoch);
    ++size_;
    max_time_ = time > max_time_ ? time : max_time_;
    // Until the first pop the queue only accumulates (a cold campaign
    // schedules every initial event up front), so events are staged in a
    // plain vector and the arena is built once, with the width learned
    // from the whole initial set.
    if (staging_) {
      staged_.push_back(event);  // redund-lint: allow(hot-alloc)
      return;
    }
    overflow_.push_back(event);  // redund-lint: allow(hot-alloc)
    std::push_heap(overflow_.begin(), overflow_.end(), After_{});
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Earliest pending event, or nullptr when empty. Amortized O(1); the
  /// pointer is invalidated by the next schedule()/pop()/pop_run().
  [[nodiscard]] const Event* peek() {
    if (size_ == 0) return nullptr;
    if (staging_) flush_();
    const Event* arena_front = arena_min_();
    if (overflow_.empty()) return arena_front;
    const Event* overflow_front = overflow_.data();
    if (arena_front == nullptr ||
        fires_before(*overflow_front, *arena_front)) {
      return overflow_front;
    }
    return arena_front;
  }

  /// Removes and returns the earliest event (schedule order on time ties).
  // redund: hot
  Event pop() {
    REDUND_PRECONDITION(size_ != 0, "pop() requires a pending event");
    // Amortized calendar rebuild: flush_/rebuild_ regrow the buckets, but
    // only on geometry changes (O(1) amortized per event, audited).
    // redund-lint: allow(transitive-hot-alloc)
    if (staging_) flush_();
    maybe_rebuild_();  // redund-lint: allow(transitive-hot-alloc)
    const Event* arena_front = arena_min_();
    if (arena_front != nullptr &&
        (overflow_.empty() ||
         fires_before(*arena_front, overflow_.front()))) {
      const Event event = *arena_front;
      pop_arena_front_();
      --size_;
      current_day_ = day_(event.time);  // Same-day successors hit on step 0.
      return event;
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), After_{});
    const Event event = overflow_.back();
    overflow_.pop_back();
    --size_;
    current_day_ = day_(event.time);
    return event;
  }

  /// Removes the maximal run of events sharing the head timestamp and
  /// returns a view of it in (time, seq) order. A run wholly inside the
  /// arena — the common case, and the campaign-wide same-timestamp
  /// deadline waves especially — is returned zero-copy from the arena
  /// slice; `scratch` backs the view only when the run spans the overflow
  /// heap. The view is valid until the next call on this queue.
  // redund: hot
  std::span<const Event> pop_run(std::vector<Event>& scratch) {
    REDUND_PRECONDITION(size_ != 0, "pop_run() requires a pending event");
    // Same amortized-rebuild exception as pop() above.
    // redund-lint: allow(transitive-hot-alloc)
    if (staging_) flush_();
    maybe_rebuild_();  // redund-lint: allow(transitive-hot-alloc)
    const Event* arena_front = arena_min_();
    const bool arena_first =
        arena_front != nullptr &&
        (overflow_.empty() || fires_before(*arena_front, overflow_.front()));
    const double time =
        arena_first ? arena_front->time : overflow_.front().time;
    current_day_ = day_(time);
    if (arena_first) {
      // All equal times share the bucket, and the slice is sorted, so the
      // run is a contiguous prefix of the minimum's slice.
      const std::size_t b = peek_bucket_;
      Header& header = headers_[b];
      const Event* front = arena_.data() + begin_[b];
      std::size_t run = 1;
      while (run < header.count && front[run].time == time) ++run;
      begin_[b] += static_cast<std::uint32_t>(run);
      header.count -= static_cast<std::uint32_t>(run);
      if (header.count != 0) header.min_time = arena_.data()[begin_[b]].time;
      arena_live_ -= run;
      size_ -= run;
      peek_bucket_ = kNoBucket;
      if (overflow_.empty() || overflow_.front().time != time) {
        return {front, run};  // Zero-copy: the slice outlives this call.
      }
      scratch.assign(front, front + run);
    } else {
      scratch.clear();
    }
    // Overflow events on the shared timestamp: strictly later seqs than
    // any arena event (see class comment), so appending keeps the order.
    while (!overflow_.empty() && overflow_.front().time == time) {
      std::pop_heap(overflow_.begin(), overflow_.end(), After_{});
      // Rare path (overflow sharing the head timestamp); scratch is the
      // caller's reused buffer, so the growth amortizes away.
      scratch.push_back(overflow_.back());  // redund-lint: allow(hot-alloc, hot-per-element-insert)
      overflow_.pop_back();
      --size_;
    }
    return {scratch.data(), scratch.size()};
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  /// Longest slice the fold sorts by insertion (see sort_slice_).
  static constexpr std::size_t kInsertionSortMax = 32;

  /// One day-ring header: the bucket's earliest pending time and its live
  /// event count. 16 bytes — four headers per cache line — so the day
  /// scan streams through headers without touching event storage.
  struct Header {
    double min_time = 0.0;
    std::uint32_t count = 0;
    std::uint32_t pad_ = 0;
  };
  static_assert(sizeof(Header) == 16);

  // "a fires after b" — makes the max-heap algorithms yield a min-heap.
  struct After_ {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return fires_before(b, a);
    }
  };

  // Multiplying by the cached reciprocal instead of dividing saves a
  // hardware divide on the hottest path. The rounding can differ from a
  // true division by one day near day boundaries, but the queue only needs
  // day_ to be one fixed monotone map from time to integral doubles — and
  // it is: equal times share a day, later times never get earlier days.
  [[nodiscard]] double day_(double time) const noexcept {
    return std::floor(time * inv_width_);
  }
  [[nodiscard]] std::size_t bucket_of_day_(double day) const noexcept {
    return static_cast<std::size_t>(day) & (headers_.size() - 1);
  }
  [[nodiscard]] std::size_t bucket_index_(double time) const noexcept {
    return bucket_of_day_(day_(time));
  }

  /// The arena's earliest event (cached via peek_bucket_), or nullptr
  /// when the arena is drained.
  [[nodiscard]] const Event* arena_min_() {
    if (arena_live_ == 0) return nullptr;
    if (peek_bucket_ == kNoBucket) locate_min_();
    return arena_.data() + begin_[peek_bucket_];
  }

  void pop_arena_front_() {
    const std::size_t b = peek_bucket_;
    Header& header = headers_[b];
    ++begin_[b];
    --header.count;
    if (header.count != 0) header.min_time = arena_.data()[begin_[b]].time;
    --arena_live_;
    peek_bucket_ = kNoBucket;
  }

  /// Finds the arena's earliest event's bucket and caches it in
  /// peek_bucket_. Phase 1 walks at most one lap of days from
  /// current_day_; phase 2 (the next event is over a year away) takes the
  /// minimum over all headers. Both phases read only the 16-byte headers.
  /// min_time ties across buckets cannot happen — equal times share a day
  /// and therefore a bucket — so no seq tie-break is needed here.
  // redund: hot
  void locate_min_() {

    const std::size_t lap = headers_.size();
    const Header* headers = headers_.data();
    for (std::size_t step = 0; step < lap; ++step) {
      const double day = current_day_ + static_cast<double>(step);
      const std::size_t b = bucket_of_day_(day);
      // The scan order is a fixed ring walk over the header array; at
      // four headers a line, +8 days is two lines ahead — far enough to
      // hide the miss behind this step's compare, close enough to stay
      // in the L1 streaming window.
      __builtin_prefetch(headers + bucket_of_day_(day + 8.0));
      if (headers[b].count != 0 && day_(headers[b].min_time) == day) {
        current_day_ = day;
        peek_bucket_ = b;
        return;
      }
    }
    std::size_t best = kNoBucket;
    for (std::size_t b = 0; b < lap; ++b) {
      if (headers[b].count == 0) continue;
      if (best == kNoBucket ||
          headers[b].min_time < headers[best].min_time) {
        best = b;
      }
    }
    current_day_ = day_(headers[best].min_time);
    peek_bucket_ = best;
  }

  /// Folds the overflow back into the arena when it outgrows the live
  /// set, and re-learns the geometry when the arena drains past the
  /// shrink band. Called at pop boundaries only, so a view returned by
  /// the previous pop_run() is never invalidated mid-batch. Both
  /// thresholds are deliberately lazy: each fold costs O(arena +
  /// overflow), so folding at a fraction f of the arena pays (1 + f)/f
  /// rebuild passes per overflow event — under a sustained reissue storm
  /// (a chaos schedule's dropout bursts) f = 1/4 meant ~5x write
  /// amplification and the rebuild dominated the whole campaign. At
  /// f = 1 the amplification is ~2x, and in the meantime the overflow
  /// min-heap serves pops at the reference queue's O(log n) — strictly
  /// better than rebuilding more eagerly.
  void maybe_rebuild_() {
    const bool overflow_heavy =
        overflow_.size() > 4096 && overflow_.size() > arena_live_;
    if (arena_live_ < rebuild_lo_ || overflow_heavy) rebuild_();
  }

  /// Sizes the ring to ~size/2 buckets (~2 events per bucket on average,
  /// though one same-time wave fills a single bucket — halves the header
  /// footprint and the build's scatter misses) and derives the width from
  /// the time spread [lo, hi]: ~twice the mean gap (Brown's rule of thumb).
  /// Clamped below so day numbers remain exact integers (and day +
  /// lap-step sums exact) up to 2^50.
  void set_geometry_(std::size_t n, double lo, double hi) {
    std::size_t nbuckets = kMinBuckets;
    while (nbuckets < n / 2) nbuckets *= 2;

    const double span = hi - lo;
    double width = n > 0 ? 2.0 * span / static_cast<double>(n) : 0.0;
    const double magnitude = std::max({std::abs(hi), std::abs(lo), 1.0});
    width = std::max(width, magnitude / 1.125899906842624e15);  // 2^50
    width_ = std::max(width, 1e-300);
    inv_width_ = 1.0 / width_;

    headers_.assign(nbuckets, Header{});
    begin_.resize(nbuckets);
    counts_.assign(nbuckets, 0);
    rebuild_lo_ = n / 16;
    peek_bucket_ = kNoBucket;
  }

  void reset_geometry_() {
    width_ = 1.0;
    inv_width_ = 1.0;
    current_day_ = 0.0;
    max_time_ = 0.0;  // The queue is empty; the span restarts fresh.
    headers_.assign(kMinBuckets, Header{});
    begin_.assign(kMinBuckets, 0);
    rebuild_lo_ = 0;
    arena_live_ = 0;
    peek_bucket_ = kNoBucket;
  }

  /// Bulk build core: histogram, prefix-sum, scatter, per-slice sort.
  /// O(n) plus O(k log k) per k-event slice (sort_slice_); no per-bucket
  /// allocation — the arena double-buffers through arena_spare_ and every
  /// auxiliary array recycles its storage across builds. `for_each` must
  /// visit the same n events in the same order on every invocation.
  template <typename ForEach>
  void build_core_(std::size_t n, double lo, double hi, double min_time,
                   const ForEach& for_each) {
    set_geometry_(n, lo, hi);
    current_day_ = day_(min_time);

    for_each([&](const Event& event) {
      ++counts_[bucket_index_(event.time)];
    });
    std::uint32_t cursor = 0;
    for (std::size_t b = 0; b < headers_.size(); ++b) {
      begin_[b] = cursor;
      cursor += counts_[b];
      counts_[b] = begin_[b];  // Reused as the scatter cursor below.
    }
    arena_spare_.ensure(n);
    Event* spare = arena_spare_.data();
    for_each([&](const Event& event) {
      spare[counts_[bucket_index_(event.time)]++] = event;
    });
    std::swap(arena_, arena_spare_);
    arena_live_ = n;
    Event* arena = arena_.data();
    for (std::size_t b = 0; b < headers_.size(); ++b) {
      const std::uint32_t begin = begin_[b];
      const std::uint32_t count = counts_[b] - begin;
      if (count == 0) continue;
      sort_slice_(arena + begin, count);
      headers_[b].min_time = arena[begin].time;
      headers_[b].count = count;
    }
  }

  /// Builds the arena from the staged initial events (schedule() has
  /// already folded their times into max_time_).
  void build_(std::vector<Event>& source) {
    overflow_.clear();
    arena_live_ = source.size();
    if (source.empty()) {
      reset_geometry_();
      return;
    }
    double lo = source.front().time;
    double hi = lo;
    for (const Event& event : source) {
      lo = std::min(lo, event.time);
      hi = std::max(hi, event.time);
    }
    build_core_(source.size(), lo, hi, lo, [&](const auto& visit) {
      for (const Event& event : source) visit(event);
    });
  }

  /// Sorts one slice by (time, seq). Events from the old arena arrive
  /// nearly in order (each old slice is sorted, and scatter keeps the
  /// visit order), but events folded in from the overflow arrive in
  /// heap-array order, which scrambles seq within a timestamp. A
  /// same-time re-arm wave folds as thousands of events on a few
  /// timestamps (a headline fold's largest slice held 8,234 events on 2
  /// times), where insertion sort pays one shift per inversion: O(k^2).
  /// So insertion sort handles only short slices; a longer one that is
  /// out of order goes to std::sort, O(k log k) and in place. The order
  /// is a strict total order (seq is unique), so any correct sort yields
  /// the same slice.
  static void sort_slice_(Event* events, std::size_t n) noexcept {
    if (n > kInsertionSortMax) {
      if (!std::is_sorted(events, events + n, fires_before)) {
        std::sort(events, events + n, fires_before);
      }
      return;
    }
    for (std::size_t i = 1; i < n; ++i) {
      if (!fires_before(events[i], events[i - 1])) continue;
      const Event event = events[i];
      std::size_t j = i;
      do {
        events[j] = events[j - 1];
        --j;
      } while (j > 0 && fires_before(event, events[j - 1]));
      events[j] = event;
    }
  }

  /// Ends the staging phase at the first pop with one bulk build.
  void flush_() {
    staging_ = false;
    build_(staged_);
    staged_.clear();
    staged_.shrink_to_fit();  // The bulk load happens at most once.
  }

  /// Folds the live arena slices plus the overflow into a fresh arena —
  /// without materializing a gather buffer. An earlier version copied
  /// everything into a collect vector and rebuilt from that, paying one
  /// extra full write+read pass over every live event per fold; here the
  /// histogram and scatter passes read the old slice map (swapped aside,
  /// since set_geometry_ overwrites it) and the overflow directly, in
  /// exactly the order the gather produced — the resulting arena is
  /// byte-identical. The span comes cheap: lo is exact from the old
  /// 16-byte headers and the overflow min-heap front (no event touched),
  /// hi is the monotone high-water mark of every scheduled time — an
  /// upper bound, which only widens Brown's-rule bucket width and never
  /// affects pop order.
  void rebuild_() {
    const std::size_t n = arena_live_ + overflow_.size();
    if (n == 0) {
      overflow_.clear();
      reset_geometry_();
      return;
    }
    double lo = std::numeric_limits<double>::infinity();
    for (const Header& header : headers_) {
      if (header.count != 0) lo = std::min(lo, header.min_time);
    }
    if (!overflow_.empty()) lo = std::min(lo, overflow_.front().time);

    headers_spare_.swap(headers_);
    begin_spare_.swap(begin_);
    // Both build_core_ passes run before the arena buffers swap, so the
    // old slices stay addressable through arena_ for the whole fold.
    build_core_(n, lo, max_time_, lo, [&](const auto& visit) {
      const Event* old_arena = arena_.data();
      for (std::size_t b = 0; b < headers_spare_.size(); ++b) {
        const Event* slice = old_arena + begin_spare_[b];
        const std::uint32_t count = headers_spare_[b].count;
        for (std::uint32_t i = 0; i < count; ++i) visit(slice[i]);
      }
      for (const Event& event : overflow_) visit(event);
    });
    overflow_.clear();
  }

  /// Grow-only uninitialized event buffer. The build scatter overwrites
  /// exactly the [0, live) prefix and every read goes through
  /// begin_/Header::count, so elements are never default-constructed — a
  /// std::vector here would value-initialize megabytes per build.
  struct Arena {
    std::unique_ptr<Event[]> events;
    std::size_t capacity = 0;

    void ensure(std::size_t n) {
      if (capacity >= n) return;
      events = std::make_unique_for_overwrite<Event[]>(n);
      capacity = n;
    }
    [[nodiscard]] Event* data() const noexcept { return events.get(); }
  };

  std::vector<Header> headers_;        ///< Packed (min_time, count) ring.
  std::vector<std::uint32_t> begin_;   ///< Arena offset of each slice front.
  std::vector<Header> headers_spare_;  ///< Old slice map during a fold.
  std::vector<std::uint32_t> begin_spare_;  ///< Its begin array (recycled).
  Arena arena_;                        ///< Live events grouped by bucket.
  Arena arena_spare_;                  ///< Build double-buffer (recycled).
  std::vector<Event> overflow_;        ///< Min-heap of post-build schedules.
  std::vector<std::uint32_t> counts_;  ///< Build histogram (recycled).
  std::vector<Event> staged_;          ///< Initial bulk load, pre-first-pop.
  bool staging_ = true;                ///< True until the first pop.
  double width_ = 1.0;
  double inv_width_ = 1.0;             ///< Cached 1 / width_ for day_().
  double current_day_ = 0.0;           ///< Day the pop scan resumes from.
  double max_time_ = 0.0;              ///< High-water mark of schedule times.
  std::size_t peek_bucket_ = kNoBucket;  ///< Bucket holding the cached min.
  std::size_t size_ = 0;               ///< Staged + arena + overflow.
  std::size_t arena_live_ = 0;         ///< Live events in the arena.
  std::size_t rebuild_lo_ = 0;         ///< Rebuild when arena drains below.
  std::uint64_t next_seq_ = 0;
};

}  // namespace redund::runtime
