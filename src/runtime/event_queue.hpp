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
//   * CalendarQueue — the queue the supervisor's loop runs on. A bucketed
//     ring (Brown's calendar queue, CACM 1988): events hash into "day"
//     buckets by floor(time / width), pop scans the ring from the current
//     day. O(1) amortized schedule/pop when the bucket width tracks the
//     mean event spacing, which periodic rebuilds maintain. Pops in
//     exactly the same (time, seq) order as the binary heap: equal times
//     always land in the same bucket (same day), buckets are kept sorted,
//     and the day scan visits strictly increasing times.
//   * EventQueue — a plain std::vector binary heap driven by
//     std::push_heap/pop_heap. O(log n) per operation; the pop-order
//     reference the calendar must match pop-for-pop (the queue tests and
//     bench/e2e's hold probe run both).
//
// The calendar also exposes pop_run(): the maximal same-timestamp run at
// the head removed in one call, as an EventRun of two contiguous parts —
// the supervisor's batch drain consumes runs, not single events. The part
// held in the arena comes back zero-copy (every initial deadline of a
// campaign shares one timestamp); only the events on that timestamp still
// waiting in the overflow heap are copied out.
#pragma once

#include <algorithm>
#include <bit>
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

/// The supervisor's pending-event queue. The calendar is the only kind;
/// the enum is kept only so callers that still name it compile (see
/// RuntimeConfig::queue).
enum class QueueKind : std::uint8_t {
  kCalendar,  ///< CalendarQueue.
};

/// Width of Event::seq: 2^56 schedules per queue, far past any campaign.
inline constexpr int kSeqBits = 56;
inline constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

/// One scheduled event. `subject` is a unit index (task index for
/// kAdaptiveCheck, fault index for kFault/kFaultEnd); `epoch` invalidates
/// stale unit timers. 24 bytes: seq and kind share one word, and subject
/// and epoch hold 32 bits each — a campaign whose unit slots or tasks
/// would not fit is rejected by platform::Scheduler's constructor, one
/// with too many faults by the supervisor's validate_config, and unit
/// epochs are 32-bit already (UnitTable::epoch).
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

/// A same-timestamp run removed by pop_run(): every event of `head`, then
/// every event of `tail`, in (time, seq) order. `head` is never empty.
/// Both views stay valid until the next pop()/pop_run() on the queue that
/// returned them, or the next change to the caller's scratch buffer.
struct EventRun {
  std::span<const Event> head;
  std::span<const Event> tail;
};

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

/// Calendar queue: a ring of day buckets over simulated time, stored as
/// one packed event buffer (the arena) with a separate cache-line-packed
/// header array.
///
/// An event at time t belongs to day floor(t / width); its bucket is
/// day mod nbuckets (nbuckets a power of two). The live events sit in the
/// arena grouped by bucket, each bucket's slice sorted by (time, seq); a
/// 16-byte header per bucket carries (min_time, count, offset), so the
/// pop-side day scan touches *only* the header array — four headers per
/// cache line — and never the event storage until it has found the
/// minimum's bucket. pop() scans days forward from the current day: the
/// first bucket whose header's min actually belongs to the day under
/// inspection holds the global minimum, because equal times share a day
/// and later days hold strictly later times. If a whole lap (nbuckets
/// days) finds nothing, the next event is more than one "year" away and a
/// direct min over the headers relocates the cursor — the standard
/// sparse-queue fallback, also header-only.
///
/// The arena is the queue's only event buffer besides the overflow heap.
/// Until the first pop the queue only accumulates (a cold campaign
/// schedules every initial event up front), so schedule() appends to the
/// arena storage unsorted. The first pop builds the ring there in place:
/// histogram, prefix-sum, a stable permutation to bucket order, per-slice
/// sort (see build_). Events scheduled after a build go to a small side
/// min-heap (the overflow); pop compares the arena front with the
/// overflow front. When the overflow outgrows the live arena (or the
/// arena drains past the shrink band) a fold rebuilds the ring in the
/// same storage: it slides the live slices to the front, appends the
/// overflow in seq order, and builds again. The arena only grows — when a
/// fold's live set outgrows it — so a fold that fits allocates no second
/// event buffer. Every event scheduled after a build carries a larger seq
/// than every arena event, so on a shared timestamp the arena run drains
/// strictly before the overflow run — (time, seq) order holds across the
/// two stores by construction, and pop_run() hands out the arena part
/// zero-copy even when overflow events share its timestamp.
///
/// Days are compared as exact integers held in doubles; width_ is clamped
/// so day numbers stay below 2^50 and the floor/step/compare arithmetic is
/// exact. Negative times are not supported (the runtime starts at t = 0).
class CalendarQueue {
 public:
  /// Pre-sizes the arena for the initial bulk load (see schedule()).
  void reserve(std::size_t capacity) {
    if (size_ != 0) return;  // Only meaningful before the first schedule.
    arena_.reserve(capacity);
  }

  // redund: hot
  void schedule(double time, EventKind kind, std::int64_t subject,
                std::uint64_t epoch = 0) {
    const Event event = make_event(time, next_seq_++, kind, subject, epoch);
    ++size_;
    max_time_ = time > max_time_ ? time : max_time_;
    // Until the first pop, events are staged unsorted in the arena
    // storage and the ring is built once, with the width learned from the
    // whole initial set.
    if (staging_) {
      arena_.push_back(event);  // redund-lint: allow(hot-alloc)
      return;
    }
    overflow_.push_back(event);  // redund-lint: allow(hot-alloc)
    std::push_heap(overflow_.begin(), overflow_.end(), After_{});
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Bytes held by the queue's buffers (arena, headers, overflow heap),
  /// counted by capacity: what the queue keeps allocated, not what is live.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return (arena_.capacity() + overflow_.capacity()) * sizeof(Event) +
           headers_.capacity() * sizeof(Header);
  }
  /// Buckets in the day ring.
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return headers_.size();
  }

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

  /// Removes the maximal run of events sharing the head timestamp. When
  /// the arena holds the head, `head` is its run, zero-copy from the
  /// arena slice, and `tail` holds the overflow events on the same
  /// timestamp, copied into `scratch` (often none). Otherwise the whole
  /// run comes from the overflow: `head` is backed by `scratch` and `tail`
  /// is empty.
  // redund: hot
  EventRun pop_run(std::vector<Event>& scratch) {
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
    std::span<const Event> head;
    if (arena_first) {
      // All equal times share the bucket, and the slice is sorted, so the
      // run is a contiguous prefix of the minimum's slice.
      Header& header = headers_[peek_bucket_];
      std::size_t run = 1;
      while (run < header.count && arena_front[run].time == time) ++run;
      header.offset += static_cast<std::uint32_t>(run);
      header.count -= static_cast<std::uint32_t>(run);
      if (header.count != 0) header.min_time = arena_front[run].time;
      arena_live_ -= run;
      size_ -= run;
      peek_bucket_ = kNoBucket;
      head = {arena_front, run};  // The slice outlives this call.
    }
    // Overflow events on the shared timestamp: strictly later seqs than
    // any arena event (see class comment), so they follow the arena run.
    scratch.clear();
    while (!overflow_.empty() && overflow_.front().time == time) {
      std::pop_heap(overflow_.begin(), overflow_.end(), After_{});
      // scratch is the caller's reused buffer, so the growth amortizes
      // away.
      scratch.push_back(overflow_.back());  // redund-lint: allow(hot-alloc, hot-per-element-insert)
      overflow_.pop_back();
      --size_;
    }
    if (!arena_first) return {.head = scratch, .tail = {}};
    return {.head = head, .tail = scratch};
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  /// Longest slice the build sorts by insertion (see sort_slice_).
  static constexpr std::size_t kInsertionSortMax = 32;
  /// Most off-wave events sort_wave_ sets aside (a stack buffer).
  static constexpr std::size_t kMaxStragglers = 64;
  /// Widest overflow seq range, per overflow event, that the fold ranks
  /// in a bitmap (see append_overflow_): 64 seqs per event is one bitmap
  /// word per event.
  static constexpr std::uint64_t kRankSpan = 64;
  /// Swap walkers the in-place permutation interleaves (see permute_).
  static constexpr std::size_t kWalkers = 8;

  /// One day-ring header: the bucket's earliest pending time, its live
  /// event count and the arena index of its slice front. 16 bytes — four
  /// headers per cache line — so the day scan streams through headers
  /// without touching event storage.
  struct Header {
    double min_time = 0.0;
    std::uint32_t count = 0;
    std::uint32_t offset = 0;
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
    return arena_.data() + headers_[peek_bucket_].offset;
  }

  void pop_arena_front_() {
    Header& header = headers_[peek_bucket_];
    ++header.offset;
    --header.count;
    if (header.count != 0) header.min_time = arena_[header.offset].time;
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
  /// footprint and the build's placement misses) and derives the width
  /// from the time spread [lo, hi]: ~twice the mean gap (Brown's rule of
  /// thumb). Clamped below so day numbers remain exact integers (and
  /// day + lap-step sums exact) up to 2^50.
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
    rebuild_lo_ = n / 16;
    peek_bucket_ = kNoBucket;
  }

  /// Builds the ring over the arena's events [0, size) in place, given
  /// their time span [lo, hi]: histogram, prefix-sum, stable permutation
  /// to bucket order, per-slice sort. The only extra storage is a
  /// temporary 32-bit destination per event, freed on return. The
  /// permutation is stable, so each slice keeps the order the events had
  /// in the arena; a build of n events costs O(n) plus the slice sorts.
  void build_(double lo, double hi) {
    const std::size_t n = arena_.size();
    set_geometry_(n, lo, hi);
    current_day_ = day_(lo);
    arena_live_ = n;
    Event* events = arena_.data();
    Header* headers = headers_.data();
    const auto dest = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = bucket_index_(events[i].time);
      dest[i] = static_cast<std::uint32_t>(b);
      ++headers[b].count;
    }
    std::uint32_t cursor = 0;
    for (std::size_t b = 0; b < headers_.size(); ++b) {
      headers[b].offset = cursor;
      cursor += headers[b].count;
    }
    // Each event's slot: its bucket's next free one, in arena order. The
    // offsets serve as the cursors and end at their slices' ends.
    for (std::size_t i = 0; i < n; ++i) dest[i] = headers[dest[i]].offset++;
    permute_(events, dest.get(), n);
    for (std::size_t b = 0; b < headers_.size(); ++b) {
      Header& header = headers[b];
      header.offset -= header.count;
      if (header.count == 0) continue;
      sort_slice_(events + header.offset, header.count);
      header.min_time = events[header.offset].time;
    }
  }

  /// Moves each events[i] to events[dest[i]] in place (dest a
  /// permutation of [0, n)). A swap of position i with dest[i] settles
  /// one event at its destination and never unsettles another, so at
  /// most n swaps finish the job in any interleaving. A single walker is
  /// latency-bound — every swap waits on a miss at a random slot — so
  /// kWalkers walkers, each owning a stripe of start positions, take
  /// turns, and their misses overlap.
  static void permute_(Event* events, std::uint32_t* dest,
                       std::size_t n) noexcept {
    std::size_t at[kWalkers];
    std::size_t stop[kWalkers];
    for (std::size_t w = 0; w < kWalkers; ++w) {
      at[w] = n * w / kWalkers;
      stop[w] = n * (w + 1) / kWalkers;
    }
    for (bool busy = true; busy;) {
      busy = false;
      for (std::size_t w = 0; w < kWalkers; ++w) {
        std::size_t i = at[w];
        while (i < stop[w] && dest[i] == i) ++i;
        at[w] = i;
        if (i == stop[w]) continue;
        busy = true;
        const std::uint32_t j = dest[i];
        std::swap(events[i], events[j]);
        dest[i] = dest[j];
        dest[j] = j;
      }
    }
  }

  /// Sorts one slice by (time, seq). Short slices go to insertion sort,
  /// and a sorted slice is left as it is. A long unsorted slice is
  /// usually a same-time wave (every deadline a batch re-arms) with a few
  /// other events of its day among it; the builds keep each timestamp's
  /// events in seq order (see rebuild_), so sort_wave_ places such a
  /// slice in O(k). Anything else goes to std::sort, O(k log k) and in
  /// place. The order is a strict total order (seq is unique), so every
  /// path yields the same slice.
  static void sort_slice_(Event* events, std::size_t n) noexcept {
    if (n > kInsertionSortMax) {
      if (!std::is_sorted(events, events + n, fires_before) &&
          !sort_wave_(events, n)) {
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

  /// Sorts a slice made of one timestamp's events (the wave), already in
  /// seq order, plus at most kMaxStragglers events at other times: the
  /// wave closes ranks while the stragglers move to a stack buffer, where
  /// they are sorted, and they return before and after the wave. The
  /// wave's time is the slice's majority vote (Boyer–Moore). Returns
  /// false, with the slice permuted, when the slice is not of that shape.
  static bool sort_wave_(Event* events, std::size_t n) noexcept {
    double wave = events[0].time;
    std::size_t votes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (votes == 0) wave = events[i].time;
      if (events[i].time == wave) {
        ++votes;
      } else {
        --votes;
      }
    }
    Event aside[kMaxStragglers];
    std::size_t set_aside = 0;
    std::size_t early = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Event event = events[i];
      if (event.time == wave &&
          (kept == 0 || events[kept - 1].seq < event.seq)) {
        events[kept++] = event;
      } else if (event.time != wave && set_aside < kMaxStragglers) {
        early += event.time < wave ? 1 : 0;
        aside[set_aside++] = event;
      } else {  // Not a wave slice: refill the gap [kept, i).
        std::copy(aside, aside + set_aside, events + kept);
        return false;
      }
    }
    std::copy_backward(events, events + kept, events + early + kept);
    std::sort(aside, aside + set_aside, fires_before);
    std::copy(aside, aside + early, events);
    std::copy(aside + early, aside + set_aside, events + early + kept);
    return true;
  }

  /// Ends the staging phase at the first pop with one bulk build (the
  /// staged events' latest time is max_time_).
  void flush_() {
    staging_ = false;
    double lo = arena_.front().time;
    for (const Event& event : arena_) lo = std::min(lo, event.time);
    build_(lo, max_time_);
  }

  /// Folds the live arena slices plus the overflow into a new ring in the
  /// same storage. The live slices slide to the front of the arena (they
  /// lie in bucket order, so each moves left or stays), the overflow is
  /// appended in seq order, and build_ runs over the result. Within every
  /// timestamp the build's input is then in seq order — each old slice is
  /// sorted, and all overflow seqs follow all arena seqs — so a re-arm
  /// wave keeps its order and sort_wave_ only places its stragglers. The
  /// span comes cheap: lo is exact from the 16-byte headers and the
  /// overflow min-heap front (no event touched), hi is the monotone
  /// high-water mark of every scheduled time — an upper bound, which only
  /// widens Brown's-rule bucket width and never affects pop order.
  /// pop()/pop_run() fold only a non-empty queue.
  void rebuild_() {
    double lo = std::numeric_limits<double>::infinity();
    std::size_t live = 0;
    for (const Header& header : headers_) {
      if (header.count == 0) continue;
      lo = std::min(lo, header.min_time);
      if (header.offset != live) {
        const Event* slice = arena_.data() + header.offset;
        std::copy(slice, slice + header.count, arena_.data() + live);
      }
      live += header.count;
    }
    if (!overflow_.empty()) lo = std::min(lo, overflow_.front().time);
    arena_.resize(live);
    append_overflow_();
    overflow_.clear();
    build_(lo, max_time_);
  }

  /// Appends the overflow heap to the arena in seq order. The overflow's
  /// seqs lie in [first, next_seq_); when that range is at most kRankSpan
  /// per event, a bitmap over it ranks each seq (a word's prefix count
  /// plus a popcount) and each event is written straight to its rank.
  /// A wider range — a long-lived overflow event among many popped ones —
  /// appends in heap-array order, and the slice sorts absorb the disorder.
  void append_overflow_() {
    const std::size_t live = arena_.size();
    const std::size_t m = overflow_.size();
    std::uint64_t first = next_seq_;
    for (const Event& event : overflow_) {
      first = std::min<std::uint64_t>(first, event.seq);
    }
    const std::uint64_t range = next_seq_ - first;
    if (m == 0 || range > kRankSpan * m) {
      arena_.insert(arena_.end(), overflow_.begin(), overflow_.end());
      return;
    }
    const auto words = static_cast<std::size_t>(range / 64 + 1);
    std::vector<std::uint64_t> bits(words, 0);
    for (const Event& event : overflow_) {
      const std::uint64_t at = event.seq - first;
      bits[at / 64] |= std::uint64_t{1} << (at % 64);
    }
    std::vector<std::uint32_t> ranks(words);
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < words; ++w) {
      ranks[w] = rank;
      rank += static_cast<std::uint32_t>(std::popcount(bits[w]));
    }
    arena_.resize(live + m);
    Event* out = arena_.data() + live;
    for (const Event& event : overflow_) {
      const std::uint64_t at = event.seq - first;
      const std::uint64_t below = (std::uint64_t{1} << (at % 64)) - 1;
      const auto within = std::popcount(bits[at / 64] & below);
      out[ranks[at / 64] + static_cast<std::uint32_t>(within)] = event;
    }
  }

  std::vector<Header> headers_;        ///< Packed (min_time, count, offset).
  /// The one event buffer: the staged initial events until the first
  /// pop, then the live slices grouped by bucket (dead slots before each
  /// slice's offset until the next fold).
  std::vector<Event> arena_;
  std::vector<Event> overflow_;        ///< Min-heap of post-build schedules.
  bool staging_ = true;                ///< True until the first pop.
  double width_ = 1.0;
  double inv_width_ = 1.0;             ///< Cached 1 / width_ for day_().
  double current_day_ = 0.0;           ///< Day the pop scan resumes from.
  double max_time_ = 0.0;              ///< High-water mark of schedule times.
  std::size_t peek_bucket_ = kNoBucket;  ///< Bucket holding the cached min.
  std::size_t size_ = 0;               ///< Arena + overflow.
  std::size_t arena_live_ = 0;         ///< Live events in the arena.
  std::size_t rebuild_lo_ = 0;         ///< Rebuild when arena drains below.
  std::uint64_t next_seq_ = 0;
};

}  // namespace redund::runtime
