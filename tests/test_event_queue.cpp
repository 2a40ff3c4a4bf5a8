// EventQueue / CalendarQueue semantics: the (time, seq) determinism
// contract, byte-identical pop order between the reference binary heap
// and the calendar ring on randomized and adversarial schedules, and
// stale-epoch events draining as no-ops in a campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/realize.hpp"
#include "rng/distributions.hpp"
#include "rng/engines.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/journal.hpp"
#include "runtime/supervisor.hpp"

namespace core = redund::core;
namespace rng = redund::rng;
namespace runtime = redund::runtime;

namespace {

using runtime::Event;
using runtime::EventKind;

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.seq == b.seq && a.kind == b.kind &&
         a.subject == b.subject && a.epoch == b.epoch;
}

/// Feeds both queues the same schedule/pop script and checks every popped
/// event matches field-for-field. `pop_every` interleaves pops between
/// schedules (0 = schedule everything, then drain).
void expect_identical_pop_order(const std::vector<double>& times,
                                std::size_t pop_every) {
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  std::size_t scheduled = 0;
  for (const double t : times) {
    heap.schedule(t, EventKind::kCompletion,
                  static_cast<std::int64_t>(scheduled));
    calendar.schedule(t, EventKind::kCompletion,
                      static_cast<std::int64_t>(scheduled));
    ++scheduled;
    if (pop_every != 0 && scheduled % pop_every == 0 && !heap.empty()) {
      const Event h = heap.pop();
      const Event c = calendar.pop();
      ASSERT_TRUE(same_event(h, c))
          << "diverged mid-stream at seq " << h.seq << " vs " << c.seq;
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const Event h = heap.pop();
    const Event c = calendar.pop();
    ASSERT_TRUE(same_event(h, c))
        << "diverged at drain: heap (t=" << h.time << ", seq=" << h.seq
        << ") calendar (t=" << c.time << ", seq=" << c.seq << ")";
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, TieBreakIsScheduleOrder) {
  runtime::CalendarQueue queue;
  queue.schedule(5.0, EventKind::kDeadline, 30);
  queue.schedule(1.0, EventKind::kCompletion, 10);
  queue.schedule(1.0, EventKind::kReissue, 20);  // Same time, later seq.
  EXPECT_EQ(queue.pop().subject, 10);
  EXPECT_EQ(queue.pop().subject, 20);
  EXPECT_EQ(queue.pop().subject, 30);
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, PeekMatchesPopAndIsStableAcrossSchedules) {
  runtime::CalendarQueue queue;
  queue.schedule(3.0, EventKind::kCompletion, 1);
  const Event* peeked = queue.peek();
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->subject, 1);
  queue.schedule(2.0, EventKind::kCompletion, 2);  // New minimum.
  peeked = queue.peek();
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->subject, 2);
  EXPECT_EQ(queue.pop().subject, 2);
  EXPECT_EQ(queue.pop().subject, 1);
}

TEST(EventQueueEquivalence, RandomizedSchedulesPopIdentically) {
  auto engine = rng::make_stream(0xE7E27ULL, 0);
  for (int round = 0; round < 5; ++round) {
    std::vector<double> times;
    times.reserve(5000);
    for (int i = 0; i < 5000; ++i) {
      times.push_back(rng::exponential(1.0, engine) * 100.0);
    }
    expect_identical_pop_order(times, 0);
    expect_identical_pop_order(times, 3);  // Interleaved schedule/pop.
  }
}

TEST(EventQueueEquivalence, EqualTimeStormPopsIdentically) {
  // Every initial deadline of a campaign lands on a single timestamp; the
  // whole burst must drain in schedule order from both queues.
  std::vector<double> times(20000, 1234.5);
  times.push_back(0.5);
  times.push_back(9999.0);
  expect_identical_pop_order(times, 0);
  expect_identical_pop_order(times, 7);
}

TEST(EventQueueEquivalence, SparseAndClusteredTimesPopIdentically) {
  // Clusters separated by year-scale gaps force the calendar's full-lap
  // fallback scan; tiny jitter within clusters exercises bucket sorting.
  auto engine = rng::make_stream(0x5CA77E2ULL, 1);
  std::vector<double> times;
  for (int cluster = 0; cluster < 20; ++cluster) {
    const double base = static_cast<double>(cluster) * 1e6;
    for (int i = 0; i < 200; ++i) {
      times.push_back(base + rng::exponential(0.01, engine));
    }
  }
  expect_identical_pop_order(times, 0);
  expect_identical_pop_order(times, 5);
}

TEST(EventQueueEquivalence, ReservedBulkLoadPopsIdentically) {
  // reserve() puts the calendar in bulk-load staging; the first pop builds
  // the ring. Both reserved and unreserved paths must match the heap.
  auto engine = rng::make_stream(0xB17ULL, 2);
  std::vector<double> times;
  for (int i = 0; i < 3000; ++i) {
    times.push_back(rng::exponential(2.0, engine));
  }
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  heap.reserve(times.size());
  calendar.reserve(times.size());
  std::int64_t subject = 0;
  for (const double t : times) {
    heap.schedule(t, EventKind::kCompletion, subject);
    calendar.schedule(t, EventKind::kCompletion, subject);
    ++subject;
  }
  while (!heap.empty()) {
    ASSERT_TRUE(same_event(heap.pop(), calendar.pop()));
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(EventQueueEquivalence, ScrambledOverflowFoldPopsIdentically) {
  // The fold's worst case: after the first pop ends staging, a large burst
  // on a handful of timestamps lands in the overflow min-heap, whose array
  // order scrambles seq within each timestamp. The fold then sorts a few
  // huge slices that arrive far from sorted (the re-arm waves of a
  // straggler-heavy campaign look like this).
  auto engine = rng::make_stream(0xF01DULL, 5);
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  heap.schedule(0.0, EventKind::kCompletion, -1);
  calendar.schedule(0.0, EventKind::kCompletion, -1);
  ASSERT_TRUE(same_event(heap.pop(), calendar.pop()));
  constexpr std::int64_t kBurst = 50000;
  for (std::int64_t s = 0; s < kBurst; ++s) {
    const double t = 1.0 + static_cast<double>(rng::uniform_below(4, engine));
    heap.schedule(t, EventKind::kReissue, s);
    calendar.schedule(t, EventKind::kReissue, s);
  }
  std::int64_t drained = 0;
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const Event h = heap.pop();
    const Event c = calendar.pop();
    ASSERT_TRUE(same_event(h, c))
        << "diverged at event " << drained << ": heap (t=" << h.time
        << ", seq=" << h.seq << ") calendar (t=" << c.time
        << ", seq=" << c.seq << ")";
    ++drained;
  }
  EXPECT_EQ(drained, kBurst);
  EXPECT_TRUE(calendar.empty());
}

// ------------------------------------------------------------- pop_run

/// A pop_run() result as one vector: its head, then its tail.
std::vector<Event> joined(const runtime::EventRun& run) {
  std::vector<Event> events(run.head.begin(), run.head.end());
  events.insert(events.end(), run.tail.begin(), run.tail.end());
  return events;
}

/// The heap's maximal head run, by single pops: what a calendar run must
/// equal.
std::vector<Event> pop_heap_run(runtime::EventQueue& heap) {
  std::vector<Event> run{heap.pop()};
  while (!heap.empty() && heap.peek()->time == run.front().time) {
    run.push_back(heap.pop());
  }
  return run;
}

/// Drains `runner` via pop_run and checks against the heap drained via
/// single pops: identical event stream, and every run maximal — all
/// members share the head timestamp and the next pending event (if any)
/// fires strictly later.
void expect_pop_run_matches_single_pops(runtime::CalendarQueue& runner,
                                        runtime::EventQueue& reference) {
  std::vector<Event> scratch;
  while (!runner.empty()) {
    const runtime::EventRun parts = runner.pop_run(scratch);
    ASSERT_FALSE(parts.head.empty());
    const std::vector<Event> run = joined(parts);
    const double time = run.front().time;
    for (const Event& event : run) {
      ASSERT_EQ(event.time, time);
      ASSERT_FALSE(reference.empty());
      ASSERT_TRUE(same_event(event, reference.pop()));
    }
    if (!runner.empty()) {
      ASSERT_GT(runner.peek()->time, time) << "run was not maximal";
    }
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventQueuePopRun, MatchesSinglePopsOnBothQueues) {
  auto engine = rng::make_stream(0x60B7ULL, 3);
  std::vector<double> times;
  // Heavy ties (quantized times) plus scattered singletons: runs of many
  // and runs of one.
  for (int i = 0; i < 4000; ++i) {
    const double raw = rng::exponential(1.0, engine) * 50.0;
    times.push_back(i % 3 == 0 ? raw : std::floor(raw));
  }
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  std::int64_t subject = 0;
  for (const double t : times) {
    heap.schedule(t, EventKind::kCompletion, subject);
    calendar.schedule(t, EventKind::kCompletion, subject);
    ++subject;
  }
  expect_pop_run_matches_single_pops(calendar, heap);
}

TEST(EventQueuePopRun, EqualTimeStormDrainsAsOneRun) {
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  for (std::int64_t s = 0; s < 1000; ++s) {
    heap.schedule(42.0, EventKind::kDeadline, s);
    calendar.schedule(42.0, EventKind::kDeadline, s);
  }
  const std::vector<Event> heap_run = pop_heap_run(heap);
  ASSERT_EQ(heap_run.size(), 1000u);
  for (std::size_t i = 0; i < heap_run.size(); ++i) {
    EXPECT_EQ(heap_run[i].subject, static_cast<std::int64_t>(i));
  }
  EXPECT_TRUE(heap.empty());
  std::vector<Event> cal_scratch;
  const std::vector<Event> cal_run = joined(calendar.pop_run(cal_scratch));
  ASSERT_EQ(cal_run.size(), 1000u);
  for (std::size_t i = 0; i < cal_run.size(); ++i) {
    ASSERT_TRUE(same_event(cal_run[i], heap_run[i]));
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(EventQueuePopRun, InterleavedSchedulesKeepQueuesIdentical) {
  // Schedule between pop_run calls, including at timestamps equal to runs
  // already drained and inside the calendar's current day — the staging
  // flush and ring rebuild must not reorder anything.
  auto engine = rng::make_stream(0x1A7E2ULL, 4);
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  std::int64_t subject = 0;
  const auto schedule_burst = [&](double base, int count) {
    for (int i = 0; i < count; ++i) {
      const double t = base + std::floor(rng::exponential(0.5, engine) * 4.0);
      heap.schedule(t, EventKind::kCompletion, subject);
      calendar.schedule(t, EventKind::kCompletion, subject);
      ++subject;
    }
  };
  schedule_burst(0.0, 500);
  std::vector<Event> cal_scratch;
  double last_time = 0.0;
  int drained_runs = 0;
  while (!heap.empty()) {
    const std::vector<Event> h = pop_heap_run(heap);
    const std::vector<Event> c = joined(calendar.pop_run(cal_scratch));
    ASSERT_EQ(h.size(), c.size());
    for (std::size_t i = 0; i < h.size(); ++i) {
      ASSERT_TRUE(same_event(h[i], c[i]));
    }
    last_time = h.front().time;
    if (++drained_runs % 4 == 0 && drained_runs < 40) {
      schedule_burst(last_time, 50);  // Future events near the live day.
    }
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_GT(drained_runs, 4);
}

/// A reference heap and a calendar fed the same script.
struct Twin {
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  std::int64_t next_subject = 0;

  void schedule(double time, EventKind kind = EventKind::kCompletion) {
    heap.schedule(time, kind, next_subject);
    calendar.schedule(time, kind, next_subject);
    ++next_subject;
  }
  /// Pops one event from each queue; true iff they match field for field.
  bool pop_matches() { return same_event(heap.pop(), calendar.pop()); }
  /// Drains the calendar run by run and the heap event by event; true iff
  /// both drain the same stream and every run shares one timestamp.
  bool drain_matches() {
    std::vector<Event> scratch;
    while (!calendar.empty()) {
      const std::vector<Event> run = joined(calendar.pop_run(scratch));
      for (const Event& event : run) {
        if (heap.empty() || event.time != run.front().time ||
            !same_event(event, heap.pop())) {
          return false;
        }
      }
    }
    return heap.empty();
  }
};

/// Stages a wave of 100 events at t = 5 among earlier events, ends staging
/// with one pop, schedules 30 more events at t = 5 (they go to the
/// overflow heap) and pops everything before t = 5.
void stage_wave_shared_with_overflow(Twin& q) {
  q.schedule(1.0);
  for (int i = 0; i < 100; ++i) q.schedule(5.0, EventKind::kDeadline);
  for (int i = 0; i < 50; ++i) q.schedule(2.0 + 0.05 * i);
  ASSERT_TRUE(q.pop_matches());
  for (int i = 0; i < 30; ++i) q.schedule(5.0, EventKind::kReissue);
  while (q.calendar.peek()->time < 5.0) ASSERT_TRUE(q.pop_matches());
}

TEST(EventQueuePopRun, ArenaPartIsZeroCopyWhenOverflowSharesItsTime) {
  Twin q;
  ASSERT_NO_FATAL_FAILURE(stage_wave_shared_with_overflow(q));
  const Event* front = q.calendar.peek();
  std::vector<Event> scratch;
  const runtime::EventRun run = q.calendar.pop_run(scratch);
  EXPECT_EQ(run.head.data(), front) << "the arena run was copied";
  EXPECT_EQ(run.head.size(), 100u);
  EXPECT_EQ(run.tail.data(), scratch.data());
  EXPECT_EQ(run.tail.size(), scratch.size());
  EXPECT_EQ(run.tail.size(), 30u);
  const std::vector<Event> want = pop_heap_run(q.heap);
  const std::vector<Event> got = joined(run);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same_event(got[i], want[i])) << "event " << i;
  }
  EXPECT_TRUE(q.drain_matches());
}

TEST(EventQueuePopRun, DigestOverHeadThenTailEqualsDigestOverTheRun) {
  Twin q;
  ASSERT_NO_FATAL_FAILURE(stage_wave_shared_with_overflow(q));
  std::vector<Event> scratch;
  const runtime::EventRun run = q.calendar.pop_run(scratch);
  ASSERT_FALSE(run.tail.empty());
  const std::uint64_t digest = 0x5eedULL;
  EXPECT_EQ(runtime::fold_events(runtime::fold_events(digest, run.head),
                                 run.tail),
            runtime::fold_events(digest, joined(run)));
}

// ------------------------------------------------ calendar in-place builds

TEST(CalendarInPlace, UnreservedStagingGrowsThenBuilds) {
  // No reserve(): staging grows the arena storage as it goes.
  auto engine = rng::make_stream(0x57A6ULL, 6);
  Twin q;
  for (int i = 0; i < 20000; ++i) {
    const double raw = rng::exponential(1.0, engine) * 100.0;
    q.schedule(i % 4 == 0 ? std::floor(raw) : raw);
  }
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(q.pop_matches());
  for (int i = 0; i < 500; ++i) q.schedule(60.0 + 0.1 * i);
  EXPECT_TRUE(q.drain_matches());
}

TEST(CalendarInPlace, FoldOutgrowingTheArenaGrowsIt) {
  // The first build fills a reserved arena of 1,000 events; the fold
  // then has ~7,000 live events and must grow the storage.
  auto engine = rng::make_stream(0x6209ULL, 7);
  Twin q;
  q.heap.reserve(1000);
  q.calendar.reserve(1000);
  for (int i = 0; i < 1000; ++i) q.schedule(rng::exponential(1.0, engine));
  ASSERT_TRUE(q.pop_matches());
  for (int i = 0; i < 6000; ++i) {
    q.schedule(1.0 + std::floor(rng::exponential(1.0, engine) * 8.0) / 8.0);
  }
  const std::size_t before_fold = q.calendar.capacity_bytes();
  ASSERT_TRUE(q.pop_matches());  // Folds 6,999 events.
  EXPECT_GE(q.calendar.capacity_bytes(),
            before_fold + (6999 - 1000) * sizeof(Event));
  EXPECT_TRUE(q.drain_matches());
}

/// A far arena of 20,000 events, then `long_lived` overflow events at
/// `time_of(i)`, then 20,000 schedules that each pop straight back. The
/// overflow's seq range ends ~100x wider than its size, and its heap
/// array is shuffled. Draining the arena past the shrink band then folds.
template <typename TimeOf>
void churn_then_fold(Twin& q, int long_lived, const TimeOf& time_of) {
  q.schedule(0.0);
  for (int i = 0; i < 20000; ++i) q.schedule(500.0 + 0.01 * i);
  ASSERT_TRUE(q.pop_matches());
  for (int i = 0; i < long_lived; ++i) q.schedule(time_of(i));
  for (int c = 1; c <= 20000; ++c) {
    q.schedule(0.02 * c);
    ASSERT_TRUE(q.pop_matches());
  }
}

TEST(CalendarInPlace, WideOverflowSeqRangeFoldsInHeapOrder) {
  Twin q;
  ASSERT_NO_FATAL_FAILURE(churn_then_fold(
      q, 200, [](int i) { return 900.0 + 0.25 * i; }));
  EXPECT_TRUE(q.drain_matches());
}

TEST(CalendarInPlace, OutOfSeqOrderWaveFallsBackToSort) {
  // The same churn, with the long-lived events three interleaved
  // same-time waves: their pushes and the churn's pops leave each wave
  // out of seq order in the heap array, and so in its folded slice.
  Twin q;
  ASSERT_NO_FATAL_FAILURE(churn_then_fold(
      q, 300, [](int i) { return 900.0 + 0.5 * (i % 3); }));
  EXPECT_TRUE(q.drain_matches());
}

TEST(CalendarInPlace, WaveSliceWithStragglersOnBothSides) {
  // A fold of 5,000 same-time events (gathered in seq order) with five
  // events just before and five just after them in the same day, among
  // 2,000 spread events.
  auto engine = rng::make_stream(0x3A7EULL, 8);
  Twin q;
  q.schedule(0.0);
  ASSERT_TRUE(q.pop_matches());
  constexpr double kWave = 50.3;
  for (int i = 0; i < 5000; ++i) {
    q.schedule(kWave, EventKind::kDeadline);
    if (i % 1000 == 500) {
      q.schedule(kWave - 1e-7);
      q.schedule(kWave + 1e-7);
    }
    if (i % 5 < 2) q.schedule(100.0 * rng::uniform01(engine));
  }
  EXPECT_TRUE(q.drain_matches());
}

// ----------------------------------------------------- calendar footprint

TEST(CalendarFootprint, FirstBuildHoldsOneEventBufferAndTheHeaders) {
  constexpr std::size_t kEvents = 50000;
  auto engine = rng::make_stream(0xF007ULL, 9);
  runtime::CalendarQueue queue;
  queue.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    queue.schedule(rng::exponential(1.0, engine), EventKind::kCompletion,
                   static_cast<std::int64_t>(i));
  }
  (void)queue.pop();
  EXPECT_LE(queue.capacity_bytes(),
            sizeof(Event) * kEvents + 16 * queue.bucket_count() + 1024);
}

TEST(CalendarFootprint, FoldThatFitsAllocatesNoSecondEventBuffer) {
  constexpr std::size_t kEvents = 50000;
  auto engine = rng::make_stream(0xF017ULL, 10);
  runtime::CalendarQueue queue;
  queue.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    queue.schedule(100.0 * rng::uniform01(engine), EventKind::kCompletion,
                   static_cast<std::int64_t>(i));
  }
  std::vector<Event> scratch;
  const runtime::EventRun first = queue.pop_run(scratch);
  ASSERT_TRUE(first.tail.empty());
  const auto before = reinterpret_cast<std::uintptr_t>(first.head.data());
  while (queue.size() > 10000) (void)queue.pop();
  // Overflow past both fold thresholds (4,096 events and the live arena);
  // the fold's 20,001 events fit the 50,000-event arena.
  for (std::int64_t i = 0; i < 10001; ++i) {
    queue.schedule(100.0 + 50.0 * rng::uniform01(engine),
                   EventKind::kCompletion, i);
  }
  const std::size_t bytes = queue.capacity_bytes();
  const runtime::EventRun after_fold = queue.pop_run(scratch);
  EXPECT_EQ(queue.capacity_bytes(), bytes);
  // The run after the fold lies in the same 50,000-event storage.
  const auto after = reinterpret_cast<std::uintptr_t>(after_fold.head.data());
  const std::uintptr_t reach = sizeof(Event) * kEvents;
  EXPECT_LT(after > before ? after - before : before - after, reach);
}

// --------------------------------------------------------- event layout

constexpr EventKind kAllKinds[] = {
    EventKind::kCompletion,    EventKind::kDeadline, EventKind::kReissue,
    EventKind::kAdaptiveCheck, EventKind::kFault,    EventKind::kFaultEnd,
    EventKind::kHealthCheck,   EventKind::kReplan,
};

TEST(EventLayout, ExtremeFieldsSurviveBothQueues) {
  // The widest values the packed fields hold: the largest unit subject the
  // supervisor admits, the last 32-bit epoch, and every kind. Two events
  // per kind share a timestamp, so the seq tie-break is exercised too.
  constexpr std::int64_t kSubject =
      std::numeric_limits<std::int32_t>::max() - 1;
  constexpr std::uint64_t kEpoch = std::numeric_limits<std::uint32_t>::max();
  runtime::EventQueue heap;
  runtime::CalendarQueue calendar;
  std::vector<Event> scheduled;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < std::size(kAllKinds); ++k) {
      const double time = 8.0 - static_cast<double>(k);  // Reverse order.
      heap.schedule(time, kAllKinds[k], kSubject, kEpoch);
      calendar.schedule(time, kAllKinds[k], kSubject, kEpoch);
      scheduled.push_back(runtime::make_event(time, scheduled.size(),
                                              kAllKinds[k], kSubject, kEpoch));
    }
  }
  std::vector<Event> expected = scheduled;
  std::sort(expected.begin(), expected.end(), runtime::fires_before);
  for (const Event& want : expected) {
    ASSERT_FALSE(heap.empty());
    ASSERT_FALSE(calendar.empty());
    const Event h = heap.pop();
    const Event c = calendar.pop();
    EXPECT_TRUE(same_event(h, want)) << "heap seq " << h.seq;
    EXPECT_TRUE(same_event(c, want)) << "calendar seq " << c.seq;
    // `want` is packed by make_event too; check the fields against the
    // schedule() arguments directly as well.
    EXPECT_EQ(h.kind, kAllKinds[static_cast<std::size_t>(8.0 - h.time)]);
    EXPECT_EQ(h.subject, kSubject);
    EXPECT_EQ(h.epoch, kEpoch);
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_TRUE(calendar.empty());
}

TEST(EventLayout, FoldDigestMatchesTheUnpackedLayout) {
  // Journals store fold_events digests. This value was computed with the
  // earlier 40-byte Event (64-bit seq, subject and epoch), so journals
  // written before the packing still resume.
  const std::vector<Event> events = {
      Event{0.0, 0, EventKind::kCompletion, 0, 0},
      Event{0.5, 1, EventKind::kDeadline, 12, 3},
      Event{1234.5, 2, EventKind::kReissue, 2147483646, 4294967295u},
      Event{1e-300, 3, EventKind::kAdaptiveCheck, 7, 1},
      Event{86400.25, 41, EventKind::kFault, 2, 0},
      Event{86400.25, 42, EventKind::kFaultEnd, 2, 0},
      Event{3.75, 72057594037927935ULL, EventKind::kHealthCheck, 0, 0},
      Event{1e9, 1000000, EventKind::kReplan, -1, 65536},
  };
  EXPECT_EQ(runtime::fold_events(runtime::kEmptyDigest, events),
            0xaf5a9cd7ff77336bULL);
}

// --------------------------------------------------------- stale epochs

TEST(EventQueueSemantics, StaleEpochEventsDrainAsNoOps) {
  // The supervisor's runtime keeps cancelled timers in the queue and drops
  // them on epoch mismatch at dispatch. A campaign with heavy timeouts and
  // reissues churns epochs; it must still terminate with every task valid.
  core::RealizedPlan plan;
  plan.counts = {0, 40};  // 40 tasks at multiplicity 2.
  plan.task_count = 40;
  plan.work_assignments = 80;

  runtime::RuntimeConfig config;
  config.plan = plan;
  config.honest_participants = 10;
  config.latency.straggler_fraction = 0.4;
  config.latency.straggler_slowdown = 12.0;
  config.latency.dropout_probability = 0.2;  // Many deadline expiries.
  config.retry.max_retries = 2;
  config.seed = 99;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_EQ(report.tasks_valid, report.tasks);
  EXPECT_GT(report.units_timed_out, 0);  // Stale timers were churned.
}

}  // namespace
