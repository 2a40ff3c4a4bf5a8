// Journal format for crash-safe campaigns: a digest log, resumed by
// re-simulation.
//
// The supervisor's event loop is a deterministic state machine: given
// (RuntimeConfig, FaultSchedule) the i-th event popped, every draw, and
// every counter are fixed. A killed campaign therefore needs no saved
// state to recover: resume re-runs the loop from the seed, and
// determinism regenerates the exact report. The journal exists only to
// make that re-run *accountable*: it records a rolling digest of the
// processed event stream at batch boundaries, and resume compares the
// re-run's digest at each recorded index. Any config/seed/code mismatch
// surfaces as an immediate "journal replay divergence" error instead of
// a silently different report. The recovery invariant tested in
// tests/test_recovery.cpp: kill at any event index, resume, and the
// final RuntimeReport is byte-identical to the uninterrupted run.
//
// File format (text, line-oriented; see docs/checkpointing.md):
//
//   redund-journal-v3 <config_hash hex> <seed hex>
//   H <index> <digest: 16 hex digits>
//   F <index> <outcome>
//
// `H` lands at the first batch boundary at or past every
// JournalOptions::checkpoint_interval events, and once more at a
// graceful kill; `F` closes a finished campaign. Writes are synchronous,
// with fflush + fsync after every `H` and the `F`. A crash
// can tear at most the final line; read_journal() drops an unterminated
// trailing line and recovery proceeds from the complete prefix. A
// journal holds no state, so a damaged one can make resume refuse, but
// never make it produce a different report.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "runtime/event_queue.hpp"

namespace redund::runtime {

/// FNV-1a over a byte string; used to fingerprint the RuntimeConfig a
/// journal belongs to (resuming under a different config is an error).
[[nodiscard]] std::uint64_t fnv1a_hash(const std::string& bytes) noexcept;

/// Appends space-separated tokens to a single-line canonical byte string
/// (config and report fingerprints hash it). Doubles are written as the
/// 16-hex-digit IEEE-754 bit pattern, so every value is exact.
class StateWriter {
 public:
  /// Pre-sizes the string, so long reports append without reallocating.
  void reserve(std::size_t bytes) { text_.reserve(bytes); }

  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void f64(double value);
  void boolean(bool value) { u64(value ? 1 : 0); }

  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  std::string text_;
};

/// Digest of an empty event stream (the fold's starting value).
inline constexpr std::uint64_t kEmptyDigest = 0xcbf29ce484222325ULL;

/// Folds processed events, in processing order, into a rolling digest:
/// each event contributes its (time bits, kind, subject, epoch, seq).
[[nodiscard]] std::uint64_t fold_events(std::uint64_t digest,
                                        std::span<const Event> events) noexcept;

/// One `H` record: the digest of the first `index` processed events.
struct DigestRecord {
  std::uint64_t index = 0;
  std::uint64_t digest = 0;
};

/// Parsed journal.
struct JournalContents {
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;
  bool has_checkpoint = false;     ///< At least one `H` record.
  std::vector<DigestRecord> tail;  ///< `H` records, in file order.
  bool completed = false;          ///< `F` record present.
  std::uint64_t final_index = 0;   ///< Events processed, per `F`.
  std::int64_t outcome = 0;        ///< CampaignOutcome as integer, per `F`.
  bool torn_tail = false;          ///< File ended mid-record (the
                                   ///< unterminated line was dropped).
};

/// Reads a journal file back. Throws std::runtime_error on I/O failure,
/// a header of another format version (the message names it), or any
/// malformed complete record. A missing trailing newline marks a torn
/// final record: the partial line is dropped and `torn_tail` set.
[[nodiscard]] JournalContents read_journal(const std::string& path);

/// Owns one journal file. The constructor truncates the file and writes
/// and flushes the header; every record is written, flushed and fsynced
/// before the call returns. I/O failures throw std::runtime_error.
class JournalWriter {
 public:
  JournalWriter(const std::string& path, std::uint64_t config_hash,
                std::uint64_t seed);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// `H <index> <digest>`.
  void digest(std::uint64_t index, std::uint64_t digest);

  /// `F <index> <outcome>`.
  void finish(std::uint64_t index, std::int64_t outcome);

 private:
  /// Writes and flushes `line`; fsyncs too when `sync` is set.
  void write_(const std::string& line, bool sync);

  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace redund::runtime
