// The pattern table, and the transitive attribute inference built on it.
//
// Every per-token pattern the linter knows is one entry of one table
// (kPatterns in attributes.cpp). An entry names the behavioural attribute
// its match gives the enclosing function and the local rule it raises.
// Each local rule is the depth-0 case of the attribute pass: `hot-alloc`
// is an allocation in a hot function's own body, `transitive-hot-alloc`
// the same attribute reached through calls.
//
// Each function's direct mask (the hits inside its body, allow()-aware)
// is propagated caller-ward to a fixpoint: a function that calls an
// allocating function allocates. Every propagated bit keeps a witness
// (the call edge that introduced it), so a finding can print the full
// chain `hot fn -> helper -> operator new (file:line)` instead of just
// the first hop.
//
// The lattice is a powerset of six independent bits, so the fixpoint is
// monotone and converges in at most |attrs| * |nodes| rounds; in
// practice two or three sweeps settle the whole tree.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"

namespace redund::lint {

enum Attribute : std::uint32_t {
  kAllocates = 1U << 0,       ///< Heap growth: new/malloc/push_back/...
  kBlocksIo = 1U << 1,        ///< fsync/fwrite/ofstream/.flush().
  kDrawsRng = 1U << 2,        ///< rand()/std::random_device entropy.
  kReadsClock = 1U << 3,      ///< time()/chrono clock now().
  kUnorderedIterates = 1U << 4,  ///< Iterates a std::unordered_* container.
  kAddressAsValue = 1U << 5,  ///< Pointer value cast to an integer.
};

/// The nondeterminism-source subset (the determinism-taint rule's
/// forbidden mask for serialization code).
inline constexpr std::uint32_t kNondeterminismSources =
    kDrawsRng | kReadsClock | kUnorderedIterates | kAddressAsValue;

[[nodiscard]] const char* attribute_name(std::uint32_t attr);

/// The interprocedural rule that reports an attribute reached through
/// calls: transitive-hot-alloc, transitive-blocking-io-in-hot, or
/// determinism-taint for the nondeterminism sources.
[[nodiscard]] const char* transitive_rule(std::uint32_t attr);

/// How a pattern is recognized in the token stream.
enum class Shape {
  kTokens,        ///< `text`, a space-separated token sequence; a call
                  ///< (`name (`) may carry `<template args>` before `(`.
  kNew,           ///< `new T` or `new (p) T`, not `::new`.
  kTimeCall,      ///< time(), time(nullptr|NULL|0); bare or std::, not a
                  ///< member call.
  kRandomDevice,  ///< std::random_device without a constructor argument.
  kRangeForType,  ///< Range-for whose range spells a std::unordered_* type.
  kRangeForName,  ///< Range-for over a declared unordered container.
  kIterator,      ///< .begin()/.end()/.cbegin()/.cend() on one.
  kAddressCast,   ///< uintptr_t/intptr_t on a line with a *_cast.
};

/// Where an entry's local rule applies.
enum class Where {
  kAnywhere,  ///< Every match, inside a function or not.
  kHot,       ///< Inside the body of a `redund: hot` function.
  kHotLoop,   ///< A call inside a loop of a `redund: hot` function.
  kLoop,      ///< A call inside a loop of any function.
};

struct Pattern {
  Shape shape;
  const char* text;     ///< kTokens only: the token sequence.
  std::uint32_t attr;   ///< Attribute of the enclosing function (0: none).
  const char* rule;     ///< Local rule raised (nullptr: none).
  Where where;
  const char* detail;   ///< Witness text; "{}" stands for the subject.
  const char* message;  ///< The local rule's message; "{}" likewise.
};

/// One pattern match.
struct Hit {
  std::size_t token = 0;  ///< Index into ParsedFile::tokens.
  std::size_t line = 0;   ///< 0-based.
  const Pattern* pattern = nullptr;
  std::string subject;    ///< The call as written, or the container name.
  std::size_t function = 0;  ///< Enclosing body in ParsedFile::functions.
  static constexpr std::size_t kNoFunction = static_cast<std::size_t>(-1);
};

/// Every match in a file, ordered by line and then by table position:
/// the first hit of a rule on a line is the one it reports.
[[nodiscard]] std::vector<Hit> match_patterns(const ParsedFile& file);

/// `text` with its "{}" replaced by `subject`.
[[nodiscard]] std::string render(const char* text, const std::string& subject);

/// Why a function carries an attribute.
struct Witness {
  bool direct = false;
  std::size_t line = 0;    ///< 0-based: offending line (direct) or call site.
  std::string detail;      ///< What matched (direct only).
  std::size_t via = 0;     ///< Callee node index (propagated only).
};

class AttributeMap {
 public:
  /// Matches the patterns in every file and runs the propagation fixpoint.
  void build(const CallGraph& graph, const std::vector<ParsedFile>& files);

  /// Pattern matches of one file (index into the `files` given to build).
  [[nodiscard]] const std::vector<Hit>& hits(std::size_t file) const {
    return hits_[file];
  }

  /// Direct ∪ propagated attribute mask of a node.
  [[nodiscard]] std::uint32_t effective(std::size_t node) const {
    return effective_[node];
  }
  [[nodiscard]] std::uint32_t direct(std::size_t node) const {
    return direct_[node];
  }

  /// Witness for one attribute bit (nullptr when the bit is clear).
  [[nodiscard]] const Witness* witness(std::size_t node,
                                       std::uint32_t attr) const;

  /// Human-readable chain "helper_a (file:12) -> helper_b (file:30) ->
  /// push_back (file:31)" for a node's attribute, 1-based lines.
  [[nodiscard]] std::string chain(std::size_t node, std::uint32_t attr,
                                  const CallGraph& graph) const;

  /// Effective (transitively propagated) excluded-mutex set: the node's
  /// own REDUND_EXCLUDES plus every mutex it (or a callee) acquires.
  [[nodiscard]] const std::vector<std::string>& effective_excludes(
      std::size_t node) const {
    return excludes_[node];
  }

  /// Chain explaining why a node excludes a mutex ("run -> parallel_for
  /// (call at pool.cpp:80) -> ... (acquires mutex_)").
  [[nodiscard]] std::string exclude_chain(std::size_t node,
                                          const std::string& mutex,
                                          const CallGraph& graph) const;

  /// Fixpoint sweeps the attribute propagation needed (for tests).
  [[nodiscard]] std::size_t sweeps() const { return sweeps_; }

 private:
  static constexpr std::size_t kAttrCount = 6;
  [[nodiscard]] static std::size_t bit_index_(std::uint32_t attr);

  std::vector<std::vector<Hit>> hits_;
  std::vector<std::uint32_t> direct_;
  std::vector<std::uint32_t> effective_;
  std::vector<std::array<Witness, kAttrCount>> witnesses_;
  std::vector<std::vector<std::string>> excludes_;
  std::vector<std::map<std::string, Witness>> excl_witness_;
  std::size_t sweeps_ = 0;
};

}  // namespace redund::lint
