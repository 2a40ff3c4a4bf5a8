// Transitive attribute inference over the call graph.
//
// Each function gets a bitmask of behavioural attributes detected
// directly in its body (token-level, allow()-aware), then the mask is
// propagated caller-ward to a fixpoint: a function that calls an
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

#include "analysis/callgraph.hpp"

namespace redund::analysis {

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

/// Why a function carries an attribute.
struct Witness {
  bool direct = false;
  std::size_t line = 0;    ///< 0-based: offending line (direct) or call site.
  std::string detail;      ///< Token that fired (direct only).
  std::size_t via = 0;     ///< Callee node index (propagated only).
};

class AttributeMap {
 public:
  /// Detects direct attributes and runs the propagation fixpoint.
  void build(const CallGraph& graph, const std::vector<ParsedFile>& files);

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

  std::vector<std::uint32_t> direct_;
  std::vector<std::uint32_t> effective_;
  std::vector<std::array<Witness, kAttrCount>> witnesses_;
  std::vector<std::vector<std::string>> excludes_;
  std::vector<std::map<std::string, Witness>> excl_witness_;
  std::size_t sweeps_ = 0;
};

}  // namespace redund::analysis
