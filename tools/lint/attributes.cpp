#include "lint/attributes.hpp"

#include <algorithm>
#include <set>
#include <string_view>
#include <tuple>

namespace redund::lint {

namespace {

constexpr Pattern allocating_call(const char* call) {
  return {Shape::kTokens, call, kAllocates, "hot-alloc", Where::kHot, "{}",
          "allocation-prone call {}) inside a `redund: hot` function"};
}

constexpr Pattern per_element_call(const char* call) {
  return {Shape::kTokens, call, 0, "hot-per-element-insert", Where::kHotLoop,
          "{}",
          "per-element {}) inside a loop in a `redund: hot` function — "
          "batch the growth (resize + index writes or bulk insert) outside "
          "the per-element loop"};
}

constexpr Pattern blocking_call(const char* call) {
  return {Shape::kTokens, call, kBlocksIo, "blocking-io-in-hot", Where::kHot,
          "{}",
          "blocking I/O call {}) inside a `redund: hot` function — keep I/O "
          "off the per-event path (write at batch boundaries)"};
}

constexpr Pattern stream_io(const char* tokens) {
  return {Shape::kTokens, tokens, kBlocksIo, "blocking-io-in-hot",
          Where::kHot, "stream write/flush",
          "stream write/flush inside a `redund: hot` function — keep I/O off "
          "the per-event path (write at batch boundaries)"};
}

constexpr Pattern entropy_call(const char* call) {
  return {Shape::kTokens, call, kDrawsRng, "nondeterministic-rng",
          Where::kAnywhere, "{}",
          "call to {}) — derive draws from the campaign seed via rng:: "
          "streams"};
}

constexpr Pattern clock_read(const char* tokens) {
  return {Shape::kTokens, tokens, kReadsClock, nullptr, Where::kAnywhere,
          "{}", nullptr};
}

constexpr Pattern unordered_walk(Shape shape, const char* detail,
                                 const char* message) {
  return {shape, nullptr, kUnorderedIterates, "unordered-iteration",
          Where::kAnywhere, detail, message};
}

// The one pattern table. Within a rule (and within an attribute) an
// earlier entry wins a line, so order matters: `new` before the
// allocating calls, rand() before time() before std::random_device.
constexpr Pattern kPatterns[] = {
    {Shape::kNew, nullptr, kAllocates, "hot-alloc", Where::kHot,
     "operator new",
     "operator new inside a `redund: hot` function — hot paths are "
     "contractually allocation-free"},
    allocating_call("malloc ("),
    allocating_call("calloc ("),
    allocating_call("realloc ("),
    allocating_call("free ("),
    allocating_call("push_back ("),
    allocating_call("emplace_back ("),
    allocating_call("emplace ("),
    allocating_call("insert ("),
    allocating_call("resize ("),
    allocating_call("reserve ("),
    allocating_call("make_unique ("),
    allocating_call("make_unique_for_overwrite ("),
    allocating_call("make_shared ("),
    allocating_call("to_string ("),
    allocating_call("std :: string ("),
    per_element_call("push_back ("),
    per_element_call("emplace_back ("),
    per_element_call("insert ("),
    per_element_call("emplace ("),
    per_element_call("try_emplace ("),
    blocking_call("fsync ("),
    blocking_call("fdatasync ("),
    blocking_call("fwrite ("),
    blocking_call("fflush ("),
    blocking_call("fopen ("),
    stream_io("std :: ofstream"),
    stream_io(". flush ("),
    entropy_call("rand ("),
    entropy_call("srand ("),
    {Shape::kTimeCall, nullptr, kReadsClock, "nondeterministic-rng",
     Where::kAnywhere, "time()",
     "wall-clock time() call — campaign behaviour must depend on the config "
     "seed only"},
    {Shape::kRandomDevice, nullptr, kDrawsRng, "nondeterministic-rng",
     Where::kAnywhere, "std::random_device",
     "default-constructed std::random_device draws OS entropy — seed from "
     "the campaign config instead"},
    clock_read("steady_clock"),
    clock_read("system_clock"),
    clock_read("high_resolution_clock"),
    clock_read("clock_gettime ("),
    clock_read("gettimeofday ("),
    unordered_walk(Shape::kRangeForType, "range-for over unordered",
                   "range-for over a std::unordered_* container — hash "
                   "order leaks into journals/reports; use a sorted or "
                   "indexed container"),
    unordered_walk(Shape::kRangeForName, "range-for over '{}'",
                   "range-for over unordered container '{}' — hash order "
                   "leaks into journals/reports"),
    unordered_walk(Shape::kIterator, "iterator over '{}'",
                   "iterator over unordered container '{}' — hash order "
                   "leaks into journals/reports"),
    {Shape::kAddressCast, nullptr, kAddressAsValue, nullptr, Where::kAnywhere,
     "pointer-to-integer cast", nullptr},
    {Shape::kTokens, "make_stream (", 0, "scalar-draw-in-wave", Where::kLoop,
     "{}",
     "make_stream() per loop iteration — a wave of independent keyed draws "
     "belongs in an rng::bulk_* kernel (the first_draw closed form skips "
     "building a full engine per stream), not a scalar loop"},
};

bool is_(const std::vector<Token>& t, std::size_t i, std::string_view text) {
  return i < t.size() && t[i].text == text;
}

/// When the space-separated token sequence `seq` starts at `i`, the index
/// just past it; otherwise 0 (no match can end there).
std::size_t match_sequence(const std::vector<Token>& t, std::size_t i,
                           std::string_view seq) {
  while (true) {
    const std::size_t space = seq.find(' ');
    if (!is_(t, i++, seq.substr(0, space))) return 0;
    if (space == std::string_view::npos) return i;
    seq.remove_prefix(space + 1);
  }
}

/// The index just past a template argument list opening at `i` (`<` ...
/// balanced `>`), or `i` itself when none opens there.
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
  if (!is_(t, i, "<")) return i;
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    const std::string& text = t[k].text;
    if (text == "<") {
      ++depth;
    } else if (text == ">") {
      if (--depth == 0) return k + 1;
    } else if (text == ";" || text == "{" || text == "}") {
      break;
    }
  }
  return i;
}

/// The range of a range-for whose `for` is token `i`: the tokens after
/// its top-level ':' up to the closing ')'. Empty when `i` opens none.
std::pair<std::size_t, std::size_t> range_of_for(const std::vector<Token>& t,
                                                 std::size_t i) {
  if (t[i].text != "for" || !is_(t, i + 1, "(")) return {0, 0};
  int depth = 0;
  std::size_t colon = 0;
  for (std::size_t k = i + 1; k < t.size(); ++k) {
    const std::string& text = t[k].text;
    if (text == "(") {
      ++depth;
    } else if (text == ")") {
      if (--depth > 0) continue;
      if (colon == 0) break;
      return {colon + 1, k};
    } else if (depth == 1 && text == ";") {
      return {0, 0};
    } else if (depth == 1 && text == ":" && colon == 0) {
      colon = k;
    }
  }
  return {0, 0};
}

/// Names declared with a std::unordered_* type anywhere in the file: the
/// identifier after the first '>' that can close the template argument
/// list, past at most two '&'/'*'.
std::vector<std::string> unordered_names(const std::vector<Token>& t) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    const std::string& type = t[i + 2].text;
    if (match_sequence(t, i, "std ::") == 0 || type.size() <= 10 ||
        type.compare(0, 10, "unordered_") != 0 || !is_(t, i + 3, "<")) {
      continue;
    }
    for (std::size_t k = i + 4; k < t.size() && !is_(t, k, ";") &&
                                !is_(t, k, "{");
         ++k) {
      if (!is_(t, k, ">")) continue;
      std::size_t name = k + 1;
      if (is_(t, name, "&") || is_(t, name, "*")) ++name;
      if (is_(t, name, "&") || is_(t, name, "*")) ++name;
      if (name < t.size() && t[name].kind != Token::Kind::kPunct) {
        names.push_back(t[name].text);
        break;
      }
    }
  }
  return names;
}

/// True when pattern `p` matches at token `i`; sets `subject` to what the
/// pattern's "{}" stands for.
bool matches(const Pattern& p, const std::vector<Token>& t, std::size_t i,
             const std::vector<std::string>& names, std::string& subject) {
  const std::string& text = t[i].text;
  switch (p.shape) {
    case Shape::kTokens: {
      // A call's name may carry template arguments: make_unique<T>(...).
      std::string_view seq = p.text;
      const bool call = seq.ends_with(" (");
      if (call) seq.remove_suffix(2);
      const std::size_t end = match_sequence(t, i, seq);
      if (end == 0 || (call && !is_(t, skip_template_args(t, end), "("))) {
        return false;
      }
      subject = p.text;
      subject.erase(std::remove(subject.begin(), subject.end(), ' '),
                    subject.end());
      return true;
    }
    case Shape::kNew:
      return text == "new" && (i == 0 || t[i - 1].text != "::") &&
             i + 1 < t.size() &&
             (t[i + 1].kind != Token::Kind::kPunct || t[i + 1].text == "(" ||
              t[i + 1].text == "<");
    case Shape::kTimeCall: {
      if (text != "time" || !is_(t, i + 1, "(")) return false;
      // A member call (`e.time()`, `p->time()`) is the object's own clock.
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) {
        return false;
      }
      // `std::time` is the C clock; any other qualifier (`Clock::time`)
      // names a project function.
      if (i > 0 && t[i - 1].text == "::" &&
          (i < 2 || t[i - 2].text != "std" ||
           (i >= 3 && t[i - 3].text == "::"))) {
        return false;
      }
      std::size_t k = i + 2;
      if (is_(t, k, "nullptr") || is_(t, k, "NULL") || is_(t, k, "0")) ++k;
      return is_(t, k, ")");
    }
    case Shape::kRandomDevice:
      // random_device(token) names its source; the default one draws OS
      // entropy.
      return match_sequence(t, i, "std :: random_device") != 0 &&
             !(is_(t, i + 3, "(") && i + 4 < t.size() &&
               t[i + 4].text != ")");
    case Shape::kRangeForType: {
      const auto [begin, end] = range_of_for(t, i);
      return std::any_of(t.begin() + static_cast<std::ptrdiff_t>(begin),
                         t.begin() + static_cast<std::ptrdiff_t>(end),
                         [](const Token& tok) {
                           return tok.text.find("unordered") !=
                                  std::string::npos;
                         });
    }
    case Shape::kRangeForName: {
      const auto [begin, end] = range_of_for(t, i);
      for (const std::string& name : names) {
        for (std::size_t k = begin; k < end; ++k) {
          if (t[k].text == name) {
            subject = name;
            return true;
          }
        }
      }
      return false;
    }
    case Shape::kIterator:
      if (!is_(t, i + 1, ".") || !is_(t, i + 3, "(") ||
          (t[i + 2].text != "begin" && t[i + 2].text != "end" &&
           t[i + 2].text != "cbegin" && t[i + 2].text != "cend") ||
          std::find(names.begin(), names.end(), text) == names.end()) {
        return false;
      }
      subject = text;
      return true;
    case Shape::kAddressCast: {
      if (text != "uintptr_t" && text != "intptr_t") return false;
      std::size_t k = i;
      while (k > 0 && t[k - 1].line == t[i].line) --k;
      for (; k < t.size() && t[k].line == t[i].line; ++k) {
        if (t[k].text.find("cast") != std::string::npos) return true;
      }
      return false;
    }
  }
  return false;
}

/// An allow() of the hit's own local rule, or of the interprocedural rule
/// that consumes its attribute, keeps the hit out of the attribute. A
/// deliberate, audited allocation (e.g. a pre-sized push_back in a hot
/// function) must not re-fire transitively at every caller.
bool suppressed(const SourceFile& src, const Hit& hit) {
  const Pattern& p = *hit.pattern;
  return (p.rule != nullptr && src.allows(hit.line, p.rule)) ||
         src.allows(hit.line, transitive_rule(p.attr));
}

}  // namespace

std::vector<Hit> match_patterns(const ParsedFile& file) {
  const std::vector<Token>& t = file.tokens;
  std::vector<std::size_t> owner(t.size(), Hit::kNoFunction);
  for (std::size_t f = 0; f < file.functions.size(); ++f) {
    const FunctionInfo& fn = file.functions[f];
    for (std::size_t k = fn.body_open + 1; fn.in_body(k); ++k) owner[k] = f;
  }
  const std::vector<std::string> names = unordered_names(t);
  std::vector<Hit> hits;
  std::string subject;
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (const Pattern& p : kPatterns) {
      if (matches(p, t, i, names, subject)) {
        hits.push_back(Hit{i, t[i].line, &p, subject, owner[i]});
      }
    }
  }
  std::stable_sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return std::tie(a.line, a.pattern) < std::tie(b.line, b.pattern);
  });
  return hits;
}

std::string render(const char* text, const std::string& subject) {
  std::string out = text;
  const std::size_t at = out.find("{}");
  if (at != std::string::npos) out.replace(at, 2, subject);
  return out;
}

const char* attribute_name(std::uint32_t attr) {
  switch (attr) {
    case kAllocates:
      return "allocates";
    case kBlocksIo:
      return "blocks";
    case kDrawsRng:
      return "draws-rng";
    case kReadsClock:
      return "reads-clock";
    case kUnorderedIterates:
      return "unordered-iterates";
    case kAddressAsValue:
      return "address-as-value";
    default:
      return "?";
  }
}

const char* transitive_rule(std::uint32_t attr) {
  switch (attr) {
    case kAllocates:
      return "transitive-hot-alloc";
    case kBlocksIo:
      return "transitive-blocking-io-in-hot";
    default:
      return "determinism-taint";
  }
}

std::size_t AttributeMap::bit_index_(std::uint32_t attr) {
  std::size_t index = 0;
  while ((attr >>= 1U) != 0U) ++index;
  return index;
}

void AttributeMap::build(const CallGraph& graph,
                         const std::vector<ParsedFile>& files) {
  const std::vector<Node>& nodes = graph.nodes();
  const std::size_t n = nodes.size();
  direct_.assign(n, 0);
  effective_.assign(n, 0);
  witnesses_.assign(n, {});
  excludes_.assign(n, {});
  excl_witness_.assign(n, {});
  sweeps_ = 0;

  // Direct attributes: the first unsuppressed hit of each attribute in a
  // function's body is its witness.
  std::vector<std::vector<std::size_t>> node_of(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    node_of[f].assign(files[f].functions.size(), CallGraph::npos);
  }
  for (std::size_t i = 0; i < n; ++i) {
    node_of[nodes[i].file][nodes[i].function] = i;
  }
  hits_.clear();
  for (std::size_t f = 0; f < files.size(); ++f) {
    hits_.push_back(match_patterns(files[f]));
    for (const Hit& hit : hits_.back()) {
      const std::uint32_t attr = hit.pattern->attr;
      if (attr == 0 || hit.function == Hit::kNoFunction) continue;
      const std::size_t node = node_of[f][hit.function];
      if ((direct_[node] & attr) != 0U || suppressed(files[f].source, hit)) {
        continue;
      }
      direct_[node] |= attr;
      witnesses_[node][bit_index_(attr)] =
          Witness{true, hit.line, render(hit.pattern->detail, hit.subject), 0};
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionInfo& fn = graph.fn(i);
    effective_[i] = direct_[i];

    // Seed the exclusion sets: annotated excludes plus every mutex the
    // function acquires itself (std::mutex is non-recursive — calling
    // into a self-locking function while holding its mutex deadlocks).
    std::set<std::string> own(fn.excludes_locks.begin(),
                              fn.excludes_locks.end());
    for (const LockRegion& region : fn.lock_regions) {
      own.insert(region.mutex);
    }
    excludes_[i].assign(own.begin(), own.end());
  }

  // Propagate to fixpoint (monotone over a finite lattice; terminates).
  bool changed = true;
  while (changed) {
    changed = false;
    ++sweeps_;
    for (std::size_t i = 0; i < n; ++i) {
      for (const Edge& edge : nodes[i].edges) {
        const std::uint32_t fresh = effective_[edge.callee] & ~effective_[i];
        if (fresh != 0U) {
          effective_[i] |= fresh;
          for (std::uint32_t bit = 1; bit <= kAddressAsValue; bit <<= 1U) {
            if ((fresh & bit) != 0U) {
              witnesses_[i][bit_index_(bit)] =
                  Witness{false, edge.line, "", edge.callee};
            }
          }
          changed = true;
        }
        for (const std::string& m : excludes_[edge.callee]) {
          if (!std::binary_search(excludes_[i].begin(), excludes_[i].end(),
                                  m)) {
            excludes_[i].insert(
                std::upper_bound(excludes_[i].begin(), excludes_[i].end(), m),
                m);
            excl_witness_[i].emplace(m, Witness{false, edge.line, "",
                                                edge.callee});
            changed = true;
          }
        }
      }
    }
  }
}

const Witness* AttributeMap::witness(std::size_t node,
                                     std::uint32_t attr) const {
  if ((effective_[node] & attr) == 0U) return nullptr;
  return &witnesses_[node][bit_index_(attr)];
}

std::string AttributeMap::chain(std::size_t node, std::uint32_t attr,
                                const CallGraph& graph) const {
  std::string out = graph.fn(node).qualified;
  std::size_t cur = node;
  std::set<std::size_t> visited;
  while (visited.insert(cur).second) {
    const Witness* w = witness(cur, attr);
    if (w == nullptr) break;
    if (w->direct) {
      out += " -> " + w->detail + " at " + graph.file_of(cur).source.path +
             ":" + std::to_string(w->line + 1);
      break;
    }
    out += " -> " + graph.fn(w->via).qualified + " (call at " +
           graph.file_of(cur).source.path + ":" +
           std::to_string(w->line + 1) + ")";
    cur = w->via;
  }
  return out;
}

std::string AttributeMap::exclude_chain(std::size_t node,
                                        const std::string& mutex,
                                        const CallGraph& graph) const {
  std::string out = graph.fn(node).qualified;
  std::size_t cur = node;
  std::set<std::size_t> visited;
  while (visited.insert(cur).second) {
    const auto it = excl_witness_[cur].find(mutex);
    if (it == excl_witness_[cur].end()) {
      out += " (acquires " + mutex + ")";
      break;
    }
    out += " -> " + graph.fn(it->second.via).qualified + " (call at " +
           graph.file_of(cur).source.path + ":" +
           std::to_string(it->second.line + 1) + ")";
    cur = it->second.via;
  }
  return out;
}

}  // namespace redund::lint
