// Small LRU cache of prepared evaluator states, keyed by solution-string
// value.
//
// GA/GSA evaluate mutation-only children from their parent's prepared
// snapshots (Evaluator::prepare + a prepared-mode TrialBatch against the
// returned state). A single prepared slot
// forces a re-prepare whenever consecutive children descend from different
// parents — but the same handful of elite strings parent most children,
// generation after generation, so a few cached states absorb most prepares.
// Keying by string VALUE (not population slot) makes the cache immune to
// slot overwrites (GSA's Metropolis replacement) and lets elites carried
// verbatim across generations keep hitting.
//
// A state prepared for string X is valid for X forever (it depends only on
// the evaluator's workload), so there is no invalidation — only eviction.
// prepare() consumes no RNG and a hit skips work that was bit-identically
// redundant, so cache behavior can never perturb search results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/encoding.h"
#include "sched/evaluator.h"

namespace sehc {

class PreparedLru {
 public:
  /// `eval` must outlive the cache. `capacity` >= 1.
  PreparedLru(const Evaluator& eval, std::size_t capacity);

  /// The prepared state for `key`: a cached one on hit, a freshly prepared
  /// one (evicting the least-recently-used entry if full) on miss. The
  /// reference stays valid until the entry is evicted — consume it before
  /// the next get().
  const PreparedState& get(const SolutionString& key);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  /// Hit fraction over all lookups (0 when none happened yet).
  double hit_rate() const;

  /// Drops every entry and zeroes the hit/miss counters.
  void clear();

 private:
  struct Entry {
    SolutionString key;
    PreparedState state;
    std::uint64_t stamp = 0;  // last-use tick for LRU eviction
  };

  const Evaluator* eval_;
  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace sehc
