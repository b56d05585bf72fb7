// Content-hash-keyed LRU caches for the serving layer.
//
// ContentLru maps a 64-bit content hash -> Value with true LRU eviction
// (std::list recency order + hash index, O(1) per operation) and a
// collision guard: every entry stores the full key it was inserted under,
// and a lookup whose hash matches but whose key differs is treated as a
// miss (and counted) instead of silently serving a colliding entry — the
// same fail-loud posture the result store takes on spec-hash collisions.
// Thread-safe; values are returned by copy so a concurrent eviction can
// never invalidate a served response.
//
// The serving keys are SharedTextKey: a short header plus a megabyte-scale
// text held in one shared immutable buffer. Caches and in-flight entries
// share that buffer instead of each holding a copy, and the guard compares
// buffer pointers before it compares bytes, so a repeat of a known document
// is checked in O(header).
//
// Two instantiations serve the server loop:
//   * ResponseCache  (Value = CachedSolve): the request -> response cache.
//     Keyed by the request identity (workload + engine + seed + y_limit +
//     budget, deadline excluded — see serve/protocol.h); a hit is
//     bit-identical to the cold solve because the cached fields are exactly
//     the deterministic part of the response (schedule CSV, makespan,
//     evals, steps).
//   * WorkloadCache  (Value = CanonicalWorkload): keyed by the raw workload
//     document, so a repeated body skips re-parsing and re-canonicalizing
//     even when budget or engine differ.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "hc/workload.h"

namespace sehc {

/// A collision-guard key whose bulk lives in a shared immutable buffer.
/// Two keys are equal exactly when their header and text bytes are equal;
/// sharing one buffer only makes that check O(header).
struct SharedTextKey {
  std::string header;
  std::shared_ptr<const std::string> text;

  friend bool operator==(const SharedTextKey& a, const SharedTextKey& b) {
    if (a.header != b.header) return false;
    if (a.text == b.text) return true;
    return a.text && b.text && *a.text == *b.text;
  }
};

template <typename Value, typename Key = std::string>
class ContentLru {
 public:
  /// `capacity` == 0 disables the cache (every lookup misses, inserts are
  /// dropped); otherwise at most `capacity` entries are retained.
  explicit ContentLru(std::size_t capacity) : capacity_(capacity) {}

  /// The cached value for (hash, key), or nullopt. A hit refreshes the
  /// entry's recency.
  std::optional<Value> lookup(std::uint64_t hash, const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(hash);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    if (it->second->key != key) {
      // 64-bit hash collision between distinct keys: refuse to serve the
      // wrong entry. insert() will overwrite it.
      ++collisions_;
      ++misses_;
      return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    ++hits_;
    return it->second->value;
  }

  /// Inserts (or overwrites) the entry, evicting the least recently used
  /// one when full.
  void insert(std::uint64_t hash, Key key, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0) return;
    auto it = index_.find(hash);
    if (it != index_.end()) {
      it->second->key = std::move(key);
      it->second->value = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().hash);
      entries_.pop_back();
      ++evictions_;
    }
    entries_.push_front(Entry{hash, std::move(key), std::move(value)});
    index_[hash] = entries_.begin();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  std::uint64_t hits() const { return counter(hits_); }
  std::uint64_t misses() const { return counter(misses_); }
  std::uint64_t evictions() const { return counter(evictions_); }
  std::uint64_t collisions() const { return counter(collisions_); }

  /// Hit fraction over all lookups (0 before any lookup).
  double hit_rate() const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    Key key;
    Value value;
  };

  std::uint64_t counter(const std::uint64_t& c) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return c;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t collisions_ = 0;
};

/// The deterministic part of a solved response — exactly what a cache hit
/// must reproduce bit-identically. Volatile accounting (queue_ms, solve_ms,
/// cache_hit) is recomputed per request.
struct CachedSolve {
  double makespan = 0.0;
  std::uint64_t evals = 0;
  std::uint64_t steps = 0;
  std::string schedule_csv;
};

using ResponseCache = ContentLru<CachedSolve, SharedTextKey>;

/// A parsed workload document and its canonical text (workload_to_string),
/// computed once per distinct document. `text` is the one shared buffer
/// every request key for this workload points at.
struct CanonicalWorkload {
  std::shared_ptr<const Workload> workload;
  std::shared_ptr<const std::string> text;
  std::uint64_t hash = 0;  // content_hash64(*text)
};

using WorkloadCache = ContentLru<CanonicalWorkload, SharedTextKey>;

}  // namespace sehc
