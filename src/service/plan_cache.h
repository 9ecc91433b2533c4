// PlanCache — the shared per-epoch question-plan trie behind Engine::Ask.
//
// Every registry policy is deterministic given (catalog snapshot, answer
// transcript): the question a session faces is a pure function of the
// transcript prefix it has accumulated (Definition 6; PR 3's replay-verified
// Resume pins this for every policy on trees and DAGs). A million sessions
// answering the same first three questions therefore need the planner run
// ONCE per distinct prefix — every other session can read the memoized
// question. That is what this cache does: it memoizes the pure planner
// (SearchSession::PlanQuestion) per (policy spec, transcript prefix) so the
// common-prefix hot path of Engine::Ask degenerates to one hash probe.
//
// Shape. The cache is a trie over answer transcripts: the root of each
// policy spec is the empty transcript, an edge is one answered question
// (encoded exactly as the SessionCodec transcript line — "reach 5 y",
// "batch 1+2 yn", ...), and each node memoizes the question the policy asks
// at that prefix. Nodes are INTERNED: `Advance(parent, edge)` assigns each
// distinct (parent id, edge line) pair a PlanPrefixId, and a session keeps
// only its current id — the O(1) rolling plan key. The hot-path Lookup
// hashes one 64-bit id instead of re-hashing an O(depth) concatenated key
// string (the PR-4 scheme this replaces); per-answer maintenance is one
// O(edge) intern probe, independent of depth. Interning compares full edge
// strings under the parent id, so two different transcripts can never
// share an id — cached and uncached transcript equality stays bit-exact,
// no rolling-hash collision caveats.
//
// Lifecycle. An Engine creates one PlanCache per published CatalogSnapshot
// and hands each session the cache of the epoch it opened on. An epoch
// hot-swap stops handing out the old trie: it dies with its snapshot's
// refcount as sessions drain or migrate off it. The fresh trie fills only
// as planner runs insert what they plan: Ask misses, and the transcript
// replays of the drain worker's idle-session sweep, which re-plans every
// prefix a migrated session has passed on the new snapshot. Both are
// exact (Definition 6), and every method is thread-safe, so sweep replays
// and live Asks interleave freely.
//
// Budgeting. Nodes live in lock stripes; a node's home stripe is chosen by
// hashing (parent, edge), and its id encodes that stripe, so Advance,
// Lookup, Insert, and eviction each lock exactly one stripe. Each stripe
// owns max_bytes/num_stripes and evicts LRU nodes (plus their intern
// entries) when an insert pushes it over. Ids are never reused: a session
// holding an evicted id simply misses until its path is re-interned —
// correctness never depends on residency. A depth cap keeps long-tail
// transcripts (which nobody shares) from churning the budget.
#ifndef AIGS_SERVICE_PLAN_CACHE_H_
#define AIGS_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/policy.h"

namespace aigs {

/// Interned transcript-prefix handle — a session's O(1) rolling plan key.
/// Never reused within one cache's lifetime; kNoPlanPrefix means "no
/// position" (cache disabled or past the depth cap).
using PlanPrefixId = std::uint64_t;
inline constexpr PlanPrefixId kNoPlanPrefix = 0;

struct PlanCacheOptions {
  /// Master switch; a disabled engine never consults or populates a cache.
  bool enabled = true;
  /// Approximate memory budget over all stripes (edges + intern entries +
  /// memoized queries).
  std::size_t max_bytes = 32u << 20;
  /// Transcript depth (answered questions) beyond which Ask bypasses the
  /// cache — deep prefixes are effectively unique per session, so caching
  /// them only churns the LRU.
  std::size_t max_depth = 16;
  /// Lock stripes. More stripes = less contention; the budget splits evenly
  /// across them.
  std::size_t num_stripes = 16;
};

/// Monotonic counters (hits/misses/evictions/inserts) plus a point-in-time
/// size reading, surfaced through Engine::Stats and the serve REPL.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Asks past max_depth: they skip the trie and run the planner, and
  /// count as neither hits nor misses (hit_rate() is over lookups only).
  std::uint64_t bypassed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Concurrent, lock-striped, budgeted, interned question-plan trie.
/// All methods are thread-safe; every operation locks exactly one stripe.
class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions options);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Interns the empty-transcript root for `policy_spec`.
  PlanPrefixId RootFor(std::string_view policy_spec);

  /// Interns the child of `from` along `edge_line` (one SessionCodec step
  /// line) and returns its id — the per-answer rolling-key update, O(edge)
  /// regardless of depth. `from` may be an evicted id: the child is
  /// re-interned fresh and stays correct (ids are position witnesses, not
  /// storage addresses).
  PlanPrefixId Advance(PlanPrefixId from, std::string_view edge_line);

  /// The memoized question at `id`, refreshing its LRU position. Counts a
  /// hit or a miss; kNoPlanPrefix and evicted ids miss.
  std::optional<Query> Lookup(PlanPrefixId id);

  /// Memoizes `query` at `id`, evicting LRU entries of the stripe while it
  /// is over its budget share. Re-inserting an existing id only refreshes
  /// it (determinism makes the value identical by construction).
  void Insert(PlanPrefixId id, const Query& query);

  /// Counts one Ask that bypassed the trie past max_depth.
  void CountBypass() { bypassed_.fetch_add(1, std::memory_order_relaxed); }

  PlanCacheStats stats() const;
  const PlanCacheOptions& options() const { return options_; }

 private:
  /// One trie node: its position witness (parent + edge), which eviction
  /// uses to drop the intern entry, and the memoized question once some
  /// session planned here.
  struct Node {
    PlanPrefixId parent = kNoPlanPrefix;
    std::string edge;
    bool has_question = false;
    Query question;
    std::size_t bytes = 0;
    std::list<PlanPrefixId>::iterator lru_it;
  };
  /// Intern-map key; heterogeneous lookup avoids materializing a string on
  /// the hot path.
  struct ChildKey {
    PlanPrefixId parent;
    std::string edge;
    bool operator==(const ChildKey& other) const = default;
  };
  struct ChildRef {
    PlanPrefixId parent;
    std::string_view edge;
  };
  struct ChildHash {
    using is_transparent = void;
    std::size_t operator()(const ChildKey& k) const {
      return Mix(k.parent, k.edge);
    }
    std::size_t operator()(const ChildRef& k) const {
      return Mix(k.parent, k.edge);
    }
    static std::size_t Mix(PlanPrefixId parent, std::string_view edge);
  };
  struct ChildEq {
    using is_transparent = void;
    bool operator()(const ChildKey& a, const ChildKey& b) const {
      return a.parent == b.parent && a.edge == b.edge;
    }
    bool operator()(const ChildKey& a, const ChildRef& b) const {
      return a.parent == b.parent && a.edge == b.edge;
    }
    bool operator()(const ChildRef& a, const ChildKey& b) const {
      return a.parent == b.parent && a.edge == b.edge;
    }
  };
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<PlanPrefixId, Node> nodes;
    std::unordered_map<ChildKey, PlanPrefixId, ChildHash, ChildEq> children;
    std::list<PlanPrefixId> lru;  // front = most recently used
    std::size_t bytes = 0;
    std::uint64_t next_seq = 0;
  };

  /// A node's id encodes its home stripe (the stripe its (parent, edge)
  /// hash chose), so Advance and Lookup agree on the lock without a second
  /// table.
  std::size_t StripeOf(PlanPrefixId id) const {
    return static_cast<std::size_t>((id - 1) % stripes_.size());
  }
  void EvictOver(Stripe& stripe);

  PlanCacheOptions options_;
  std::size_t stripe_budget_ = 0;
  std::vector<Stripe> stripes_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bypassed_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> inserts_{0};
};

}  // namespace aigs

#endif  // AIGS_SERVICE_PLAN_CACHE_H_
