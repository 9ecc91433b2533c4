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
// common-prefix hot path of Engine::Ask degenerates to one id probe.
//
// Shape. The cache is the policy's decision tree, grown on demand: the root
// of each policy spec is the empty transcript, each node memoizes the
// question the policy asks at that prefix, and an edge is one ANSWER to that
// question. Because a node's question is fixed, the answer alone names the
// child: `Advance(parent, answer code)` (reach → the yes bit, choice →
// choice + 1, batch → the answer bitmask) assigns each distinct pair a
// PlanPrefixId, and a session keeps only its current id — the O(1) rolling
// plan key. This is sound only while every step a session takes answers the
// question planned or looked up at its parent; a diverged replay step
// (folded in observed, not planned) or a batch wider than the code has no
// edge, and the session leaves the trie (kNoPlanPrefix) until it ends or
// migrates again. Interning compares full (parent id, answer) keys, so two
// different transcripts never share an id and cached and uncached
// transcripts stay bit-exact.
//
// Lifecycle. An Engine creates one PlanCache per published CatalogSnapshot
// and hands each session the cache of the epoch it opened on. An epoch
// hot-swap stops handing out the old trie: it dies with its snapshot's
// refcount as sessions drain or migrate off it. The fresh trie fills as
// sessions plan through it: Ask misses, and the transcript replays of
// Resume, Migrate and the drain worker's idle-session sweep, which look
// each prefix up first and plan (and insert) only what is missing. All are
// exact (Definition 6), and every method is thread-safe, so sweep replays
// and live Asks interleave freely.
//
// Storage and budget. Nodes live in lock stripes; a child's home stripe is
// chosen by hashing (parent, answer), and its id encodes that stripe and its
// slot, so Advance, Lookup, Insert, and eviction each lock exactly one
// stripe and index a flat node array — no per-node strings, and no heap
// allocation for a reach or done question. Each stripe owns
// max_bytes/num_stripes and evicts by CLOCK (second chance) when an insert
// pushes it over; roots are pinned. There is no depth cap: the budget alone
// bounds the trie. Ids are never reused (a slot's generation is part of its
// id): a session holding an evicted id simply misses until its path is
// re-interned — correctness never depends on residency.
#ifndef AIGS_SERVICE_PLAN_CACHE_H_
#define AIGS_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
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
/// position" (cache disabled, or the session left the trie).
using PlanPrefixId = std::uint64_t;
inline constexpr PlanPrefixId kNoPlanPrefix = 0;

struct PlanCacheOptions {
  /// Master switch; a disabled engine never consults or populates a cache.
  bool enabled = true;
  /// Memory budget over all stripes: node slots, edge-table cells, root
  /// names and memoized choice lists.
  std::size_t max_bytes = 32u << 20;
  /// Lock stripes (clamped to [1, 256]). More stripes = less contention;
  /// the budget splits evenly across them.
  std::size_t num_stripes = 16;
};

/// Monotonic counters (hits/misses/evictions/inserts) plus a point-in-time
/// size reading, surfaced through Engine::Stats and the serve REPL. Hits
/// and misses count Asks only; replays fill the trie without moving them.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
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

  /// The answer code of the edge an answered step walks, or nullopt when
  /// the step has no edge and its session leaves the trie: a diverged step
  /// (not the question planned at its parent) or a batch of more than 32
  /// answers.
  static std::optional<std::uint32_t> EdgeOf(const TranscriptStep& step);

  /// Interns the empty-transcript root for `policy_spec` (pinned: roots are
  /// never evicted).
  PlanPrefixId RootFor(std::string_view policy_spec);

  /// Interns the child of `from` along `answer` (an EdgeOf code) and
  /// returns its id — one rolling-key step, O(1) regardless of depth.
  /// `from` may be an evicted id: the child is re-interned fresh and
  /// stays correct (ids are position witnesses, not storage addresses).
  /// kNoPlanPrefix stays kNoPlanPrefix: a session that left the trie stays
  /// out of it.
  PlanPrefixId Advance(PlanPrefixId from, std::uint32_t answer);

  /// The memoized question at `id`, marking it recently used. An Ask
  /// (`counted`) scores a hit or a miss; kNoPlanPrefix and evicted ids miss.
  std::optional<Query> Lookup(PlanPrefixId id, bool counted = true);

  /// Advance then Lookup under one stripe lock (a child shares its edge's
  /// stripe): moves `*at` to its child along `answer` and returns the
  /// memoized question there. This is how a session plans after an answer,
  /// so an Answer itself never touches the trie.
  std::optional<Query> LookupChild(PlanPrefixId* at, std::uint32_t answer,
                                   bool counted = true);

  /// Memoizes `query` at `id`, evicting cold entries of the stripe while it
  /// is over its budget share. Re-inserting an existing id only refreshes
  /// it (determinism makes the value identical by construction).
  void Insert(PlanPrefixId id, const Query& query);

  PlanCacheStats stats() const;

 private:
  /// One trie node in its stripe's flat array. A free slot is reused under
  /// the next generation, so an id minted for the previous occupant misses.
  struct Node {
    PlanPrefixId parent = kNoPlanPrefix;  // kNoPlanPrefix on a root
    std::unique_ptr<NodeId[]> choices;    // choice and batch questions only
    std::uint32_t generation = 0;
    std::uint32_t answer = 0;  // the edge code from `parent`
    std::uint32_t num_choices = 0;
    NodeId question_node = kInvalidNode;
    Query::Kind kind = Query::Kind::kDone;
    bool live = false;
    bool root = false;
    bool planned = false;
    bool referenced = false;  // CLOCK's second-chance bit
  };
  /// One open-addressing cell of a stripe's edge table (linear probing);
  /// `slot == kEmptyCell` marks a free cell.
  struct Edge {
    PlanPrefixId parent = kNoPlanPrefix;
    std::uint32_t answer = 0;
    std::uint32_t slot = 0;
  };
  /// Cache-line aligned, so threads on neighbouring stripes do not
  /// contend on one line.
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::vector<Node> nodes;
    std::vector<std::uint32_t> free_slots;
    std::vector<Edge> edges;  // capacity 0 or a power of two, ≤ half full
    std::size_t num_edges = 0;
    std::size_t live = 0;     // live nodes, roots included
    std::size_t evictable = 0;  // live non-root nodes
    std::size_t bytes = 0;
    std::size_t hand = 0;  // CLOCK hand over `nodes`
  };

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Id layout: generation in the high bits, then slot, then stripe; +1 so
  /// no live id is kNoPlanPrefix.
  static constexpr unsigned kStripeBits = 8;
  static constexpr unsigned kSlotBits = 28;
  static constexpr std::uint32_t kSlotLimit = 1u << kSlotBits;
  static constexpr std::uint32_t kGenerationLimit = 1u << (64 - kSlotBits -
                                                           kStripeBits);
  static constexpr std::uint32_t kEmptyCell = ~std::uint32_t{0};
  /// What every node stores: its slot and its share of an edge table kept
  /// at most half full. A planned choice or batch question adds its list; a
  /// root adds its name's entry in `roots_`.
  static constexpr std::size_t kNodeBytes = sizeof(Node) + 2 * sizeof(Edge);

  static PlanPrefixId MakeId(std::size_t stripe, std::uint32_t slot,
                             std::uint32_t generation);
  /// The live node `id` names, or nullptr (stale, foreign or never minted).
  /// Caller holds the stripe lock.
  static Node* Resolve(Stripe& stripe, PlanPrefixId id);
  std::size_t StripeOf(PlanPrefixId id) const;

  /// A fresh live node slot (generation already current), or kSlotLimit
  /// when the stripe ran out of slots.
  static std::uint32_t AllocateSlot(Stripe& stripe);
  /// The home stripe of the child of `from` along `answer`.
  std::size_t ChildStripe(PlanPrefixId from, std::uint32_t answer) const;
  /// The slot of the child of `from` along `answer` in its home stripe,
  /// interned if new, or kSlotLimit when the stripe is out of slots.
  /// Caller holds that stripe's lock.
  std::uint32_t InternChild(Stripe& stripe, PlanPrefixId from,
                            std::uint32_t answer);
  /// The question a planned node memoizes, counting a hit; or a miss.
  std::optional<Query> QuestionAt(Node* node, bool counted);
  static std::size_t FindEdge(const Stripe& stripe, PlanPrefixId parent,
                              std::uint32_t answer);
  static void InsertEdge(Stripe& stripe, PlanPrefixId parent,
                         std::uint32_t answer, std::uint32_t slot);
  static void EraseEdge(Stripe& stripe, std::size_t cell);
  void EvictOver(Stripe& stripe, std::uint32_t keep);

  std::size_t stripe_budget_ = 0;
  std::vector<Stripe> stripes_;

  std::mutex roots_mutex_;
  std::unordered_map<std::string, PlanPrefixId, StringHash, std::equal_to<>>
      roots_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> inserts_{0};
};

}  // namespace aigs

#endif  // AIGS_SERVICE_PLAN_CACHE_H_
