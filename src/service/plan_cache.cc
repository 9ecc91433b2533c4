#include "service/plan_cache.h"

#include <functional>
#include <utility>

#include "util/common.h"

namespace aigs {
namespace {

/// Approximate resident size of one node: the edge string (stored twice —
/// once in the node for eviction, once in the intern key), the query's
/// choice vector, and a flat allowance for the two map entries + LRU link.
constexpr std::size_t kNodeOverhead = 160;

std::size_t BaseNodeBytes(std::string_view edge) {
  return 2 * edge.size() + kNodeOverhead;
}

std::size_t QueryBytes(const Query& query) {
  return query.choices.size() * sizeof(NodeId);
}

}  // namespace

std::size_t PlanCache::ChildHash::Mix(PlanPrefixId parent,
                                      std::string_view edge) {
  std::size_t h = std::hash<std::string_view>{}(edge);
  h ^= parent + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  // Remix so both the stripe selector and the bucket index see well-spread
  // bits (stripe = h % stripes would otherwise correlate with buckets).
  h ^= h >> 33;
  h *= 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  return h;
}

PlanCache::PlanCache(PlanCacheOptions options)
    : options_(options),
      stripes_(options.num_stripes == 0 ? 1 : options.num_stripes) {
  stripe_budget_ = options_.max_bytes / stripes_.size();
  if (stripe_budget_ == 0) {
    stripe_budget_ = 1;
  }
}

PlanPrefixId PlanCache::RootFor(std::string_view policy_spec) {
  return Advance(kNoPlanPrefix, policy_spec);
}

PlanPrefixId PlanCache::Advance(PlanPrefixId from,
                                std::string_view edge_line) {
  const std::size_t stripe_index =
      ChildHash::Mix(from, edge_line) % stripes_.size();
  Stripe& stripe = stripes_[stripe_index];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.children.find(ChildRef{from, edge_line});
  if (it != stripe.children.end()) {
    return it->second;
  }
  // Allocate an id that encodes the home stripe so Lookup/Insert relock
  // the same stripe from the id alone. Ids are never reused — an evicted
  // path re-interns under fresh ids, and stale ids held by sessions just
  // miss.
  const PlanPrefixId id =
      stripe.next_seq++ * stripes_.size() + stripe_index + 1;
  Node node;
  node.parent = from;
  node.edge = std::string(edge_line);
  node.bytes = BaseNodeBytes(edge_line);
  const auto [node_it, inserted] = stripe.nodes.emplace(id, std::move(node));
  AIGS_DCHECK(inserted);
  stripe.children.emplace(ChildKey{from, std::string(edge_line)}, id);
  stripe.lru.push_front(id);
  node_it->second.lru_it = stripe.lru.begin();
  stripe.bytes += node_it->second.bytes;
  EvictOver(stripe);
  return id;
}

std::optional<Query> PlanCache::Lookup(PlanPrefixId id) {
  if (id == kNoPlanPrefix) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Stripe& stripe = stripes_[StripeOf(id)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.nodes.find(id);
  if (it == stripe.nodes.end() || !it->second.has_question) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
  return it->second.question;
}

void PlanCache::Insert(PlanPrefixId id, const Query& query) {
  if (id == kNoPlanPrefix) {
    return;
  }
  Stripe& stripe = stripes_[StripeOf(id)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.nodes.find(id);
  if (it == stripe.nodes.end()) {
    // The node was evicted since the caller interned it; a later Advance
    // along the same path re-interns a fresh id. Nothing to attach to.
    return;
  }
  Node& node = it->second;
  if (node.has_question) {
    // Determinism makes both values identical; only the recency changes.
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, node.lru_it);
    return;
  }
  node.question = query;
  node.has_question = true;
  stripe.bytes += QueryBytes(query);
  node.bytes += QueryBytes(query);
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, node.lru_it);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  EvictOver(stripe);
}

void PlanCache::EvictOver(Stripe& stripe) {
  // LRU eviction from the stripe tail; the freshest node is never evicted
  // (a single oversized entry beats thrashing on every insert). Evicting a
  // node drops its intern entry too, so the path re-interns cleanly later;
  // surviving descendants keep working under their existing ids.
  while (stripe.bytes > stripe_budget_ && stripe.nodes.size() > 1) {
    const PlanPrefixId victim_id = stripe.lru.back();
    const auto victim = stripe.nodes.find(victim_id);
    AIGS_DCHECK(victim != stripe.nodes.end());
    stripe.bytes -= victim->second.bytes;
    // find-then-erase: heterogeneous erase is C++23, this project is C++20.
    const auto child_it = stripe.children.find(
        ChildRef{victim->second.parent, victim->second.edge});
    if (child_it != stripe.children.end()) {
      stripe.children.erase(child_it);
    }
    stripe.lru.pop_back();
    stripe.nodes.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.bypassed = bypassed_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stats.entries += stripe.nodes.size();
    stats.bytes += stripe.bytes;
  }
  return stats;
}

}  // namespace aigs
