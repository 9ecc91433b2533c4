#include "service/plan_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/common.h"

namespace aigs {
namespace {

constexpr std::size_t kNoCell = ~std::size_t{0};

/// Splitmix-style finalizer over (parent, answer): the high half picks the
/// home stripe, the low bits the edge-table cell.
std::uint64_t EdgeHash(PlanPrefixId parent, std::uint32_t answer) {
  std::uint64_t h = parent * 0x9E3779B97F4A7C15ULL + answer;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

std::optional<std::uint32_t> PlanCache::EdgeOf(const TranscriptStep& step) {
  if (step.diverged) {
    return std::nullopt;
  }
  switch (step.kind) {
    case Query::Kind::kReach:
      return step.yes ? 1u : 0u;
    case Query::Kind::kChoice:
      return static_cast<std::uint32_t>(step.choice + 1);
    case Query::Kind::kReachBatch: {
      if (step.batch_answers.size() > 32) {
        return std::nullopt;
      }
      std::uint32_t mask = 0;
      for (std::size_t i = 0; i < step.batch_answers.size(); ++i) {
        mask |= static_cast<std::uint32_t>(step.batch_answers[i]) << i;
      }
      return mask;
    }
    case Query::Kind::kDone:
      break;
  }
  return std::nullopt;
}

PlanCache::PlanCache(PlanCacheOptions options)
    : stripes_(std::clamp<std::size_t>(options.num_stripes, 1,
                                       std::size_t{1} << kStripeBits)) {
  stripe_budget_ =
      std::max<std::size_t>(options.max_bytes / stripes_.size(), 1);
}

PlanPrefixId PlanCache::MakeId(std::size_t stripe, std::uint32_t slot,
                               std::uint32_t generation) {
  return ((static_cast<PlanPrefixId>(generation) << (kSlotBits + kStripeBits)) |
          (static_cast<PlanPrefixId>(slot) << kStripeBits) | stripe) +
         1;
}

std::size_t PlanCache::StripeOf(PlanPrefixId id) const {
  return static_cast<std::size_t>((id - 1) & ((1u << kStripeBits) - 1));
}

PlanCache::Node* PlanCache::Resolve(Stripe& stripe, PlanPrefixId id) {
  const PlanPrefixId bits = id - 1;
  const auto slot =
      static_cast<std::uint32_t>((bits >> kStripeBits) & (kSlotLimit - 1));
  const auto generation =
      static_cast<std::uint32_t>(bits >> (kSlotBits + kStripeBits));
  if (slot >= stripe.nodes.size()) {
    return nullptr;
  }
  Node& node = stripe.nodes[slot];
  return node.live && node.generation == generation ? &node : nullptr;
}

std::uint32_t PlanCache::AllocateSlot(Stripe& stripe) {
  std::uint32_t slot;
  if (!stripe.free_slots.empty()) {
    slot = stripe.free_slots.back();
    stripe.free_slots.pop_back();
  } else if (stripe.nodes.size() < kSlotLimit) {
    slot = static_cast<std::uint32_t>(stripe.nodes.size());
    stripe.nodes.emplace_back();
  } else {
    return kSlotLimit;
  }
  Node& node = stripe.nodes[slot];
  node.live = true;
  node.referenced = true;  // a full CLOCK sweep of grace before its Insert
  ++stripe.live;
  return slot;
}

std::size_t PlanCache::FindEdge(const Stripe& stripe, PlanPrefixId parent,
                                std::uint32_t answer) {
  if (stripe.edges.empty()) {
    return kNoCell;
  }
  const std::size_t mask = stripe.edges.size() - 1;
  for (std::size_t i = EdgeHash(parent, answer) & mask;; i = (i + 1) & mask) {
    const Edge& cell = stripe.edges[i];
    if (cell.slot == kEmptyCell) {
      return kNoCell;
    }
    if (cell.parent == parent && cell.answer == answer) {
      return i;
    }
  }
}

void PlanCache::InsertEdge(Stripe& stripe, PlanPrefixId parent,
                           std::uint32_t answer, std::uint32_t slot) {
  if (2 * (stripe.num_edges + 1) > stripe.edges.size()) {
    std::vector<Edge> old = std::exchange(
        stripe.edges,
        std::vector<Edge>(std::max<std::size_t>(16, 2 * stripe.edges.size()),
                          Edge{kNoPlanPrefix, 0, kEmptyCell}));
    stripe.num_edges = 0;
    for (const Edge& cell : old) {
      if (cell.slot != kEmptyCell) {
        InsertEdge(stripe, cell.parent, cell.answer, cell.slot);
      }
    }
  }
  const std::size_t mask = stripe.edges.size() - 1;
  std::size_t i = EdgeHash(parent, answer) & mask;
  while (stripe.edges[i].slot != kEmptyCell) {
    i = (i + 1) & mask;
  }
  stripe.edges[i] = Edge{parent, answer, slot};
  ++stripe.num_edges;
}

void PlanCache::EraseEdge(Stripe& stripe, std::size_t cell) {
  // Backward-shift deletion: pull each later cell of the probe run into
  // the hole unless its home lies cyclically after the hole, so linear
  // probing needs no tombstones.
  const std::size_t mask = stripe.edges.size() - 1;
  std::size_t hole = cell;
  for (std::size_t j = (cell + 1) & mask; stripe.edges[j].slot != kEmptyCell;
       j = (j + 1) & mask) {
    const std::size_t home =
        EdgeHash(stripe.edges[j].parent, stripe.edges[j].answer) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      stripe.edges[hole] = stripe.edges[j];
      hole = j;
    }
  }
  stripe.edges[hole].slot = kEmptyCell;
  --stripe.num_edges;
}

PlanPrefixId PlanCache::RootFor(std::string_view policy_spec) {
  std::lock_guard<std::mutex> roots_lock(roots_mutex_);
  if (const auto it = roots_.find(policy_spec); it != roots_.end()) {
    return it->second;
  }
  const std::size_t stripe_index =
      std::hash<std::string_view>{}(policy_spec) % stripes_.size();
  Stripe& stripe = stripes_[stripe_index];
  PlanPrefixId id;
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const std::uint32_t slot = AllocateSlot(stripe);
    if (slot == kSlotLimit) {
      return kNoPlanPrefix;
    }
    Node& node = stripe.nodes[slot];
    node.root = true;
    stripe.bytes += kNodeBytes + sizeof(decltype(roots_)::value_type) +
                    policy_spec.size();
    id = MakeId(stripe_index, slot, node.generation);
    EvictOver(stripe, slot);
  }
  roots_.emplace(std::string(policy_spec), id);
  return id;
}

std::size_t PlanCache::ChildStripe(PlanPrefixId from,
                                   std::uint32_t answer) const {
  return (EdgeHash(from, answer) >> 32) % stripes_.size();
}

std::uint32_t PlanCache::InternChild(Stripe& stripe, PlanPrefixId from,
                                     std::uint32_t answer) {
  if (const std::size_t cell = FindEdge(stripe, from, answer);
      cell != kNoCell) {
    return stripe.edges[cell].slot;
  }
  // Ids are never reused — an evicted path re-interns under a fresh
  // generation, and stale ids held by sessions just miss.
  const std::uint32_t slot = AllocateSlot(stripe);
  if (slot == kSlotLimit) {
    return kSlotLimit;
  }
  Node& node = stripe.nodes[slot];
  node.parent = from;
  node.answer = answer;
  ++stripe.evictable;
  stripe.bytes += kNodeBytes;
  InsertEdge(stripe, from, answer, slot);
  EvictOver(stripe, slot);
  return slot;
}

PlanPrefixId PlanCache::Advance(PlanPrefixId from, std::uint32_t answer) {
  if (from == kNoPlanPrefix) {
    return kNoPlanPrefix;
  }
  const std::size_t stripe_index = ChildStripe(from, answer);
  Stripe& stripe = stripes_[stripe_index];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const std::uint32_t slot = InternChild(stripe, from, answer);
  return slot == kSlotLimit
             ? kNoPlanPrefix
             : MakeId(stripe_index, slot, stripe.nodes[slot].generation);
}

std::optional<Query> PlanCache::QuestionAt(Node* node, bool counted) {
  if (node == nullptr || !node->planned) {
    if (counted) {
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::nullopt;
  }
  if (counted) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  node->referenced = true;
  Query query;
  query.kind = node->kind;
  query.node = node->question_node;
  query.choices.assign(node->choices.get(),
                       node->choices.get() + node->num_choices);
  return query;
}

std::optional<Query> PlanCache::Lookup(PlanPrefixId id, bool counted) {
  if (id == kNoPlanPrefix || StripeOf(id) >= stripes_.size()) {
    return QuestionAt(nullptr, counted);
  }
  Stripe& stripe = stripes_[StripeOf(id)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  return QuestionAt(Resolve(stripe, id), counted);
}

std::optional<Query> PlanCache::LookupChild(PlanPrefixId* at,
                                            std::uint32_t answer,
                                            bool counted) {
  if (*at == kNoPlanPrefix) {
    return QuestionAt(nullptr, counted);
  }
  const std::size_t stripe_index = ChildStripe(*at, answer);
  Stripe& stripe = stripes_[stripe_index];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  const std::uint32_t slot = InternChild(stripe, *at, answer);
  if (slot == kSlotLimit) {
    *at = kNoPlanPrefix;
    return QuestionAt(nullptr, counted);
  }
  Node& node = stripe.nodes[slot];
  *at = MakeId(stripe_index, slot, node.generation);
  return QuestionAt(&node, counted);
}

void PlanCache::Insert(PlanPrefixId id, const Query& query) {
  if (id == kNoPlanPrefix || StripeOf(id) >= stripes_.size()) {
    return;
  }
  Stripe& stripe = stripes_[StripeOf(id)];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  Node* node = Resolve(stripe, id);
  if (node == nullptr) {
    // The node was evicted since the caller interned it; a later Advance
    // along the same path re-interns a fresh id. Nothing to attach to.
    return;
  }
  node->referenced = true;
  if (node->planned) {
    return;  // determinism makes both values identical
  }
  node->planned = true;
  node->kind = query.kind;
  node->question_node = query.node;
  if (!query.choices.empty()) {
    node->num_choices = static_cast<std::uint32_t>(query.choices.size());
    node->choices.reset(new NodeId[query.choices.size()]);
    std::copy(query.choices.begin(), query.choices.end(),
              node->choices.get());
    stripe.bytes += query.choices.size() * sizeof(NodeId);
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  EvictOver(stripe, static_cast<std::uint32_t>(node - stripe.nodes.data()));
}

void PlanCache::EvictOver(Stripe& stripe, std::uint32_t keep) {
  // CLOCK over the stripe's slots: a referenced node loses its bit and
  // survives one more sweep, an unreferenced one is evicted. Roots and the
  // node just touched are never evicted (a single oversized entry beats
  // thrashing on every insert). Evicting a node drops its edge, so the
  // path re-interns cleanly later; surviving descendants keep working
  // under their existing ids.
  const std::size_t kept = stripe.nodes[keep].root ? 0 : 1;
  while (stripe.bytes > stripe_budget_ && stripe.evictable > kept) {
    if (stripe.hand >= stripe.nodes.size()) {
      stripe.hand = 0;
    }
    const auto slot = static_cast<std::uint32_t>(stripe.hand++);
    Node& node = stripe.nodes[slot];
    if (!node.live || node.root || slot == keep) {
      continue;
    }
    if (node.referenced) {
      node.referenced = false;
      continue;
    }
    const std::size_t cell = FindEdge(stripe, node.parent, node.answer);
    AIGS_DCHECK(cell != kNoCell);
    EraseEdge(stripe, cell);
    stripe.bytes -= kNodeBytes + node.num_choices * sizeof(NodeId);
    node.choices.reset();
    node.num_choices = 0;
    node.live = false;
    node.planned = false;
    --stripe.live;
    --stripe.evictable;
    // The next generation names the slot's next occupant; a slot whose
    // generations ran out is retired rather than risk reusing an id (the
    // last one is never minted, so no id wraps to kNoPlanPrefix).
    if (++node.generation < kGenerationLimit - 1) {
      stripe.free_slots.push_back(slot);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stats.entries += stripe.live;
    stats.bytes += stripe.bytes;
  }
  return stats;
}

}  // namespace aigs
