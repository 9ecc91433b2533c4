#include "service/catalog_snapshot.h"

#include <algorithm>
#include <array>
#include <utility>

#include "core/policy_registry.h"
#include "util/fnv.h"
#include "util/thread_pool.h"

namespace aigs {
namespace {

// FNV-1a over a zero byte is h *= P, so a weight's high zero bytes fold
// into one multiply by P^k. kPrimePowers[k] = P^k.
constexpr std::array<std::uint64_t, 9> kPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

/// Continues the hierarchy digest over the weights — byte for byte the
/// FnvMix of every weight, so existing saved blobs keep resuming.
std::uint64_t Fingerprint(std::uint64_t hierarchy_digest,
                          const Distribution& dist) {
  std::uint64_t h = hierarchy_digest;
  for (const Weight w : dist.weights()) {
    // __builtin_clzll(0) is undefined: a zero weight is eight zero bytes.
    const int bytes = w == 0 ? 0 : 8 - __builtin_clzll(w) / 8;
    for (int byte = 0; byte < bytes; ++byte) {
      h ^= (w >> (byte * 8)) & 0xFF;
      h *= kFnvPrime;
    }
    h *= kPrimePowers[8 - bytes];
  }
  return h;
}

}  // namespace

std::shared_ptr<const Hierarchy> UnownedHierarchy(const Hierarchy& hierarchy) {
  return std::shared_ptr<const Hierarchy>(std::shared_ptr<const Hierarchy>(),
                                          &hierarchy);
}

StatusOr<std::shared_ptr<const CatalogSnapshot>> CatalogSnapshot::Build(
    CatalogConfig config, std::uint64_t epoch) {
  if (config.hierarchy == nullptr) {
    return Status::InvalidArgument("CatalogConfig needs a hierarchy");
  }
  if (config.distribution.size() != config.hierarchy->NumNodes()) {
    return Status::InvalidArgument(
        "distribution size does not match the hierarchy's node count");
  }
  if (config.policy_specs.empty()) {
    return Status::InvalidArgument(
        "CatalogConfig needs at least one policy spec to prebuild");
  }

  auto snapshot = std::shared_ptr<CatalogSnapshot>(new CatalogSnapshot());
  snapshot->config_ = std::move(config);
  snapshot->epoch_ = epoch;
  snapshot->hierarchy_fingerprint_ =
      snapshot->config_.hierarchy->fingerprint();
  snapshot->fingerprint_ = Fingerprint(snapshot->hierarchy_fingerprint_,
                                       snapshot->config_.distribution);

  PolicyContext context;
  context.hierarchy = snapshot->config_.hierarchy.get();
  context.distribution = &snapshot->config_.distribution;
  context.cost_model = snapshot->config_.cost_model.get();

  // Dedup in config order; duplicate specs build once.
  std::vector<const std::string*> unique_specs;
  for (const std::string& spec : snapshot->config_.policy_specs) {
    const bool seen =
        std::any_of(unique_specs.begin(), unique_specs.end(),
                    [&spec](const std::string* s) { return *s == spec; });
    if (!seen) {
      unique_specs.push_back(&spec);
    }
  }

  ThreadPool* pool = snapshot->config_.build_pool;
  snapshot->config_.build_pool = nullptr;  // borrowed for Build() only
  std::vector<StatusOr<std::unique_ptr<Policy>>> built;
  built.reserve(unique_specs.size());
  for (std::size_t i = 0; i < unique_specs.size(); ++i) {
    built.emplace_back(Status::Internal("policy not built"));
  }
  if (pool != nullptr && unique_specs.size() > 1) {
    // Each policy's O(n) base precomputation is independent of the others;
    // one spec per shard. Registry Create is read-only on the registry and
    // on the shared context.
    pool->RunShards(unique_specs.size(), [&](std::size_t i) {
      built[i] = PolicyRegistry::Global().Create(*unique_specs[i], context);
    });
  } else {
    for (std::size_t i = 0; i < unique_specs.size(); ++i) {
      built[i] = PolicyRegistry::Global().Create(*unique_specs[i], context);
    }
  }
  // First failure in config order wins, matching the serial error surface.
  for (std::size_t i = 0; i < unique_specs.size(); ++i) {
    if (!built[i].ok()) {
      return Status(built[i].status().code(), "policy spec '" +
                                                  *unique_specs[i] + "': " +
                                                  built[i].status().message());
    }
  }
  for (std::size_t i = 0; i < unique_specs.size(); ++i) {
    snapshot->policies_.emplace(*unique_specs[i], *std::move(built[i]));
  }
  return std::shared_ptr<const CatalogSnapshot>(std::move(snapshot));
}

StatusOr<const Policy*> CatalogSnapshot::PolicyFor(
    const std::string& spec) const {
  const auto it = policies_.find(spec);
  if (it == policies_.end()) {
    std::string known;
    for (const auto& [name, policy] : policies_) {
      known += known.empty() ? name : ", " + name;
    }
    return Status::NotFound("policy spec '" + spec +
                            "' is not prebuilt in this snapshot (available: " +
                            known + ")");
  }
  return it->second.get();
}

std::vector<std::string> CatalogSnapshot::policy_specs() const {
  std::vector<std::string> specs;
  specs.reserve(policies_.size());
  for (const auto& [name, policy] : policies_) {
    specs.push_back(name);
  }
  return specs;
}

}  // namespace aigs
