// PackedTranscript — a live session's answer transcript, one 8-byte word
// per answered step.
//
// A policy is a deterministic decision tree (Definition 6), so a live
// session is a path of answers through it: each step needs only its
// question's identity and its answer. A step packs into one word (bit 63
// high):
//
//   63..62  kind (Query::Kind: reach, batch or choice)
//   61      diverged (replay bookkeeping; see TranscriptStep::diverged)
//   reach:          bit 32 the answer (1 = yes), 31..0 the question node
//   batch, choice:  60..32 the offset of the step's list in the side
//                   vector; 31..0 the answer code PlanCache::EdgeOf
//                   defines (a batch's answer mask, bit i = answer i; a
//                   choice's index + 1), or 0 for a batch wider than 32
//
// The side vector holds, at a step's offset, its list length, the listed
// nodes, and for a batch wider than 32 its answers as ceil(length / 32)
// mask words. It is allocated at the first batch or choice step, so a
// reach-only session owns one growing word array and nothing else.
//
// TranscriptStep stays the decoded view: SessionCodec, TryApplyObserved
// and replay read steps through Decode(), and Append() takes one.
#ifndef AIGS_SERVICE_PACKED_TRANSCRIPT_H_
#define AIGS_SERVICE_PACKED_TRANSCRIPT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/policy.h"
#include "util/common.h"

namespace aigs {

class PackedTranscript {
 public:
  PackedTranscript() = default;
  PackedTranscript(PackedTranscript&&) noexcept = default;
  PackedTranscript& operator=(PackedTranscript&&) noexcept = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends one answered step. `nodes` and `answers` are the batch or
  /// choice list and its answers (answers.size() == nodes.size()).
  void AppendReach(NodeId node, bool yes, bool diverged = false);
  void AppendBatch(std::span<const NodeId> nodes,
                   const std::vector<bool>& answers, bool diverged = false);
  void AppendChoice(std::span<const NodeId> choices, int choice,
                    bool diverged = false);
  /// Appends a decoded step, flagged `diverged` (not step.diverged).
  void Append(const TranscriptStep& step, bool diverged);

  Query::Kind kind(std::size_t i) const {
    return static_cast<Query::Kind>(words_[i] >> kKindShift);
  }
  bool diverged(std::size_t i) const {
    return (words_[i] >> kDivergedBit) & 1;
  }
  /// A kReach step's question node and answer.
  NodeId node(std::size_t i) const {
    return static_cast<NodeId>(words_[i]);
  }
  bool yes(std::size_t i) const { return (words_[i] >> 32) & 1; }
  /// A batch or choice step's node list.
  std::span<const NodeId> nodes(std::size_t i) const;
  /// A batch step's answer to nodes(i)[j].
  bool batch_answer(std::size_t i, std::size_t j) const;
  /// A choice step's answer index (-1 = none of these).
  int choice(std::size_t i) const {
    return static_cast<int>(static_cast<std::uint32_t>(words_[i])) - 1;
  }

  /// PlanCache::EdgeOf of step i, read off its word: nullopt for a
  /// diverged step or a batch wider than 32.
  std::optional<std::uint32_t> EdgeOf(std::size_t i) const;

  /// Step i as a TranscriptStep, reusing `out`'s buffers.
  void Decode(std::size_t i, TranscriptStep* out) const;

  std::size_t NumDiverged() const;

 private:
  static constexpr unsigned kKindShift = 62;
  static constexpr unsigned kDivergedBit = 61;
  static constexpr unsigned kOffsetBits = 29;
  static constexpr std::uint32_t kMaskBits = 32;

  static std::uint64_t Tag(Query::Kind kind, bool diverged) {
    return static_cast<std::uint64_t>(kind) << kKindShift |
           static_cast<std::uint64_t>(diverged) << kDivergedBit;
  }
  /// Start of step i's list entry (its length) in the side vector.
  std::size_t Offset(std::size_t i) const {
    return static_cast<std::size_t>((words_[i] >> 32) &
                                    ((std::uint64_t{1} << kOffsetBits) - 1));
  }
  void Push(std::uint64_t word);
  /// Appends `nodes` (behind their length) to the side vector and returns
  /// the word bits that reference them.
  std::uint64_t PushList(std::span<const NodeId> nodes);

  /// Capacities 3, 7, 15, ... words: each array plus its allocator header
  /// fills a power-of-two heap chunk.
  std::unique_ptr<std::uint64_t[]> words_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
  std::unique_ptr<std::vector<NodeId>> side_;
};

}  // namespace aigs

#endif  // AIGS_SERVICE_PACKED_TRANSCRIPT_H_
