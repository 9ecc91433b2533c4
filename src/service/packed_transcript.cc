#include "service/packed_transcript.h"

#include <algorithm>
#include <limits>

namespace aigs {

void PackedTranscript::Push(std::uint64_t word) {
  if (size_ == capacity_) {
    AIGS_CHECK(capacity_ < std::numeric_limits<std::uint32_t>::max() / 2);
    const std::uint32_t grown = capacity_ == 0 ? 3 : 2 * capacity_ + 1;
    auto words = std::make_unique_for_overwrite<std::uint64_t[]>(grown);
    std::copy_n(words_.get(), size_, words.get());
    words_ = std::move(words);
    capacity_ = grown;
  }
  words_[size_++] = word;
}

std::uint64_t PackedTranscript::PushList(std::span<const NodeId> nodes) {
  if (side_ == nullptr) {
    side_ = std::make_unique<std::vector<NodeId>>();
  }
  const std::size_t offset = side_->size();
  // A session would need gigabytes of question lists to get here.
  AIGS_CHECK(offset < (std::size_t{1} << kOffsetBits));
  side_->push_back(static_cast<NodeId>(nodes.size()));
  side_->insert(side_->end(), nodes.begin(), nodes.end());
  return static_cast<std::uint64_t>(offset) << 32;
}

void PackedTranscript::AppendReach(NodeId node, bool yes, bool diverged) {
  Push(Tag(Query::Kind::kReach, diverged) |
       static_cast<std::uint64_t>(yes) << 32 | node);
}

void PackedTranscript::AppendBatch(std::span<const NodeId> nodes,
                                   const std::vector<bool>& answers,
                                   bool diverged) {
  AIGS_DCHECK(answers.size() == nodes.size());
  std::uint64_t word = Tag(Query::Kind::kReachBatch, diverged) |
                       PushList(nodes);
  if (answers.size() <= kMaskBits) {
    for (std::size_t j = 0; j < answers.size(); ++j) {
      word |= static_cast<std::uint64_t>(answers[j]) << j;
    }
  } else {
    for (std::size_t j = 0; j < answers.size(); j += kMaskBits) {
      std::uint32_t mask = 0;
      for (std::size_t b = 0; b < kMaskBits && j + b < answers.size(); ++b) {
        mask |= static_cast<std::uint32_t>(answers[j + b]) << b;
      }
      side_->push_back(mask);
    }
  }
  Push(word);
}

void PackedTranscript::AppendChoice(std::span<const NodeId> choices,
                                    int choice, bool diverged) {
  Push(Tag(Query::Kind::kChoice, diverged) | PushList(choices) |
       static_cast<std::uint32_t>(choice + 1));
}

void PackedTranscript::Append(const TranscriptStep& step, bool diverged) {
  switch (step.kind) {
    case Query::Kind::kReach:
      AppendReach(step.nodes[0], step.yes, diverged);
      return;
    case Query::Kind::kReachBatch:
      AppendBatch(step.nodes, step.batch_answers, diverged);
      return;
    case Query::Kind::kChoice:
      AppendChoice(step.nodes, step.choice, diverged);
      return;
    case Query::Kind::kDone:
      break;
  }
  AIGS_CHECK(false && "kDone never appears in a transcript");
}

std::span<const NodeId> PackedTranscript::nodes(std::size_t i) const {
  AIGS_DCHECK(kind(i) != Query::Kind::kReach);
  const NodeId* list = side_->data() + Offset(i);
  return {list + 1, list[0]};
}

bool PackedTranscript::batch_answer(std::size_t i, std::size_t j) const {
  AIGS_DCHECK(kind(i) == Query::Kind::kReachBatch);
  const std::size_t offset = Offset(i);
  const std::size_t length = (*side_)[offset];
  if (length <= kMaskBits) {
    return (words_[i] >> j) & 1;
  }
  const std::uint32_t mask = (*side_)[offset + 1 + length + j / kMaskBits];
  return (mask >> (j % kMaskBits)) & 1;
}

std::optional<std::uint32_t> PackedTranscript::EdgeOf(std::size_t i) const {
  if (diverged(i)) {
    return std::nullopt;
  }
  switch (kind(i)) {
    case Query::Kind::kReach:
      return yes(i) ? 1u : 0u;
    case Query::Kind::kReachBatch:
      if ((*side_)[Offset(i)] > kMaskBits) {
        return std::nullopt;
      }
      [[fallthrough]];
    case Query::Kind::kChoice:
      return static_cast<std::uint32_t>(words_[i]);
    case Query::Kind::kDone:
      break;
  }
  return std::nullopt;
}

void PackedTranscript::Decode(std::size_t i, TranscriptStep* out) const {
  out->kind = kind(i);
  out->diverged = diverged(i);
  out->yes = false;
  out->batch_answers.clear();
  out->choice = -1;
  switch (out->kind) {
    case Query::Kind::kReach:
      out->nodes.assign(1, node(i));
      out->yes = yes(i);
      return;
    case Query::Kind::kReachBatch: {
      const std::span<const NodeId> list = nodes(i);
      out->nodes.assign(list.begin(), list.end());
      for (std::size_t j = 0; j < list.size(); ++j) {
        out->batch_answers.push_back(batch_answer(i, j));
      }
      return;
    }
    case Query::Kind::kChoice: {
      const std::span<const NodeId> list = nodes(i);
      out->nodes.assign(list.begin(), list.end());
      out->choice = choice(i);
      return;
    }
    case Query::Kind::kDone:
      break;
  }
  AIGS_CHECK(false && "kDone never appears in a transcript");
}

std::size_t PackedTranscript::NumDiverged() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    count += diverged(i) ? 1 : 0;
  }
  return count;
}

}  // namespace aigs
