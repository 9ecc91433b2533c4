#include "service/session_codec.h"

#include <cinttypes>
#include <cstdio>

#include "util/string_util.h"

namespace aigs {
namespace {

constexpr const char kMagicV1[] = "aigs-session/1";
constexpr const char kMagicV2[] = "aigs-session/2";

/// "<node>+<node>+..." followed by a space.
void AppendNodeList(std::span<const NodeId> nodes, std::string* out) {
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    if (j != 0) {
      *out += '+';
    }
    AppendUint(nodes[j], out);
  }
  *out += ' ';
}

void AppendReachKey(NodeId node, bool yes, std::string* out) {
  out->append("reach ");
  AppendUint(node, out);
  out->append(yes ? " y\n" : " n\n");
}

/// `answer(j)` is the answer to nodes[j].
template <typename AnswerAt>
void AppendBatchKey(std::span<const NodeId> nodes, std::size_t num_answers,
                    AnswerAt answer, std::string* out) {
  out->append("batch ");
  AppendNodeList(nodes, out);
  for (std::size_t j = 0; j < num_answers; ++j) {
    *out += answer(j) ? 'y' : 'n';
  }
  *out += '\n';
}

void AppendChoiceKey(std::span<const NodeId> choices, int choice,
                     std::string* out) {
  out->append("choice ");
  AppendNodeList(choices, out);
  *out += std::to_string(choice);
  *out += '\n';
}

void AppendHeader(const SessionHeader& header, std::size_t num_steps,
                  std::string* out) {
  *out += kMagicV2;
  *out += '\n';
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "fingerprint %016" PRIx64 "\n",
                header.fingerprint);
  *out += buffer;
  std::snprintf(buffer, sizeof(buffer), "hierarchy %016" PRIx64 "\n",
                header.hierarchy_fingerprint);
  *out += buffer;
  *out += "epoch " + std::to_string(header.epoch) + "\n";
  *out += "policy " + header.policy_spec + "\n";
  *out += "steps " + std::to_string(num_steps) + "\n";
}

/// The divergence flag rides after the content fields, so flagged and
/// unflagged lines share the AppendStepKey prefix.
void MarkDiverged(std::string* out) { out->insert(out->size() - 1, " d"); }

StatusOr<std::vector<NodeId>> ParseNodes(std::string_view text) {
  std::vector<NodeId> nodes;
  for (const std::string_view part : Split(text, '+')) {
    AIGS_ASSIGN_OR_RETURN(const std::uint64_t id, ParseUint64(part));
    if (id >= kInvalidNode) {
      return Status::OutOfRange("node id out of range in transcript: " +
                                std::string(part));
    }
    nodes.push_back(static_cast<NodeId>(id));
  }
  if (nodes.empty()) {
    return Status::InvalidArgument("empty node list in transcript");
  }
  return nodes;
}

Status MalformedLine(std::size_t line_no, std::string_view line) {
  return Status::InvalidArgument("malformed session line " +
                                 std::to_string(line_no) + ": '" +
                                 std::string(line) + "'");
}

StatusOr<std::uint64_t> ParseHexDigest(std::string_view text) {
  // Hand-rolled instead of strtoull: the digest is attacker-reachable
  // (saved blobs, WAL records), and strtoull quietly accepts signs,
  // leading whitespace, "0x", and out-of-range values that wrap.
  const std::string_view hex = Trim(text);
  if (hex.empty() || hex.size() > 16) {
    return Status::InvalidArgument("malformed hex digest '" +
                                   std::string(hex) + "'");
  }
  std::uint64_t value = 0;
  for (const char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return Status::InvalidArgument("malformed hex digest '" +
                                     std::string(hex) + "'");
    }
    value = value << 4 | static_cast<std::uint64_t>(digit);
  }
  return value;
}

}  // namespace

std::string SessionCodec::Encode(const SerializedSession& session) {
  std::string out;
  AppendHeader(session, session.steps.size(), &out);
  for (const TranscriptStep& step : session.steps) {
    AppendStepKey(step, &out);
    if (step.diverged) {
      MarkDiverged(&out);
    }
  }
  out += "end\n";
  return out;
}

void SessionCodec::Encode(const SessionHeader& header,
                          const PackedTranscript& steps, std::string* out) {
  AppendHeader(header, steps.size(), out);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    AppendStepKey(steps, i, out);
    if (steps.diverged(i)) {
      MarkDiverged(out);
    }
  }
  *out += "end\n";
}

void SessionCodec::AppendStepKey(const TranscriptStep& step,
                                 std::string* out) {
  switch (step.kind) {
    case Query::Kind::kReach:
      AppendReachKey(step.nodes[0], step.yes, out);
      break;
    case Query::Kind::kReachBatch:
      AppendBatchKey(
          step.nodes, step.batch_answers.size(),
          [&](std::size_t j) { return step.batch_answers[j]; }, out);
      break;
    case Query::Kind::kChoice:
      AppendChoiceKey(step.nodes, step.choice, out);
      break;
    case Query::Kind::kDone:
      AIGS_CHECK(false && "kDone never appears in a transcript");
  }
}

void SessionCodec::AppendStepKey(const PackedTranscript& steps, std::size_t i,
                                 std::string* out) {
  switch (steps.kind(i)) {
    case Query::Kind::kReach:
      // The per-Answer WAL record encodes this line: no temporaries.
      AppendReachKey(steps.node(i), steps.yes(i), out);
      break;
    case Query::Kind::kReachBatch:
      AppendBatchKey(
          steps.nodes(i), steps.nodes(i).size(),
          [&](std::size_t j) { return steps.batch_answer(i, j); }, out);
      break;
    case Query::Kind::kChoice:
      AppendChoiceKey(steps.nodes(i), steps.choice(i), out);
      break;
    case Query::Kind::kDone:
      AIGS_CHECK(false && "kDone never appears in a transcript");
  }
}

StatusOr<TranscriptStep> SessionCodec::ParseStepLine(std::string_view line) {
  std::vector<std::string_view> fields = Split(Trim(line), ' ');
  TranscriptStep step;
  if (fields.size() == 4 && fields[3] == "d") {
    step.diverged = true;
    fields.pop_back();
  }
  if (fields.size() != 3) {
    return Status::InvalidArgument("malformed transcript step '" +
                                   std::string(Trim(line)) + "'");
  }
  if (fields[0] == "reach") {
    step.kind = Query::Kind::kReach;
    AIGS_ASSIGN_OR_RETURN(step.nodes, ParseNodes(fields[1]));
    if (step.nodes.size() != 1 || (fields[2] != "y" && fields[2] != "n")) {
      return Status::InvalidArgument("malformed reach step '" +
                                     std::string(Trim(line)) + "'");
    }
    step.yes = fields[2] == "y";
  } else if (fields[0] == "batch") {
    step.kind = Query::Kind::kReachBatch;
    AIGS_ASSIGN_OR_RETURN(step.nodes, ParseNodes(fields[1]));
    if (fields[2].size() != step.nodes.size()) {
      return Status::InvalidArgument("malformed batch step '" +
                                     std::string(Trim(line)) + "'");
    }
    for (const char c : fields[2]) {
      if (c != 'y' && c != 'n') {
        return Status::InvalidArgument("malformed batch step '" +
                                       std::string(Trim(line)) + "'");
      }
      step.batch_answers.push_back(c == 'y');
    }
  } else if (fields[0] == "choice") {
    step.kind = Query::Kind::kChoice;
    AIGS_ASSIGN_OR_RETURN(step.nodes, ParseNodes(fields[1]));
    AIGS_ASSIGN_OR_RETURN(const std::int64_t answer, ParseInt64(fields[2]));
    if (answer < -1 ||
        answer >= static_cast<std::int64_t>(step.nodes.size())) {
      return Status::InvalidArgument("malformed choice step '" +
                                     std::string(Trim(line)) + "'");
    }
    step.choice = static_cast<int>(answer);
  } else {
    return Status::InvalidArgument("unknown transcript step '" +
                                   std::string(Trim(line)) + "'");
  }
  return step;
}

StatusOr<SerializedSession> SessionCodec::Decode(const std::string& text) {
  SerializedSession session;
  const std::vector<std::string_view> lines = Split(text, '\n');
  std::size_t i = 0;
  const auto next_line = [&]() -> std::string_view {
    while (i < lines.size() && Trim(lines[i]).empty()) {
      ++i;
    }
    return i < lines.size() ? Trim(lines[i++]) : std::string_view();
  };

  const std::string_view magic = next_line();
  const bool v2 = magic == kMagicV2;
  if (!v2 && magic != kMagicV1) {
    return Status::InvalidArgument(
        "not a saved session (missing 'aigs-session/1|2' header)");
  }

  std::string_view line = next_line();
  if (!line.starts_with("fingerprint ")) {
    return MalformedLine(i, line);
  }
  if (auto digest = ParseHexDigest(line.substr(12)); digest.ok()) {
    session.fingerprint = *digest;
  } else {
    return MalformedLine(i, line);
  }

  if (v2) {
    line = next_line();
    if (!line.starts_with("hierarchy ")) {
      return MalformedLine(i, line);
    }
    if (auto digest = ParseHexDigest(line.substr(10)); digest.ok()) {
      session.hierarchy_fingerprint = *digest;
    } else {
      return MalformedLine(i, line);
    }
  }

  line = next_line();
  if (!line.starts_with("epoch ")) {
    return MalformedLine(i, line);
  }
  AIGS_ASSIGN_OR_RETURN(session.epoch, ParseUint64(Trim(line.substr(6))));

  line = next_line();
  if (!line.starts_with("policy ")) {
    return MalformedLine(i, line);
  }
  session.policy_spec = std::string(Trim(line.substr(7)));
  if (session.policy_spec.empty()) {
    return Status::InvalidArgument("saved session names no policy");
  }

  line = next_line();
  if (!line.starts_with("steps ")) {
    return MalformedLine(i, line);
  }
  AIGS_ASSIGN_OR_RETURN(const std::uint64_t num_steps,
                        ParseUint64(Trim(line.substr(6))));
  // Each step occupies one line, so a count beyond the remaining input is
  // malformed — checked before reserve() so an absurd attacker-controlled
  // count cannot throw std::length_error out of this API.
  if (num_steps > lines.size() - i) {
    return Status::InvalidArgument(
        "saved session promises " + std::to_string(num_steps) +
        " steps but only " + std::to_string(lines.size() - i) +
        " lines follow");
  }
  session.steps.reserve(num_steps);
  for (std::uint64_t s = 0; s < num_steps; ++s) {
    line = next_line();
    auto step = ParseStepLine(line);
    if (!step.ok()) {
      if (step.status().code() == StatusCode::kOutOfRange) {
        return step.status();  // node id overflow keeps its specific error
      }
      return MalformedLine(i, line);
    }
    if (step->diverged && !v2) {
      return MalformedLine(i, line);  // flags are a v2 feature
    }
    session.steps.push_back(*std::move(step));
  }

  if (next_line() != "end") {
    return Status::InvalidArgument("saved session is truncated (missing "
                                   "'end' trailer)");
  }
  // Content past the trailer means the blob was spliced or corrupted; a
  // torn tail should lose data, never smuggle extra lines past the count.
  if (!next_line().empty()) {
    return Status::InvalidArgument(
        "saved session has content after its 'end' trailer");
  }
  return session;
}

}  // namespace aigs
