#include "service/session_codec.h"

#include <cinttypes>
#include <cstdio>

#include "util/string_util.h"

namespace aigs {
namespace {

constexpr const char kMagicV1[] = "aigs-session/1";
constexpr const char kMagicV2[] = "aigs-session/2";

std::string JoinNodes(const std::vector<NodeId>& nodes) {
  std::string out;
  for (const NodeId v : nodes) {
    if (!out.empty()) {
      out += '+';
    }
    out += std::to_string(v);
  }
  return out;
}

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
  std::string out = std::string(kMagicV2) + "\n";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "fingerprint %016" PRIx64 "\n",
                session.fingerprint);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer), "hierarchy %016" PRIx64 "\n",
                session.hierarchy_fingerprint);
  out += buffer;
  out += "epoch " + std::to_string(session.epoch) + "\n";
  out += "policy " + session.policy_spec + "\n";
  out += "steps " + std::to_string(session.steps.size()) + "\n";
  for (const TranscriptStep& step : session.steps) {
    AppendStepKey(step, &out);
    if (step.diverged) {
      // The flag rides after the content fields so flagged and unflagged
      // lines share the AppendStepKey prefix (and hence the trie edges).
      out.insert(out.size() - 1, " d");
    }
  }
  out += "end\n";
  return out;
}

void SessionCodec::AppendStepKey(const TranscriptStep& step,
                                 std::string* out) {
  switch (step.kind) {
    case Query::Kind::kReach:
      // The per-Answer WAL record encodes this line: no temporaries.
      out->append("reach ");
      AppendUint(step.nodes[0], out);
      out->append(step.yes ? " y\n" : " n\n");
      break;
    case Query::Kind::kReachBatch: {
      std::string pattern;
      for (const bool yes : step.batch_answers) {
        pattern += yes ? 'y' : 'n';
      }
      *out += "batch " + JoinNodes(step.nodes) + " " + pattern + "\n";
      break;
    }
    case Query::Kind::kChoice:
      *out += "choice " + JoinNodes(step.nodes) + " " +
              std::to_string(step.choice) + "\n";
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
