#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace aigs {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  std::size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  std::size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

namespace {

template <typename T>
StatusOr<T> ParseNumber(std::string_view s) {
  s = Trim(s);
  T value{};
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || s.empty()) {
    return Status::InvalidArgument("cannot parse number from '" +
                                   std::string(s) + "'");
  }
  return value;
}

}  // namespace

StatusOr<std::int64_t> ParseInt64(std::string_view s) {
  return ParseNumber<std::int64_t>(s);
}

StatusOr<std::uint64_t> ParseUint64(std::string_view s) {
  return ParseNumber<std::uint64_t>(s);
}

StatusOr<double> ParseDouble(std::string_view s) {
  return ParseNumber<double>(s);
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

void AppendUint(std::uint64_t value, std::string* out, int base,
                std::size_t width) {
  char digits[64];
  const char* const end =
      std::to_chars(digits, digits + sizeof(digits), value, base).ptr;
  const std::size_t length = static_cast<std::size_t>(end - digits);
  if (length < width) {
    out->append(width - length, '0');
  }
  out->append(digits, length);
}

std::string FormatWithCommas(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) {
      out.push_back(',');
    }
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace aigs
