// Small string helpers used by the text IO paths and bench formatting.
#ifndef AIGS_UTIL_STRING_UTIL_H_
#define AIGS_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace aigs {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Parses a base-10 signed integer; rejects trailing garbage.
StatusOr<std::int64_t> ParseInt64(std::string_view s);

/// Parses a base-10 unsigned integer; rejects trailing garbage.
StatusOr<std::uint64_t> ParseUint64(std::string_view s);

/// Parses a floating-point number; rejects trailing garbage.
StatusOr<double> ParseDouble(std::string_view s);

/// Formats a double with `digits` decimal places ("12.34").
std::string FormatDouble(double value, int digits = 2);

/// Formats an integer with thousands separators ("12,656,970").
std::string FormatWithCommas(std::uint64_t value);

/// Appends `value` to `*out` in `base` (the digits std::to_string writes
/// for base 10; lowercase for 16), left-padded with '0' to `width`.
void AppendUint(std::uint64_t value, std::string* out, int base = 10,
                std::size_t width = 0);

}  // namespace aigs

#endif  // AIGS_UTIL_STRING_UTIL_H_
