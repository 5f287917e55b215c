// Small string helpers shared by the parsers and report writers.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stt {

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a single delimiter character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on any run of whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// Zero-copy split_ws: appends views into `s` onto `out` (which is cleared
/// first). The views alias `s`; callers own the backing buffer's lifetime.
/// Reusing one `out` across calls makes tokenizing allocation-free.
void split_ws_views(std::string_view s, std::vector<std::string_view>& out);

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

/// ASCII upper-case copy.
std::string to_upper(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive equality (ASCII).
bool iequals(std::string_view a, std::string_view b);

/// Escape `s` for a JSON string literal: quote, backslash, \n and \t get
/// their short escapes, other control characters \u00XX.
std::string json_escape(std::string_view s);

/// The strict text-to-number parses behind every numeric input. The whole
/// string must be the number: a leading space or '+', trailing text, NaN,
/// infinity or a value outside [min, max] yields nullopt, and the caller
/// names the input in its error.
std::optional<std::int64_t> parse_int(
    std::string_view s,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());
std::optional<double> parse_real(
    std::string_view s, double min = -std::numeric_limits<double>::max(),
    double max = std::numeric_limits<double>::max());
/// Unsigned hexadecimal, with or without a "0x"/"0X" prefix.
std::optional<std::uint64_t> parse_hex(std::string_view s);
/// Environment variable `name` as an integer >= 0; nullopt when unset or
/// empty, std::invalid_argument naming the variable for any other text.
std::optional<std::int64_t> env_int(const char* name);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace stt
