// Output checkers: the known-answer file and the independent key check.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/hybrid.hpp"
#include "netlist/netlist.hpp"

namespace sttbench {

/// Known answers, one line per item: `<workload> <variant> <item> k=v ...`.
/// The value is the canonical "k=v k=v" record of the item's deterministic
/// columns; lines starting with '#' are comments.
class KnownAnswers {
 public:
  /// Throws std::runtime_error when the file cannot be read or a line is
  /// malformed.
  static KnownAnswers load(const std::string& path);

  /// Empty when `actual` equals the expected record of `key`, otherwise a
  /// message naming both (a missing entry is a mismatch too).
  std::string check(const std::string& key, const std::string& actual) const;

  static std::string key(const std::string& workload, std::uint64_t variant,
                         const std::string& item);

  std::map<std::string, std::string> entries;
};

/// Checker self-test: alter the `field=` value of `key`'s expected record
/// and confirm that `check` now reports the unaltered `actual` record as a
/// mismatch. Returns an empty string when the checker caught it.
std::string self_test_known_answers(const KnownAnswers& answers,
                                    const std::string& key,
                                    const std::string& actual,
                                    const std::string& field);

enum class KeyVerdict { kEquivalent, kWrong, kUnproven };
const char* key_verdict_name(KeyVerdict v);

/// Conflict budget of one key check.
constexpr std::int64_t kKeyCheckConflicts = 200'000;

/// Program `key` into the attacker's view of `locked` and check the result
/// against the configured chip with a budgeted combinational (scan-view)
/// equivalence proof. A key naming a missing or non-LUT cell is wrong.
KeyVerdict check_key(const stt::Netlist& locked, const stt::LutKey& key);

/// Checker self-test on a configured design: its own key must be proven
/// equivalent, and the same key with one LUT mask bit flipped must be
/// counted as wrong. Returns an empty string on success.
std::string self_test_key_check(const stt::Netlist& locked,
                                const stt::LutKey& true_key);

}  // namespace sttbench
