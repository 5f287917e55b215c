// One static knob table per attack and per defense. A `Knob` binds a tuning
// key to the options field its adapter runs; the field's type is the knob's
// type and `min`..`max` a number's inclusive range. `apply_tuning` applies
// a `Tuning` through a table; `knob_docs` renders one for `--list`, reading
// defaults from `Opts{}`. Every rejection has one form:
//   attack "seq": tuning key "frames" needs an integer >= 1, got "0"
#pragma once

#include <algorithm>
#include <cfloat>
#include <climits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/strings.hpp"

namespace stt {

/// Knob settings as (key, value) strings, applied in order.
using Tuning = std::vector<std::pair<std::string, std::string>>;

/// A knob's type: the index of its field's alternative in `Knob::field`.
enum class KnobType { kInt, kReal, kBool, kName };

template <class Opts>
struct Knob {
  std::string_view name;
  std::string_view doc;
  std::variant<int Opts::*, double Opts::*, bool Opts::*, std::string Opts::*>
      field;
  double min = 0;  ///< an int knob is also bounded by its `int` field
  double max = DBL_MAX;
  bool min_open = false;       ///< the range is (min, max]
  bool negate = false;         ///< a bool knob whose field holds its negation
  std::string_view note = {};  ///< listed when a name field defaults empty

  KnobType type() const { return static_cast<KnobType>(field.index()); }

  /// " >= 1", " in (0, 1]", or "" for a bool or a name.
  std::string range_text() const {
    if (type() == KnobType::kBool || type() == KnobType::kName) return "";
    if (max >= (type() == KnobType::kInt ? INT_MAX : DBL_MAX)) {
      return strformat(" >= %g", min);
    }
    return strformat(" in %c%g, %g]", min_open ? '(' : '[', min, max);
  }

  /// The number `text` holds (0 or 1 for a bool, 0 for a name); throws
  /// std::invalid_argument naming `role` "`owner`", the key and the text
  /// when it is not a value of this knob's type and range.
  double parse(std::string_view role, std::string_view owner,
               std::string_view text) const {
    static constexpr const char* kNeeds[] = {"an integer", "a number",
                                             "a bool (0|1|true|false)"};
    std::optional<double> v;
    if (type() == KnobType::kName) return 0;
    if (type() == KnobType::kInt) {
      const auto i = parse_int(text, static_cast<std::int64_t>(min),
                               static_cast<std::int64_t>(
                                   std::min<double>(max, INT_MAX)));
      if (i) v = static_cast<double>(*i);
    } else if (type() == KnobType::kReal) {
      v = parse_real(text, min, max);
    } else if (text == "0" || text == "false" || text == "1" ||
               text == "true") {
      v = text == "1" || text == "true";
    }
    if (v && !(min_open && *v == min)) return *v;
    throw std::invalid_argument(
        std::string(role) + " \"" + std::string(owner) + "\": tuning key \"" +
        std::string(name) + "\" needs " + kNeeds[field.index()] +
        range_text() + ", got \"" + std::string(text) + "\"");
  }
};

/// One knob as `--list` prints it; `type` carries the range ("int >= 1").
struct KnobDoc {
  std::string name, type, default_value, doc;
};

/// Applies `tuning` to `opts` through `table`, in order. Throws
/// std::invalid_argument naming `role` "`owner`" for an unknown key (with
/// the known ones) or a value outside the knob's type and range.
template <class Opts>
void apply_tuning(std::type_identity_t<std::span<const Knob<Opts>>> table,
                  Opts& opts, const Tuning& tuning, std::string_view role,
                  std::string_view owner) {
  for (const auto& [key, text] : tuning) {
    const auto knob = std::find_if(
        table.begin(), table.end(),
        [&key = key](const Knob<Opts>& k) { return k.name == key; });
    if (knob == table.end()) {
      std::string known;
      for (const Knob<Opts>& k : table) {
        known += (known.empty() ? "known: " : ", ") + std::string(k.name);
      }
      throw std::invalid_argument(
          std::string(role) + " \"" + std::string(owner) +
          "\": unknown tuning key \"" + key + "\" (" +
          (known.empty() ? "it takes no tuning" : known) + ")");
    }
    const double v = knob->parse(role, owner, text);
    std::visit(
        [&](auto field) {
          auto& slot = opts.*field;
          using T = std::remove_reference_t<decltype(slot)>;
          if constexpr (std::is_same_v<T, std::string>) {
            slot = text;
          } else if constexpr (std::is_same_v<T, bool>) {
            slot = (v != 0) != knob->negate;
          } else {
            slot = static_cast<T>(v);
          }
        },
        knob->field);
  }
}

// The visit reads `defaults` through every field type; GCC flags the
// branches for types a small Opts lacks, which never run.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// The `--list` rows of `table`, each default read from `Opts{}`.
template <class Opts>
std::vector<KnobDoc> knob_docs(std::span<const Knob<Opts>> table) {
  static constexpr const char* kTypes[] = {"int", "real", "bool", "name"};
  const Opts defaults{};
  std::vector<KnobDoc> docs;
  for (const Knob<Opts>& k : table) {
    std::string value = std::visit(
        [&](auto field) -> std::string {
          const auto& slot = defaults.*field;
          using T = std::remove_cvref_t<decltype(slot)>;
          if constexpr (std::is_same_v<T, std::string>) {
            return slot.empty() ? std::string(k.note) : slot;
          } else if constexpr (std::is_same_v<T, bool>) {
            return slot != k.negate ? "1" : "0";
          } else if constexpr (std::is_same_v<T, int>) {
            return std::to_string(slot);
          } else {
            return strformat("%g", slot);
          }
        },
        k.field);
    docs.push_back({std::string(k.name), kTypes[k.field.index()] +
                    k.range_text(), std::move(value), std::string(k.doc)});
  }
  return docs;
}

#pragma GCC diagnostic pop

}  // namespace stt
