// The knob tables (util/knob.hpp) behind every attack and defense: a knob
// takes exactly the values its type and range allow, and every rejection
// names the kind, the key and the quoted value in one message form.
#include "util/knob.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "attack/registry.hpp"
#include "core/flow.hpp"
#include "core/hybrid.hpp"
#include "defense/registry.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/strings.hpp"

namespace stt {
namespace {

struct Locked {
  Netlist hybrid;
  Netlist view;
};

const Locked& locked() {
  static const Locked l = [] {
    const Netlist original = generate_circuit(*find_profile("s641"), 7);
    FlowOptions opt;
    opt.algorithm = SelectionAlgorithm::kDependent;
    FlowResult flow =
        run_secure_flow(original, TechLibrary::cmos90_stt(), opt);
    return Locked{flow.hybrid, foundry_view(flow.hybrid)};
  }();
  return l;
}

/// Values no int, real or bool knob may take.
constexpr const char* kHostile[] = {
    "", " 5", "+5", "0x10", "1e999", "nan", "inf", "-1", "yes",
    "99999999999999999999"};

void expect_named(const std::string& msg, const std::string& kind,
                  const std::string& key, const std::string& value) {
  EXPECT_NE(msg.find("\"" + kind + "\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("\"" + key + "\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("\"" + value + "\""), std::string::npos) << msg;
  EXPECT_EQ(msg.find("sto"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("from_chars"), std::string::npos) << msg;
}

/// An attack run that stops at its first deadline check.
attack::UnifiedResult run_quick(const std::string& kind,
                                const attack::Tuning& tuning) {
  attack::CommonAttackOptions quick;
  quick.time_limit_s = 0;
  return attack::registry().run(kind, locked().view, locked().hybrid, quick,
                                tuning);
}

TEST(KnobTables, EveryAttackKnobRejectsHostileValuesByName) {
  for (const attack::AttackInfo& info : attack::registry().catalogue()) {
    for (const KnobDoc& knob : info.knobs) {
      for (const std::string value : kHostile) {
        try {
          run_quick(info.name, {{knob.name, value}});
          // Only a name knob takes free text ("" = the default target);
          // 1e20 fJ of noise is a finite number >= 0.
          const bool in_range =
              knob.type == "name" ||
              (knob.type == "real >= 0" && parse_real(value, 0));
          EXPECT_TRUE(in_range)
              << info.name << " " << knob.name << "=\"" << value << "\"";
        } catch (const std::invalid_argument& e) {
          expect_named(e.what(), info.name, knob.name, value);
        }
      }
    }
  }
}

TEST(KnobTables, EveryDefenseKnobRejectsHostileValuesByName) {
  for (const std::string& kind : defense::registry().names()) {
    const defense::DefenseBase& d = defense::registry().at(kind);
    for (const KnobDoc& knob : d.knobs()) {
      for (const std::string value : kHostile) {
        try {
          d.check({{knob.name, value}});
          ADD_FAILURE() << kind << " " << knob.name << "=\"" << value
                        << "\" was accepted";
        } catch (const std::invalid_argument& e) {
          expect_named(e.what(), kind, knob.name, value);
        }
      }
    }
  }
}

TEST(KnobTables, EveryListedDefaultIsAccepted) {
  for (const attack::AttackInfo& info : attack::registry().catalogue()) {
    for (const KnobDoc& knob : info.knobs) {
      if (knob.default_value.front() == '<') continue;  // a note
      EXPECT_NO_THROW(run_quick(info.name, {{knob.name, knob.default_value}}))
          << info.name << " " << knob.name;
    }
  }
  for (const std::string& kind : defense::registry().names()) {
    const defense::DefenseBase& d = defense::registry().at(kind);
    for (const KnobDoc& knob : d.knobs()) {
      EXPECT_NO_THROW(d.check({{knob.name, knob.default_value}}))
          << kind << " " << knob.name;
    }
  }
}

TEST(KnobTables, UnknownKeyNamesTheKindAndTheKnownKeys) {
  try {
    defense::registry().at("xor").check({{"cnt", "4"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "defense \"xor\": unknown tuning key \"cnt\" (known: count, "
              "xnor)");
  }
  try {
    run_quick("sens", {{"frames", "4"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "attack \"sens\": unknown tuning key \"frames\" (it takes no "
              "tuning)");
  }
}

// Each of these locked a keyless design, searched the wrong space or was
// silently coerced before the knob tables.
TEST(KnobTables, FormerlySilentValuesAreRejected) {
  const std::tuple<const char*, const char*, const char*, const char*> cases[] =
      {{"independent", "count", "0", "an integer >= 1"},
       {"dependent", "paths", "0", "an integer >= 1"},
       {"xor", "xnor", "nan", "a number in [0, 1]"},
       {"xor", "xnor", "7", "a number in [0, 1]"},
       {"xor", "count", "0", "an integer >= 1"},
       {"latch", "count", "0", "an integer >= 1"},
       {"parametric", "fraction", "-1", "a number in (0, 1]"},
       {"parametric", "fraction", "0", "a number in (0, 1]"},
       {"parametric", "retries", "-5", "an integer >= 0"},
       {"const", "convert", "yes", "a bool (0|1|true|false)"},
       {"const", "inject", "-1", "an integer >= 0"}};
  for (const auto& [kind, key, value, need] : cases) {
    try {
      defense::registry().at(kind).check({{key, value}});
      ADD_FAILURE() << kind << " " << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("defense \"") + kind + "\": tuning key \"" + key +
                    "\" needs " + need + ", got \"" + value + "\"");
    }
  }
  try {
    run_quick("bf", {{"all_masks", "yes"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "attack \"bf\": tuning key \"all_masks\" needs a bool "
              "(0|1|true|false), got \"yes\"");
  }
}

TEST(KnobTables, RangeEdgesAreAccepted) {
  const std::tuple<const char*, const char*, const char*> cases[] = {
      {"parametric", "fraction", "1"}, {"parametric", "retries", "0"},
      {"parametric", "paths", "0"},    {"xor", "xnor", "0"},
      {"xor", "xnor", "1"},            {"const", "inject", "0"},
      {"const", "convert", "false"},   {"independent", "count", "1"}};
  for (const auto& [kind, key, value] : cases) {
    EXPECT_NO_THROW(defense::registry().at(kind).check({{key, value}}))
        << kind << " " << key << "=" << value;
  }
}

}  // namespace
}  // namespace stt
