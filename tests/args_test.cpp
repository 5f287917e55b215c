#include <gtest/gtest.h>

#include "cli/options.hpp"
#include "defense/registry.hpp"
#include "util/args.hpp"

namespace stt {
namespace {

ArgParser make() {
  ArgParser p;
  p.add_option("--in", "input");
  p.add_option("--seed", "seed", "1");
  p.add_flag("--pack", "enable packing");
  return p;
}

TEST(Args, ValueForms) {
  auto p = make();
  p.parse({"--in", "a.bench", "--seed=42"});
  EXPECT_EQ(p.get("--in"), "a.bench");
  EXPECT_EQ(p.get_int("--seed"), 42);
}

TEST(Args, DefaultsApply) {
  auto p = make();
  p.parse({"--in", "x"});
  EXPECT_TRUE(p.has("--seed"));
  EXPECT_EQ(p.get_int("--seed"), 1);
  EXPECT_FALSE(p.flag("--pack"));
}

TEST(Args, FlagsAndPositionals) {
  auto p = make();
  p.parse({"run", "--pack", "extra"});
  EXPECT_TRUE(p.flag("--pack"));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "run");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(Args, Errors) {
  auto p = make();
  EXPECT_THROW(p.parse({"--unknown", "1"}), ArgError);
  auto q = make();
  EXPECT_THROW(q.parse({"--in"}), ArgError);           // missing value
  auto r = make();
  EXPECT_THROW(r.parse({"--pack=yes"}), ArgError);     // flag with value
  auto s = make();
  s.parse({});
  EXPECT_THROW(s.get("--in"), ArgError);               // required missing
  EXPECT_EQ(s.get_or("--in", "fallback"), "fallback");
}

TEST(Args, NumericValidation) {
  auto p = make();
  p.parse({"--seed", "abc", "--in", "x"});
  EXPECT_THROW(p.get_int("--seed"), ArgError);
  auto q = make();
  q.parse({"--seed", "2.5", "--in", "x"});
  EXPECT_THROW(q.get_int("--seed"), ArgError);
  EXPECT_DOUBLE_EQ(q.get_double("--seed"), 2.5);
}

TEST(Args, DeclarationValidation) {
  ArgParser p;
  EXPECT_THROW(p.add_option("in", "no dashes"), ArgError);
  EXPECT_THROW(p.add_flag("pack", "no dashes"), ArgError);
}

TEST(Args, HelpFlagRaisesHelpRequestedWithTheOptions) {
  auto p = make();
  try {
    p.parse({"--in", "x", "--help"});
    FAIL() << "expected HelpRequested";
  } catch (const HelpRequested& h) {
    EXPECT_EQ(h.text, p.help());
  }
  // --help wins over an unknown option, and ArgError handlers see it too.
  auto q = make();
  EXPECT_THROW(q.parse({"--bogus", "--help"}), ArgError);
}

TEST(Args, NegativeJobsIsANamedError) {
  ArgParser p;
  cli::CommonOptions common(p, cli::kJobs);
  p.parse({"--jobs", "-1"});
  try {
    common.load(p);
    FAIL() << "expected ArgError";
  } catch (const ArgError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--jobs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'-1'"), std::string::npos) << msg;
  }
  ArgParser q;
  cli::CommonOptions ok(q, cli::kJobs);
  q.parse({"--jobs", "0"});
  ok.load(q);
  EXPECT_EQ(ok.jobs(), 0u);
}

TEST(Args, NumbersAreStrictAndRangeChecked) {
  ArgParser p;
  for (const char* name : {"--time-limit", "--budget", "--seed", "--margin"}) {
    p.add_option(name, "number", "");
  }
  const std::pair<const char*, const char*> bad[] = {
      {"--time-limit", "nan"}, {"--time-limit", "-1"},
      {"--time-limit", "inf"}, {"--budget", "-1"},
      {"--budget", "0"},       {"--budget", " 5"},
      {"--seed", "-1"},        {"--seed", "+5"},
      {"--seed", "99999999999999999999"},
      {"--margin", "1e999"}};
  for (const auto& [name, value] : bad) {
    ArgParser q = p;
    q.parse({name, value});
    try {
      if (std::string(name) == "--time-limit" ||
          std::string(name) == "--margin") {
        q.get_double(name, 0);
      } else {
        q.get_int(name, std::string(name) == "--budget" ? 1 : 0);
      }
      ADD_FAILURE() << name << " " << value << " was accepted";
    } catch (const ArgError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
      EXPECT_NE(msg.find("'" + std::string(value) + "'"), std::string::npos)
          << msg;
      EXPECT_EQ(msg.find("sto"), std::string::npos) << msg;
    }
  }
  ArgParser ok = p;
  ok.parse({"--time-limit", "0", "--budget", "1", "--seed", "0"});
  EXPECT_EQ(ok.get_double("--time-limit", 0), 0.0);
  EXPECT_EQ(ok.get_int("--budget", 1), 1);
  EXPECT_EQ(ok.get_int("--seed", 0), 0);
}

TEST(CliAxes, DefenseAxisParsesKindsAndTuning) {
  const std::vector<DefenseAxis> axes =
      cli::parse_defense_axis("xor:count=16:xnor=0.5, latch,,parametric");
  ASSERT_EQ(axes.size(), 3u);
  EXPECT_EQ(axes[0].kind, "xor");
  EXPECT_EQ(axes[0].tuning,
            (defense::Tuning{{"count", "16"}, {"xnor", "0.5"}}));
  EXPECT_EQ(axes[1].kind, "latch");
  EXPECT_TRUE(axes[1].tuning.empty());
  EXPECT_EQ(axes[2].kind, "parametric");
  EXPECT_THROW(cli::parse_defense_axis("xor:count"), ArgError);

  const std::vector<DefenseAxis> all = cli::parse_defense_axis("all");
  ASSERT_EQ(all.size(), defense::registry().names().size());
  for (const DefenseAxis& axis : all) EXPECT_TRUE(axis.tuning.empty());
}

TEST(CliAxes, ProfileExpanderValidatesNames) {
  EXPECT_EQ(cli::expand_profiles("all").size(), 12u);
  EXPECT_EQ(cli::expand_profiles("s641, s820"),
            (std::vector<std::string>{"s641", "s820"}));
  try {
    cli::expand_profiles("s641,s9999");
    FAIL() << "expected ArgError";
  } catch (const ArgError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("s9999"), std::string::npos) << msg;
    EXPECT_NE(msg.find("s38584"), std::string::npos) << msg;
  }
}

TEST(Args, HelpListsEverything) {
  const auto p = make();
  const std::string help = p.help();
  EXPECT_NE(help.find("--in"), std::string::npos);
  EXPECT_NE(help.find("--seed"), std::string::npos);
  EXPECT_NE(help.find("default: 1"), std::string::npos);
  EXPECT_NE(help.find("--pack"), std::string::npos);
}

}  // namespace
}  // namespace stt

namespace stt {
namespace {

// The `--list` text, pinned whole: a knob's type, range or default moving
// shows up here.
TEST(CliList, AttackListText) {
  EXPECT_EQ(cli::attack_list_text(),
            R"(registered attacks:
  bf     exhaustive key search over the Eq. (3) candidate space, screening-pattern pre-filtered
         --tune screening_patterns=<int >= 1> (default 192): oracle patterns per candidate screen
         --tune all_masks=<bool> (default 0): search all 2^2^k masks, not just standard gate candidates
  dpa    differential power analysis of one STT LUT from a simulated power trace
         --tune cycles=<int >= 1> (default 512): measured trace length in clock cycles
         --tune noise_fj=<real >= 0> (default 0): gaussian measurement noise sigma in fJ
         --tune target=<name> (default <first LUT>): name of the LUT cell to attack
  gsens  SAT-guided sensitization: prove or refute a propagation witness per truth-table row
         --tune max_witnesses_per_row=<int >= 1> (default 16): witness attempts before a row is abandoned
  ml     simulated-annealing model fit of the key against oracle responses
         --tune training_patterns=<int >= 1> (default 256): oracle patterns in the training set
         --tune bitflip=<bool> (default 0): anneal over raw mask bits instead of standard gate candidates
  sat    oracle-guided SAT attack (DIP refinement, cone-pruned encoding, simulation warm-up)
         --tune max_iterations=<int >= 1> (default 512): DIP cap
         --tune warmup_words=<int >= 0> (default 4): 64-pattern simulation words seeding the learned-row warm-up (0 disables)
  sens   classic input-sensitization attack: justify each row, observe through a sensitized path
  seq    sequential SAT attack: time-frame unrolling against a scan-locked chip
         --tune frames=<int >= 1> (default 8): unrolled time frames per query
         --tune max_iterations=<int >= 1> (default 256): distinguishing-sequence cap
  static oracle-free key-dependency analysis: unit-propagates injected constants and claims removable key cells with zero queries
)");
}

TEST(CliList, DefenseListText) {
  EXPECT_EQ(cli::defense_list_text(),
            R"(registered defenses:
  const        ASSURE-style constant locking (convert constant cones, inject key-fed constants)
               --tune convert=<bool> (default 1): rewrite statically-constant gates into key LUTs
               --tune inject=<int >= 0> (default 8): key-fed XOR-with-0 constants to plant on live edges (clamped to edge count)
  dependent    paper IV-A.2: full timing-path dependent replacement
               --tune paths=<int >= 1> (default 1): longest I/O paths fully replaced
  independent  paper IV-A.1: random independent STT-LUT replacement
               --tune count=<int >= 1> (default 5): number of gates to replace
  latch        decoy-latch insertion on timing-path edges (latch-based locking)
               --tune count=<int >= 1> (default 8): decoy latches to insert (clamped to edge count)
  parametric   paper IV-A.3: parametric-aware dependent replacement
               --tune paths=<int >= 0> (default 0): timing paths to draw from (0 = auto-scale)
               --tune fraction=<real in (0, 1]> (default 0.35): per-path gate selection fraction
               --tune retries=<int >= 0> (default 30): timing-violation re-draws per path
  xor          random XOR/XNOR key-gate insertion (EPIC-style baseline)
               --tune count=<int >= 1> (default 16): key gates to insert (clamped to edge count)
               --tune xnor=<real in [0, 1]> (default 0.5): fraction of gates using the XNOR flavour
)");
}

}  // namespace
}  // namespace stt
