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
