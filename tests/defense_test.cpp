// Defense registry: every registered kind must lock a benchmark such that
// the locked netlist plus the correct key is I/O-equivalent to the original
// (and a wrong key is not), the paper adapters must stay bit-identical to
// direct run_secure_flow calls, and the SAT attack must recover a working
// key through the unified attack API.
#include "defense/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attack/registry.hpp"
#include "core/flow.hpp"
#include "core/hybrid.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/lint.hpp"

namespace stt {
namespace {

const TechLibrary& lib() {
  static const TechLibrary l = TechLibrary::cmos90_stt();
  return l;
}

Netlist bench(const char* name, std::uint64_t seed) {
  const auto profile = find_profile(name);
  EXPECT_TRUE(profile.has_value()) << name;
  return generate_circuit(*profile, seed);
}

/// FNV-1a over a string, for order-independent per-net stimulus.
std::uint64_t fnv(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Sequential I/O checksum over 64 random lanes x `cycles` steps from the
/// all-zero state. Stimulus and output folding are keyed by *net name*, so
/// two netlists with the same PI/PO names get comparable checksums even if
/// cell ids, cell counts or flip-flop sets differ (defenses add decoy state
/// and strip dead logic).
std::uint64_t io_checksum(const Netlist& nl, std::uint64_t seed,
                          int cycles = 8) {
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> pi(sim.num_inputs());
  std::vector<std::uint64_t> ff(sim.num_dffs(), 0);
  std::vector<std::uint64_t> next(sim.num_dffs());
  std::vector<std::uint64_t> wave(sim.wave_size());
  std::vector<std::pair<std::string, CellId>> outs;
  for (const CellId id : sim.output_cells()) {
    outs.emplace_back(nl.cell(id).name, id);
  }
  std::sort(outs.begin(), outs.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int t = 0; t < cycles; ++t) {
    for (std::size_t i = 0; i < pi.size(); ++i) {
      const std::string_view name = nl.cell(sim.input_cells()[i]).name;
      pi[i] = mix(seed ^ fnv(name) ^ (0x100000001b3ull * (t + 1)));
    }
    sim.eval_word(pi, ff, wave);
    for (const auto& [name, id] : outs) {
      h ^= wave[id] ^ fnv(name);
      h *= 0x100000001b3ull;
    }
    for (std::size_t j = 0; j < next.size(); ++j) {
      next[j] = wave[sim.next_state_cells()[j]];
    }
    ff = next;
  }
  return h;
}

defense::DefenseResult apply(const char* kind, const Netlist& original,
                             std::uint64_t seed,
                             const defense::Tuning& tuning = {}) {
  defense::DefenseOptions opt;
  opt.seed = seed;
  return defense::registry().apply(kind, original, lib(), opt, tuning);
}

TEST(DefenseRegistry, ListsAllSixKinds) {
  const auto names = defense::registry().names();
  EXPECT_EQ(names.size(), 6u);
  for (const char* kind :
       {"independent", "dependent", "parametric", "xor", "latch", "const"}) {
    EXPECT_TRUE(defense::registry().contains(kind)) << kind;
  }
  EXPECT_FALSE(defense::registry().contains("antifuse"));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(DefenseRegistry, EveryKindHasDescriptionAndKnobs) {
  for (const std::string& kind : defense::registry().names()) {
    const defense::DefenseBase& d = defense::registry().at(kind);
    EXPECT_EQ(d.kind(), kind);
    EXPECT_FALSE(d.description().empty()) << kind;
    for (const KnobDoc& knob : d.knobs()) {
      EXPECT_FALSE(knob.name.empty()) << kind;
      EXPECT_FALSE(knob.doc.empty()) << kind;
    }
  }
}

TEST(DefenseRegistry, CatalogueDefaultsMatchOptions) {
  using Knobs = std::map<std::string, std::string>;
  const auto num = [](auto v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  const SelectionOptions sel;
  // The related-work defenses keep their options private to the adapter;
  // these are their documented defaults.
  const std::map<std::string, Knobs> expected = {
      {"independent", {{"count", num(sel.indep_count)}}},
      {"dependent", {{"paths", num(sel.dep_num_paths)}}},
      {"parametric",
       {{"paths", num(sel.para_num_paths)},
        {"fraction", num(sel.para_gate_fraction)},
        {"retries", num(sel.para_max_retries)}}},
      {"xor", {{"count", "16"}, {"xnor", "0.5"}}},
      {"latch", {{"count", "8"}}},
      {"const", {{"convert", "1"}, {"inject", "8"}}}};
  std::map<std::string, Knobs> listed;
  for (const std::string& kind : defense::registry().names()) {
    Knobs& knobs = listed[kind];
    for (const KnobDoc& knob : defense::registry().at(kind).knobs()) {
      knobs[knob.name] = knob.default_value;
    }
  }
  EXPECT_EQ(listed, expected);
}

TEST(DefenseRegistry, UnknownKindThrowsWithKnownNames) {
  const Netlist original = bench("s641", 7);
  try {
    apply("nope", original, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("latch"), std::string::npos);
    EXPECT_NE(msg.find("parametric"), std::string::npos);
  }
}

TEST(DefenseRegistry, UnknownTuningKeyThrows) {
  const Netlist original = bench("s641", 7);
  for (const std::string& kind : defense::registry().names()) {
    EXPECT_THROW(apply(kind.c_str(), original, 1, {{"warp_factor", "9"}}),
                 std::invalid_argument)
        << kind;
  }
  EXPECT_THROW(apply("xor", original, 1, {{"count", "many"}}),
               std::invalid_argument);
}

TEST(DefenseRegistry, PaperAdaptersMatchDirectFlow) {
  const Netlist original = bench("s641", 7);
  const std::pair<const char*, SelectionAlgorithm> cases[] = {
      {"independent", SelectionAlgorithm::kIndependent},
      {"dependent", SelectionAlgorithm::kDependent},
      {"parametric", SelectionAlgorithm::kParametric},
  };
  for (const auto& [kind, alg] : cases) {
    FlowOptions fo;
    fo.algorithm = alg;
    fo.selection.seed = 5;
    const FlowResult direct = run_secure_flow(original, lib(), fo);
    const defense::DefenseResult r = apply(kind, original, 5);
    EXPECT_TRUE(r.locked.structurally_equal(direct.hybrid)) << kind;
    EXPECT_EQ(r.key, direct.selection.key) << kind;
    EXPECT_EQ(r.selection.replaced, direct.selection.replaced) << kind;
    EXPECT_EQ(r.overhead.hybrid_delay_ps, direct.overhead.hybrid_delay_ps);
    EXPECT_EQ(r.overhead.hybrid_power_uw, direct.overhead.hybrid_power_uw);
    EXPECT_EQ(r.overhead.hybrid_area_um2, direct.overhead.hybrid_area_um2);
    EXPECT_EQ(r.security.n_indep.to_string(),
              direct.security.n_indep.to_string());
    EXPECT_EQ(r.security.n_bf.to_string(), direct.security.n_bf.to_string());
    EXPECT_EQ(r.cells_replaced,
              static_cast<int>(direct.selection.replaced.size()));
    EXPECT_TRUE(r.annotations.empty()) << kind;
    EXPECT_EQ(r.defense, kind);
  }
}

TEST(DefenseRegistry, PaperAdapterTuningReachesSelection) {
  const Netlist original = bench("s641", 7);
  FlowOptions fo;
  fo.algorithm = SelectionAlgorithm::kIndependent;
  fo.selection.seed = 5;
  fo.selection.indep_count = 9;
  const FlowResult direct = run_secure_flow(original, lib(), fo);
  const defense::DefenseResult r =
      apply("independent", original, 5, {{"count", "9"}});
  EXPECT_TRUE(r.locked.structurally_equal(direct.hybrid));
  EXPECT_EQ(r.key, direct.selection.key);
}

void expect_round_trip(const char* kind, const defense::Tuning& tuning) {
  const Netlist original = bench("s641", 7);
  const defense::DefenseResult r = apply(kind, original, 11, tuning);

  EXPECT_FALSE(r.key.empty()) << kind;
  EXPECT_EQ(r.key_cells, static_cast<int>(r.key.size()));
  EXPECT_GE(r.key_bits, r.key_cells);
  EXPECT_GT(r.cells_added + r.cells_replaced, 0);

  // Locked + correct key is I/O-equivalent to the original.
  const std::uint64_t want = io_checksum(original, 99);
  EXPECT_EQ(io_checksum(r.locked, 99), want) << kind;

  // The key round-trips through the foundry view. (Redaction is only a
  // structural change when some key mask is non-zero; the const defense's
  // key can legitimately be all zeros.)
  const bool any_nonzero_mask =
      std::any_of(r.key.begin(), r.key.end(),
                  [](const auto& kv) { return kv.second != 0; });
  Netlist redacted = foundry_view(r.locked);
  EXPECT_EQ(redacted.structurally_equal(r.locked), !any_nonzero_mask) << kind;
  apply_key(redacted, r.key);
  EXPECT_TRUE(redacted.structurally_equal(r.locked)) << kind;

  // A wrong key is not equivalent: complement the first key cell's mask.
  Netlist wrong = r.locked;
  const auto& [name, mask] = *r.key.begin();
  const CellId id = wrong.find(name);
  ASSERT_NE(id, kNullCell);
  LutKey bad;
  bad[name] = ~mask & full_mask(wrong.cell(id).fanin_count());
  apply_key(wrong, bad);
  EXPECT_NE(io_checksum(wrong, 99), want) << kind;
}

TEST(DefenseRoundTrip, XorKeyGates) {
  expect_round_trip("xor", {{"count", "12"}});
}

TEST(DefenseRoundTrip, LatchDecoys) {
  expect_round_trip("latch", {{"count", "6"}});
}

TEST(DefenseRoundTrip, ConstLocking) {
  expect_round_trip("const", {{"inject", "6"}});
}

TEST(DefenseRoundTrip, PaperParametric) { expect_round_trip("parametric", {}); }

TEST(DefenseRoundTrip, LatchWrongKeyIsSequentialCorruption) {
  // The plausible wrong configuration (select the decoy flip-flop, 0xC)
  // delays the net by one cycle: combinationally plausible, sequentially
  // wrong. This is the corruption mode pure-combinational reasoning misses.
  const Netlist original = bench("s641", 7);
  const defense::DefenseResult r = apply("latch", original, 11, {{"count", "6"}});
  Netlist latched = r.locked;
  LutKey all_latched;
  for (const auto& [name, mask] : r.key) {
    EXPECT_EQ(mask, 0xAull) << name;
    all_latched[name] = 0xC;
  }
  apply_key(latched, all_latched);
  EXPECT_NE(io_checksum(latched, 99), io_checksum(original, 99));
}

TEST(DefenseRegistry, AnnotationsNameRealCells) {
  const defense::DefenseResult x = apply("xor", bench("s641", 7), 3);
  EXPECT_EQ(x.annotations.key_gates.size(), x.key.size());
  for (const std::string& name : x.annotations.key_gates) {
    const CellId id = x.locked.find(name);
    ASSERT_NE(id, kNullCell);
    EXPECT_EQ(x.locked.cell(id).kind, CellKind::kLut);
  }
  const defense::DefenseResult l = apply("latch", bench("s641", 7), 3);
  EXPECT_EQ(l.annotations.decoy_latches.size(), l.key.size());
  const defense::DefenseResult c = apply("const", bench("s641", 7), 3);
  EXPECT_EQ(c.annotations.locked_constants.size(), c.key.size());
}

TEST(DefenseRegistry, OverheadReportsArePopulated) {
  const Netlist original = bench("s641", 7);
  for (const char* kind : {"xor", "latch", "const"}) {
    const defense::DefenseResult r = apply(kind, original, 4);
    EXPECT_GT(r.overhead.original_area_um2, 0) << kind;
    EXPECT_GT(r.overhead.hybrid_area_um2, r.overhead.original_area_um2)
        << kind;
    EXPECT_GT(r.overhead.hybrid_delay_ps, 0) << kind;
    EXPECT_EQ(r.security.missing_gates, r.key_cells) << kind;
    EXPECT_FALSE(r.detail.empty()) << kind;
    EXPECT_GE(r.elapsed_s, 0) << kind;
  }
}

TEST(DefenseRegistry, DeterministicAcrossRepeatApplication) {
  const Netlist original = bench("s820", 3);
  for (const char* kind : {"xor", "latch", "const"}) {
    const defense::DefenseResult a = apply(kind, original, 21);
    const defense::DefenseResult b = apply(kind, original, 21);
    EXPECT_TRUE(a.locked.structurally_equal(b.locked)) << kind;
    EXPECT_EQ(a.key, b.key) << kind;
    const defense::DefenseResult c = apply(kind, original, 22);
    // The seed must matter: a different seed picks different sites.
    EXPECT_FALSE(a.locked.structurally_equal(c.locked)) << kind;
  }
}

TEST(DefenseAttack, SatRecoversWorkingKeyFromEachDefense) {
  const Netlist original = bench("s641", 7);
  const std::uint64_t want = io_checksum(original, 123);
  const std::pair<const char*, defense::Tuning> cases[] = {
      {"xor", {{"count", "8"}}},
      {"latch", {{"count", "4"}}},
      {"const", {{"inject", "4"}}},
  };
  for (const auto& [kind, tuning] : cases) {
    const defense::DefenseResult r = apply(kind, original, 11, tuning);
    const Netlist view = foundry_view(r.locked);
    const attack::UnifiedResult u =
        attack::registry().run("sat", view, r.locked);
    EXPECT_TRUE(u.success()) << kind;
    // The recovered key must *work* (SAT may land on any I/O-equivalent
    // configuration, so compare behaviour, not masks).
    Netlist recovered = view;
    apply_key(recovered, u.key);
    EXPECT_EQ(io_checksum(recovered, 123), want) << kind;
  }
}

}  // namespace
}  // namespace stt
