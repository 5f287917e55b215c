#include "checks.hpp"

#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "attack/encode.hpp"
#include "sim/compiled.hpp"

namespace sttbench {

KnownAnswers KnownAnswers::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read known answers " + path);
  KnownAnswers answers;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, variant, item;
    if (!(fields >> workload >> variant >> item)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": expected '<workload> <variant> <item> k=v...'");
    }
    std::string record, kv;
    while (fields >> kv) record += (record.empty() ? "" : " ") + kv;
    answers.entries[workload + " " + variant + " " + item] = record;
  }
  return answers;
}

std::string KnownAnswers::key(const std::string& workload,
                              std::uint64_t variant, const std::string& item) {
  return workload + " " + std::to_string(variant) + " " + item;
}

std::string KnownAnswers::check(const std::string& key,
                                const std::string& actual) const {
  const auto it = entries.find(key);
  if (it == entries.end()) return "no known answer for '" + key + "'";
  if (it->second == actual) return "";
  return "'" + key + "': expected [" + it->second + "] got [" + actual + "]";
}

std::string self_test_known_answers(const KnownAnswers& answers,
                                    const std::string& key,
                                    const std::string& actual,
                                    const std::string& field) {
  KnownAnswers altered = answers;
  const auto it = altered.entries.find(key);
  if (it == altered.entries.end()) return "self-test: no entry '" + key + "'";
  std::string& record = it->second;
  const std::size_t at = record.find(field + "=");
  if (at == std::string::npos) {
    return "self-test: field '" + field + "' missing from '" + key + "'";
  }
  record.insert(at + field.size() + 1, "altered-");
  if (altered.check(key, actual).empty()) {
    return "self-test: altered expected " + field + " of '" + key +
           "' passed the checker";
  }
  return "";
}

const char* key_verdict_name(KeyVerdict v) {
  switch (v) {
    case KeyVerdict::kEquivalent: return "equivalent";
    case KeyVerdict::kWrong: return "wrong";
    case KeyVerdict::kUnproven: return "unproven";
  }
  return "?";
}

KeyVerdict check_key(const stt::Netlist& locked, const stt::LutKey& key) {
  stt::Netlist programmed = stt::foundry_view(locked);
  try {
    stt::apply_key(programmed, key);
  } catch (const std::exception&) {
    return KeyVerdict::kWrong;
  }
  bool proven = false;
  const bool equivalent =
      stt::comb_equivalent(programmed, locked, kKeyCheckConflicts, &proven);
  if (!proven) return KeyVerdict::kUnproven;
  return equivalent ? KeyVerdict::kEquivalent : KeyVerdict::kWrong;
}

namespace {

/// True when random scan patterns show `a` and `b` (same interface)
/// computing different outputs or next states: a witness that they differ
/// which does not depend on the SAT-based check.
bool differs_by_simulation(const stt::Netlist& a, const stt::Netlist& b) {
  const stt::CompiledSim sa(a), sb(b);
  std::mt19937_64 rng(20160605);
  std::vector<std::uint64_t> pi(sa.num_inputs()), ff(sa.num_dffs());
  std::vector<std::uint64_t> wa(sa.wave_size()), wb(sb.wave_size());
  for (int word = 0; word < 64; ++word) {
    for (std::uint64_t& x : pi) x = rng();
    for (std::uint64_t& x : ff) x = rng();
    sa.eval_word(pi, ff, wa);
    sb.eval_word(pi, ff, wb);
    for (std::size_t i = 0; i < sa.num_outputs(); ++i) {
      if (wa[sa.output_cells()[i]] != wb[sb.output_cells()[i]]) return true;
    }
    for (std::size_t j = 0; j < sa.num_dffs(); ++j) {
      if (wa[sa.next_state_cells()[j]] != wb[sb.next_state_cells()[j]]) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::string self_test_key_check(const stt::Netlist& locked,
                                const stt::LutKey& true_key) {
  if (true_key.empty()) return "key self-test: design has no key";
  const KeyVerdict good = check_key(locked, true_key);
  if (good != KeyVerdict::kEquivalent) {
    return std::string("key self-test: the design's own key checked ") +
           key_verdict_name(good);
  }
  // Flip one mask bit at a time, in key order, until simulation witnesses
  // a functional difference (a flip in an unobservable truth-table row is
  // legitimately equivalent); the checker must then call the key wrong.
  for (const auto& [name, mask] : true_key) {
    const int rows = 1 << locked.cell(locked.find(name)).fanin_count();
    for (int bit = 0; bit < rows && bit < 64; ++bit) {
      stt::LutKey flipped = true_key;
      flipped[name] = mask ^ (std::uint64_t{1} << bit);
      stt::Netlist programmed = stt::foundry_view(locked);
      stt::apply_key(programmed, flipped);
      if (!differs_by_simulation(programmed, locked)) continue;
      const KeyVerdict bad = check_key(locked, flipped);
      if (bad != KeyVerdict::kWrong) {
        return "key self-test: key with mask bit " + std::to_string(bit) +
               " of " + name + " flipped checked " + key_verdict_name(bad);
      }
      return "";
    }
  }
  return "key self-test: no single-bit key flip is observable";
}

}  // namespace sttbench
