#include "io/verilog_reader.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "io/slurp.hpp"
#include "util/strings.hpp"

namespace stt {

VerilogParseError::VerilogParseError(const std::string& msg, int line_no,
                                     const std::string& src)
    : std::runtime_error(src + ":" + std::to_string(line_no) + ": " + msg),
      message(msg),
      source(src),
      line(line_no) {}

namespace {

struct Token {
  std::string_view text;
  bool is_identifier = false;
};

// Streaming lexer: tokens are produced on demand as views into the source
// buffer (escaped identifiers, literals and punctuation alike), so parsing
// allocates nothing per token. Line numbers are counted only when a
// diagnostic is thrown.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : s_(text) {}

  /// Throw `msg` at the line holding `at`, a view into the source text.
  [[noreturn]] void fail(const std::string& msg, std::string_view at) const {
    const auto end = s_.begin() + (at.data() - s_.data());
    throw VerilogParseError(
        msg, 1 + static_cast<int>(std::count(s_.begin(), end, '\n')));
  }

  bool done() { return !ensure(); }
  Token next() {
    if (!ensure()) fail("unexpected end of input", s_.substr(s_.size()));
    has_ = false;
    return cur_;
  }
  void expect(std::string_view text) {
    const Token t = next();
    if (t.text != text) {
      fail("expected '" + std::string(text) + "', got '" +
               std::string(t.text) + "'",
           t.text);
    }
  }
  bool accept(std::string_view text) {
    if (ensure() && cur_.text == text) {
      has_ = false;
      return true;
    }
    return false;
  }
  std::string_view identifier() {
    const Token t = next();
    if (!t.is_identifier) {
      fail("expected identifier, got '" + std::string(t.text) + "'", t.text);
    }
    return t.text;
  }
  /// Skip tokens until (and including) `text`.
  void skip_past(std::string_view text) {
    while (next().text != text) {
    }
  }

 private:
  bool ensure() {
    if (!has_) has_ = lex();
    return has_;
  }

  // Scan the next token from i_ into cur_; false at end of input.
  bool lex() {
    const std::size_t n = s_.size();
    auto is_ident = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '$';
    };
    while (i_ < n) {
      const char c = s_[i_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i_;
        continue;
      }
      if (c == '/' && i_ + 1 < n && s_[i_ + 1] == '/') {
        while (i_ < n && s_[i_] != '\n') ++i_;
        continue;
      }
      if (c == '/' && i_ + 1 < n && s_[i_ + 1] == '*') {
        const std::size_t end = s_.find("*/", i_ + 2);
        if (end == std::string_view::npos) {
          fail("unterminated block comment", s_.substr(i_));
        }
        i_ = end + 2;
        continue;
      }
      if (c == '\\') {  // escaped identifier: up to whitespace
        std::size_t j = i_ + 1;
        while (j < n && !std::isspace(static_cast<unsigned char>(s_[j]))) ++j;
        cur_ = {s_.substr(i_ + 1, j - i_ - 1), true};
        i_ = j;
        return true;
      }
      if (is_ident(c) || c == '\'') {
        // Identifier, number, or based literal like 16'hcafe (the quote
        // glues the width to the base/value).
        std::size_t j = i_;
        while (j < n && (is_ident(s_[j]) || s_[j] == '\'')) ++j;
        const std::string_view text = s_.substr(i_, j - i_);
        const bool ident =
            !std::isdigit(static_cast<unsigned char>(text[0])) &&
            text.find('\'') == std::string_view::npos;
        cur_ = {text, ident};
        i_ = j;
        return true;
      }
      if (c == '<' && i_ + 1 < n && s_[i_ + 1] == '=') {
        cur_ = {s_.substr(i_, 2), false};
        i_ += 2;
        return true;
      }
      cur_ = {s_.substr(i_, 1), false};
      ++i_;
      return true;
    }
    return false;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  Token cur_;
  bool has_ = false;
};

// 4'h8 / 1'b0 / 16'hCAFE -> (width, value)
std::optional<std::pair<int, std::uint64_t>> parse_based_literal(
    std::string_view text) {
  const auto quote = text.find('\'');
  if (quote == std::string_view::npos || quote + 1 >= text.size()) {
    return std::nullopt;
  }
  int width = 0;
  if (quote > 0) {
    const std::string_view head = text.substr(0, quote);
    const auto [ptr, ec] =
        std::from_chars(head.data(), head.data() + head.size(), width);
    if (ec != std::errc()) return std::nullopt;
    (void)ptr;  // trailing junk before the quote tolerated, as stoi did
  }
  const char base = static_cast<char>(
      std::tolower(static_cast<unsigned char>(text[quote + 1])));
  const std::string_view digits = text.substr(quote + 2);
  int radix = 0;
  switch (base) {
    case 'b': radix = 2; break;
    case 'o': radix = 8; break;
    case 'd': radix = 10; break;
    case 'h': radix = 16; break;
    default: return std::nullopt;
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(
      digits.data(), digits.data() + digits.size(), value, radix);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return std::make_pair(width, value);
}

// Statement recorded during the declaration pass. Name and fan-in views
// alias the source buffer; fan-ins live in one flat array (LSB-first for
// LUTs) shared by all defs.
struct PendingDef {
  enum Kind { kGate, kDff, kAliasOrBuf, kConst, kLut, kLutMacro } kind;
  CellKind gate_kind = CellKind::kBuf;
  std::string_view name;            ///< driven net
  std::uint32_t fanin_begin = 0;    ///< into fanin_refs
  std::uint32_t fanin_count = 0;
  std::uint64_t mask = 0;           ///< LUT mask / const value
};

}  // namespace

Netlist read_verilog(std::string_view text, std::string fallback_name) {
  Tokenizer tok(text);

  std::string module_name = fallback_name;
  std::vector<std::string_view> input_names;
  std::vector<std::string_view> output_names;
  std::unordered_set<std::string_view> clocks;
  std::vector<PendingDef> defs;
  std::vector<std::string_view> fanin_refs;  // flat, indexed by PendingDef

  // Find the first non-blackbox module.
  bool in_module = false;
  while (!tok.done() && !in_module) {
    if (tok.next().text != "module") continue;
    const std::string_view name = tok.identifier();
    if (starts_with(name, "STT_LUT")) {
      tok.skip_past("endmodule");
      continue;
    }
    module_name = name;
    in_module = true;
    // Port list (names repeated in body declarations): skip it.
    if (tok.accept("(")) tok.skip_past(")");
    tok.expect(";");
  }
  if (!in_module) throw VerilogParseError("no module found", 0);

  auto parse_signal_list = [&](std::vector<std::string_view>* into) {
    // Optional range, then comma-separated identifiers, semicolon.
    if (tok.accept("[")) tok.skip_past("]");
    do {
      const std::string_view name = tok.identifier();
      if (into) into->push_back(name);
    } while (tok.accept(","));
    tok.expect(";");
  };

  std::vector<std::string_view> concat_scratch;
  auto parse_concat_into_refs = [&]() {
    // {msb, ..., lsb} or a single identifier; appended LSB-first.
    concat_scratch.clear();
    if (tok.accept("{")) {
      do {
        concat_scratch.push_back(tok.identifier());
      } while (tok.accept(","));
      tok.expect("}");
    } else {
      concat_scratch.push_back(tok.identifier());
    }
    fanin_refs.insert(fanin_refs.end(), concat_scratch.rbegin(),
                      concat_scratch.rend());
  };
  auto seal_fanins = [&](PendingDef& def) {
    def.fanin_count =
        static_cast<std::uint32_t>(fanin_refs.size()) - def.fanin_begin;
  };

  while (!tok.done()) {
    const Token head = tok.next();
    if (head.text == "endmodule") break;
    if (head.text == "input") {
      parse_signal_list(&input_names);
      continue;
    }
    if (head.text == "output") {
      parse_signal_list(&output_names);
      continue;
    }
    if (head.text == "wire" || head.text == "reg") {
      parse_signal_list(nullptr);
      continue;
    }
    if (head.text == "assign") {
      PendingDef def;
      def.fanin_begin = static_cast<std::uint32_t>(fanin_refs.size());
      def.name = tok.identifier();
      tok.expect("=");
      const Token rhs = tok.next();
      if (const auto lit = parse_based_literal(rhs.text)) {
        if (tok.accept("[")) {
          // Configured LUT: mask[{index vector}].
          def.kind = PendingDef::kLut;
          def.mask = lit->second;
          parse_concat_into_refs();
          tok.expect("]");
        } else {
          def.kind = PendingDef::kConst;
          def.mask = lit->second & 1ull;
        }
      } else if (rhs.is_identifier) {
        def.kind = PendingDef::kAliasOrBuf;
        fanin_refs.push_back(rhs.text);
      } else {
        tok.fail("unsupported assign RHS near '" + std::string(rhs.text) + "'",
                 rhs.text);
      }
      tok.expect(";");
      seal_fanins(def);
      defs.push_back(def);
      continue;
    }
    if (head.text == "always") {
      // always @(posedge clk) q <= d;
      tok.expect("@");
      tok.expect("(");
      tok.expect("posedge");
      clocks.insert(tok.identifier());
      tok.expect(")");
      PendingDef def;
      def.fanin_begin = static_cast<std::uint32_t>(fanin_refs.size());
      def.kind = PendingDef::kDff;
      def.name = tok.identifier();
      tok.expect("<=");
      fanin_refs.push_back(tok.identifier());
      tok.expect(";");
      seal_fanins(def);
      defs.push_back(def);
      continue;
    }
    if (head.is_identifier) {
      const auto kind = kind_from_name(head.text);
      if (kind && is_replaceable_gate(*kind)) {
        // Gate primitive: kind inst (out, in...);
        PendingDef def;
        def.fanin_begin = static_cast<std::uint32_t>(fanin_refs.size());
        def.kind = PendingDef::kGate;
        def.gate_kind = *kind;
        (void)tok.identifier();  // instance name
        tok.expect("(");
        def.name = tok.identifier();
        while (tok.accept(",")) fanin_refs.push_back(tok.identifier());
        tok.expect(")");
        tok.expect(";");
        seal_fanins(def);
        defs.push_back(def);
        continue;
      }
      if (starts_with(head.text, "STT_LUT")) {
        // STT_LUTk inst (.y(net), .a({...}));
        PendingDef def;
        def.fanin_begin = static_cast<std::uint32_t>(fanin_refs.size());
        def.kind = PendingDef::kLutMacro;
        (void)tok.identifier();
        tok.expect("(");
        do {
          tok.expect(".");
          const std::string_view port = tok.identifier();
          tok.expect("(");
          if (port == "y") {
            def.name = tok.identifier();
          } else if (port == "a") {
            parse_concat_into_refs();
          } else {
            tok.fail("unknown STT_LUT port '." + std::string(port) + "'",
                     port);
          }
          tok.expect(")");
        } while (tok.accept(","));
        tok.expect(")");
        tok.expect(";");
        seal_fanins(def);
        defs.push_back(def);
        continue;
      }
      tok.fail("unsupported statement near '" + std::string(head.text) + "'",
               head.text);
    }
    tok.fail("unsupported token '" + std::string(head.text) + "'", head.text);
  }

  const auto def_fanins = [&](const PendingDef& def) {
    return std::span<const std::string_view>(fanin_refs.data() +
                                                 def.fanin_begin,
                                             def.fanin_count);
  };

  // Reference counts decide whether an `assign x = y` is a pure output
  // alias (droppable) or a real buffer.
  std::unordered_map<std::string_view, int> referenced;
  for (const std::string_view f : fanin_refs) ++referenced[f];

  Netlist nl(std::move(module_name));
  std::size_t name_bytes = 0;
  for (const std::string_view name : input_names) name_bytes += name.size();
  for (const PendingDef& def : defs) name_bytes += def.name.size();
  nl.reserve(input_names.size() + defs.size(), fanin_refs.size(), name_bytes);
  std::unordered_map<std::string_view, std::string_view> alias;  // lhs -> rhs
  for (const std::string_view name : input_names) {
    if (!clocks.count(name)) nl.add_input(name);
  }
  // First pass: create cells (aliases resolved later).
  for (const PendingDef& def : defs) {
    switch (def.kind) {
      case PendingDef::kAliasOrBuf:
        if (referenced[def.name] == 0) {
          alias[def.name] = def_fanins(def)[0];
          continue;  // pure fan-out alias, e.g. the writer's po_N nets
        }
        nl.add_cell(CellKind::kBuf, def.name);
        break;
      case PendingDef::kConst:
        nl.add_cell(def.mask ? CellKind::kConst1 : CellKind::kConst0,
                    def.name);
        break;
      case PendingDef::kDff:
        nl.add_cell(CellKind::kDff, def.name);
        break;
      case PendingDef::kGate:
        nl.add_cell(def.gate_kind, def.name);
        break;
      case PendingDef::kLut:
      case PendingDef::kLutMacro: {
        const CellId id = nl.add_cell(CellKind::kLut, def.name);
        nl.cell(id).lut_mask =
            def.mask & full_mask(static_cast<int>(def.fanin_count));
        break;
      }
    }
  }
  // Second pass: connect.
  auto resolve = [&](std::string_view name) {
    std::string_view cursor = name;
    for (int hops = 0; hops < 64; ++hops) {
      const CellId id = nl.find(cursor);
      if (id != kNullCell) return id;
      const auto it = alias.find(cursor);
      if (it == alias.end()) break;
      cursor = it->second;
    }
    tok.fail("undefined net '" + std::string(name) + "'", name);
  };
  std::vector<CellId> fanins;
  for (const PendingDef& def : defs) {
    if (def.kind == PendingDef::kAliasOrBuf && alias.count(def.name)) continue;
    const CellId id = nl.find(def.name);
    fanins.clear();
    for (const std::string_view f : def_fanins(def)) {
      fanins.push_back(resolve(f));
    }
    nl.connect(id, fanins);
  }
  for (const std::string_view name : output_names) nl.mark_output(resolve(name));
  try {
    nl.finalize();
  } catch (const CombinationalCycleError& e) {
    // Located at the statement that drives the named cell.
    const auto driver =
        std::find_if(defs.begin(), defs.end(),
                     [&](const PendingDef& def) { return def.name == e.cell; });
    if (driver == defs.end()) throw;
    tok.fail("combinational cycle through '" + e.cell + "'", driver->name);
  }
  return nl;
}

Netlist read_verilog_file(const std::string& path) {
  const std::string text = slurp_file(path);
  try {
    return read_verilog(text, file_stem(path));
  } catch (const VerilogParseError& e) {
    // Re-tag in-memory diagnostics with the actual file path.
    throw VerilogParseError(e.message, e.line, path);
  }
}

}  // namespace stt
