#include "io/bench_io.hpp"

#include <algorithm>
#include <climits>
#include <fstream>
#include <sstream>

#include "io/slurp.hpp"
#include "obs/obs.hpp"
#include "util/strings.hpp"

namespace stt {

BenchParseError::BenchParseError(const std::string& msg, int line_no,
                                 const std::string& src)
    : std::runtime_error(src + ":" + std::to_string(line_no) + ": " + msg),
      message(msg),
      source(src),
      line(line_no) {}

namespace {

// Cell recorded during the declaration pass. All views alias the input
// text; fan-in names live in one flat array shared by all pending cells.
struct PendingCell {
  CellKind kind;
  std::string_view name;
  std::uint32_t fanin_begin = 0;
  std::uint32_t fanin_count = 0;
  std::uint64_t lut_mask = 0;
  int line = 0;
};

bool istarts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && iequals(s.substr(0, prefix.size()), prefix);
}

// "LUT_0x8" / "LUT_X" / plain operator name -> kind (+ mask for LUTs).
// Case-insensitive and allocation-free on the accepting paths.
CellKind parse_operator(std::string_view op, std::uint64_t& mask, int line) {
  if (istarts_with(op, "LUT_")) {
    const std::string_view arg = op.substr(4);
    if (iequals(arg, "X")) {
      mask = 0;
      return CellKind::kLut;
    }
    const auto value = parse_hex(arg);
    if (!value) {
      throw BenchParseError("bad LUT mask '" + std::string(op) + "'", line);
    }
    mask = *value;
    return CellKind::kLut;
  }
  const auto kind = kind_from_name(op);
  if (!kind || *kind == CellKind::kInput) {
    throw BenchParseError("unknown operator '" + std::string(op) + "'", line);
  }
  return *kind;
}

}  // namespace

Netlist read_bench(std::string_view text, std::string name) {
  STTLOCK_SPAN("io", "read_bench");
  {
    static obs::Counter& parses = obs::Metrics::global().counter("io.bench_parses");
    parses.add(1);
  }
  std::vector<std::pair<std::string_view, int>> input_names;   // net, decl line
  std::vector<std::pair<std::string_view, int>> output_names;  // net, decl line
  std::vector<PendingCell> pending;
  std::vector<std::string_view> fanin_refs;  // flat, indexed by PendingCell
  std::size_t name_bytes = 0;
  {
    // Pre-size for the common one-definition-per-line shape so the pending
    // arrays never re-grow on million-gate inputs.
    const auto lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n')) + 1;
    input_names.reserve(64);
    pending.reserve(lines);
    fanin_refs.reserve(2 * lines);
  }

  // Duplicate definitions surface as register_name failures during
  // materialization; recover the seed diagnostic — the line of the second
  // occurrence in file order — with an error-path-only scan.
  const auto fail_duplicate = [&](std::string_view net) -> void {
    int first = INT_MAX;
    int second = INT_MAX;
    const auto visit = [&](int line) {
      if (line < first) {
        second = first;
        first = line;
      } else if (line < second) {
        second = line;
      }
    };
    for (const auto& [name, line] : input_names) {
      if (name == net) visit(line);
    }
    for (const PendingCell& cell : pending) {
      if (cell.name == net) visit(cell.line);
    }
    throw BenchParseError("net '" + std::string(net) + "' defined twice",
                          second == INT_MAX ? first : second);
  };

  // Local inline copies of trim()'s semantics: the out-of-line helper costs a
  // call per use, and the scan makes several per line on million-line inputs.
  constexpr std::size_t npos = std::string_view::npos;
  const auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  const auto fast_trim = [&is_ws](std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && is_ws(s[b])) ++b;
    while (e > b && is_ws(s[e - 1])) --e;
    return s.substr(b, e - b);
  };

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == npos) eol = text.size();
    const std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;

    // Fused scan: comment start and first '=' in one pass. An '=' after a
    // '#' is commented out, exactly as the strip-then-find sequence saw it.
    std::size_t eq = npos;
    std::size_t len = raw.size();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char ch = raw[i];
      if (ch == '#') {
        len = i;
        break;
      }
      if (ch == '=' && eq == npos) eq = i;
    }
    const std::string_view line = fast_trim(raw.substr(0, len));
    if (line.empty()) continue;

    if (eq == npos) {
      // INPUT(x) / OUTPUT(x)
      std::size_t lp = npos;
      std::size_t rp = npos;
      for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (ch == '(') {
          if (lp == npos) lp = i;
        } else if (ch == ')') {
          rp = i;
        }
      }
      if (lp == npos || rp == npos || rp < lp) {
        throw BenchParseError("malformed declaration", line_no);
      }
      const std::string_view keyword = fast_trim(line.substr(0, lp));
      const std::string_view net = fast_trim(line.substr(lp + 1, rp - lp - 1));
      if (net.empty()) throw BenchParseError("empty net name", line_no);
      if (iequals(keyword, "INPUT")) {
        input_names.emplace_back(net, line_no);
        name_bytes += net.size();
      } else if (iequals(keyword, "OUTPUT")) {
        output_names.emplace_back(net, line_no);
      } else {
        throw BenchParseError("unknown keyword '" + to_upper(keyword) + "'",
                              line_no);
      }
      continue;
    }

    // name = OP(a, b, ...). `eq` indexes into `raw`; trimming only strips
    // edge whitespace, so the non-space '=' sits inside `line`.
    const std::size_t eq_line =
        eq - static_cast<std::size_t>(line.data() - raw.data());
    PendingCell cell;
    cell.name = fast_trim(line.substr(0, eq_line));
    cell.line = line_no;
    if (cell.name.empty()) throw BenchParseError("empty cell name", line_no);
    const std::string_view rhs = fast_trim(line.substr(eq_line + 1));
    std::size_t lp = npos;
    std::size_t rp = npos;
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      const char ch = rhs[i];
      if (ch == '(') {
        if (lp == npos) lp = i;
      } else if (ch == ')') {
        rp = i;
      }
    }
    if (lp == npos || rp == npos || rp < lp) {
      throw BenchParseError("malformed cell definition", line_no);
    }
    cell.kind =
        parse_operator(fast_trim(rhs.substr(0, lp)), cell.lut_mask, line_no);
    const std::string_view args = rhs.substr(lp + 1, rp - lp - 1);
    cell.fanin_begin = static_cast<std::uint32_t>(fanin_refs.size());
    if (!fast_trim(args).empty()) {
      // Comma-split in place; empty fields (",," / trailing ",") are errors
      // exactly as they were for the split()-based parser.
      std::size_t start = 0;
      while (true) {
        std::size_t comma = npos;
        for (std::size_t i = start; i < args.size(); ++i) {
          if (args[i] == ',') {
            comma = i;
            break;
          }
        }
        const std::string_view net = fast_trim(
            comma == npos ? args.substr(start) : args.substr(start, comma - start));
        if (net.empty()) throw BenchParseError("empty fan-in name", line_no);
        fanin_refs.push_back(net);
        if (comma == npos) break;
        start = comma + 1;
      }
    }
    cell.fanin_count =
        static_cast<std::uint32_t>(fanin_refs.size()) - cell.fanin_begin;
    name_bytes += cell.name.size();
    pending.push_back(cell);
  }

  // Materialize: inputs first, then cells in file order, then wire fan-ins.
  Netlist nl(std::move(name));
  nl.reserve(input_names.size() + pending.size(), fanin_refs.size(),
             name_bytes);
  for (const auto& [in, decl_line] : input_names) {
    try {
      nl.add_input(in);
    } catch (const std::exception&) {
      fail_duplicate(in);
    }
  }
  std::vector<CellId> ids;
  ids.reserve(pending.size());
  for (const PendingCell& cell : pending) {
    CellId id = kNullCell;
    try {
      id = nl.add_cell(cell.kind, cell.name);
    } catch (const std::exception&) {
      fail_duplicate(cell.name);
    }
    if (cell.kind == CellKind::kLut) {
      nl.cell(id).lut_mask =
          cell.lut_mask & full_mask(static_cast<int>(cell.fanin_count));
    }
    ids.push_back(id);
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingCell& cell = pending[i];
    for (std::uint32_t k = 0; k < cell.fanin_count; ++k) {
      const std::string_view net = fanin_refs[cell.fanin_begin + k];
      const CellId driver = nl.find(net);
      if (driver == kNullCell) {
        throw BenchParseError("undefined net '" + std::string(net) + "'",
                              cell.line);
      }
      // Fan-out lists are rebuilt wholesale by finalize(); appending the
      // resolved slot directly skips the incremental fan-out bookkeeping
      // connect() would redo for every edge.
      nl.append_fanin(ids[i], driver);
    }
  }
  for (const auto& [net, decl_line] : output_names) {
    const CellId id = nl.find(net);
    if (id == kNullCell) {
      throw BenchParseError(
          "OUTPUT references undefined net '" + std::string(net) + "'",
          decl_line);
    }
    nl.mark_output(id);
  }
  try {
    nl.finalize();
  } catch (const CombinationalCycleError& e) {
    int line = 0;
    for (const PendingCell& cell : pending) {
      if (cell.name == e.cell) line = cell.line;
    }
    throw BenchParseError("combinational cycle through '" + e.cell + "'",
                          line);
  } catch (const std::exception& e) {
    throw BenchParseError(e.what(), 0);
  }
  return nl;
}

Netlist read_bench_file(const std::string& path) {
  const std::string text = slurp_file(path);
  try {
    return read_bench(text, file_stem(path));
  } catch (const BenchParseError& e) {
    // Re-tag in-memory diagnostics with the actual file path.
    throw BenchParseError(e.message, e.line, path);
  }
}

std::string write_bench(const Netlist& nl, const BenchWriteOptions& opt) {
  std::ostringstream os;
  if (!opt.header.empty()) {
    for (const auto& line : split(opt.header, '\n')) os << "# " << line << '\n';
  }
  os << "# " << nl.name() << '\n';
  for (const CellId id : nl.inputs()) os << "INPUT(" << nl.cell(id).name << ")\n";
  for (const CellId id : nl.outputs()) os << "OUTPUT(" << nl.cell(id).name << ")\n";
  os << '\n';

  // Cells in id order; forward references are legal in .bench and the
  // reader materializes in two passes. Id order makes the writer a byte
  // fixed point under read_bench (the re-read netlist numbers cells in file
  // order, so a second write reproduces the text exactly), keeps the
  // flip-flop interface order (dffs() ascends by id — scan-view positional
  // equivalence survives the round trip), and needs no topo sort.
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput) continue;
    os << c.name << " = ";
    if (c.kind == CellKind::kLut) {
      if (opt.redact_luts) {
        os << "LUT_X";
      } else {
        os << strformat("LUT_0x%llx",
                        static_cast<unsigned long long>(c.lut_mask));
      }
    } else if (c.kind == CellKind::kConst0) {
      os << "CONST0";
    } else if (c.kind == CellKind::kConst1) {
      os << "CONST1";
    } else {
      os << kind_name(c.kind);
    }
    os << '(';
    for (int i = 0; i < c.fanin_count(); ++i) {
      if (i) os << ", ";
      os << nl.cell(c.fanins[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

void write_bench_file(const Netlist& nl, const std::string& path,
                      const BenchWriteOptions& opt) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << write_bench(nl, opt);
}

}  // namespace stt
