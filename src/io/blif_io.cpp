#include "io/blif_io.hpp"

#include <deque>
#include <fstream>
#include <span>
#include <sstream>

#include "io/slurp.hpp"
#include "obs/obs.hpp"
#include "util/interner.hpp"
#include "util/strings.hpp"

namespace stt {

BlifParseError::BlifParseError(const std::string& msg, int line_no,
                               const std::string& src)
    : std::runtime_error(src + ":" + std::to_string(line_no) + ": " + msg),
      message(msg),
      source(src),
      line(line_no) {}

namespace {

// Recognize a truth mask as a standard cell so CMOS netlists survive a
// BLIF round trip as CMOS (not as LUT soup).
CellKind classify_mask(std::uint64_t mask, int fanin) {
  if (fanin == 0) return mask ? CellKind::kConst1 : CellKind::kConst0;
  if (fanin == 1) {
    if (mask == 0b10ull) return CellKind::kBuf;
    if (mask == 0b01ull) return CellKind::kNot;
    return CellKind::kLut;
  }
  for (const CellKind kind :
       {CellKind::kAnd, CellKind::kNand, CellKind::kOr, CellKind::kNor,
        CellKind::kXor, CellKind::kXnor}) {
    if (gate_truth_mask(kind, fanin) == (mask & full_mask(fanin))) return kind;
  }
  return CellKind::kLut;
}

// A `.names` block. All views alias the parse buffer (or the continuation-
// join storage); nets and cubes live in flat arrays shared by all blocks.
struct NamesBlock {
  std::uint32_t nets_begin = 0;   ///< into net_refs: inputs then output net
  std::uint32_t nets_count = 0;
  std::uint32_t cubes_begin = 0;  ///< into cube_refs
  std::uint32_t cubes_count = 0;
  int line = 0;
};

std::uint64_t cubes_to_mask(int k, std::span<const std::string_view> cubes,
                            int block_line,
                            std::vector<std::string_view>& fields) {
  if (k > kMaxLutInputs) {
    throw BlifParseError(".names with more than " +
                             std::to_string(kMaxLutInputs) + " inputs",
                         block_line);
  }
  std::uint64_t on_cover = 0;
  bool cover_is_offset = false;
  bool first = true;
  for (const std::string_view cube : cubes) {
    split_ws_views(cube, fields);
    std::string_view bits;
    std::string_view out;
    if (k == 0) {
      if (fields.size() != 1) {
        throw BlifParseError("bad constant row '" + std::string(cube) + "'",
                             block_line);
      }
      out = fields[0];
    } else {
      if (fields.size() != 2 ||
          fields[0].size() != static_cast<std::size_t>(k)) {
        throw BlifParseError("bad cube '" + std::string(cube) + "'",
                             block_line);
      }
      bits = fields[0];
      out = fields[1];
    }
    if (out != "0" && out != "1") {
      throw BlifParseError("bad cube output '" + std::string(out) + "'",
                           block_line);
    }
    const bool off = (out == "0");
    if (first) {
      cover_is_offset = off;
      first = false;
    } else if (off != cover_is_offset) {
      throw BlifParseError("mixed on-set/off-set cover", block_line);
    }
    // Expand don't-cares.
    std::vector<std::uint32_t> rows{0};
    for (int i = 0; i < k; ++i) {
      const char c = bits[i];
      if (c != '0' && c != '1' && c != '-') {
        throw BlifParseError("bad cube character '" + std::string(1, c) + "'",
                             block_line);
      }
      const std::size_t count = rows.size();
      for (std::size_t r = 0; r < count; ++r) {
        if (c == '1') {
          rows[r] |= (1u << i);
        } else if (c == '-') {
          rows.push_back(rows[r] | (1u << i));
        }
      }
    }
    if (k == 0) rows = {0};
    for (const std::uint32_t row : rows) on_cover |= (1ull << row);
  }
  if (cubes.empty()) return 0;  // empty cover = constant 0
  return cover_is_offset ? (~on_cover & full_mask(k)) : on_cover;
}

}  // namespace

Netlist read_blif(std::string_view text, std::string fallback_name) {
  STTLOCK_SPAN("io", "read_blif");
  {
    static obs::Counter& parses = obs::Metrics::global().counter("io.blif_parses");
    parses.add(1);
  }
  // Logical lines: comments stripped, continuations joined. Unbroken lines
  // stay views into `text`; the rare continuation-joined line is owned by
  // `joined` (a deque, so its elements never move and views stay valid).
  struct LineRec {
    std::string_view text;
    int line = 0;
  };
  std::vector<LineRec> lines;
  std::deque<std::string> joined;
  {
    int line_no = 0;
    std::string pending;
    int pending_line = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t eol = text.find('\n', pos);
      std::string_view raw = text.substr(
          pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
      pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
      ++line_no;
      if (const auto hash = raw.find('#'); hash != std::string_view::npos) {
        raw = raw.substr(0, hash);
      }
      std::string_view trimmed = trim(raw);
      const bool continues = ends_with(trimmed, "\\");
      if (continues) trimmed = trim(trimmed.substr(0, trimmed.size() - 1));
      if (!continues && pending.empty()) {
        // Common case: a plain line stays a view into `text`.
        if (!trimmed.empty()) lines.push_back({trimmed, line_no});
        continue;
      }
      if (pending.empty()) pending_line = line_no;
      if (!pending.empty()) pending += ' ';
      pending += trimmed;
      if (!continues) {
        const std::string_view flat = trim(pending);
        if (!flat.empty()) {
          joined.emplace_back(flat);
          lines.push_back({joined.back(), pending_line});
        }
        pending.clear();
      }
    }
  }

  struct Latch {
    std::string_view d, q;
    int line = 0;
  };
  std::string model_name = std::move(fallback_name);
  std::vector<std::string_view> input_names;
  std::vector<std::pair<std::string_view, int>> output_names;  // net, line
  std::vector<Latch> latches;
  std::vector<NamesBlock> blocks;
  std::vector<std::string_view> net_refs;    // flat, per NamesBlock
  std::vector<std::string_view> cube_refs;   // flat, per NamesBlock
  StringInterner defined;  // driver names, for dup checks
  std::size_t name_bytes = 0;
  std::size_t edge_count = 0;
  const auto define = [&defined, &name_bytes](std::string_view net,
                                              int line_no) {
    bool inserted = false;
    defined.intern(net, inserted);
    if (!inserted) {
      throw BlifParseError("net '" + std::string(net) + "' defined twice",
                           line_no);
    }
    name_bytes += net.size();
  };

  std::vector<std::string_view> fields;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const auto [line, line_no] = lines[li];
    split_ws_views(line, fields);
    if (fields.empty()) continue;
    const std::string_view head = fields[0];
    if (head == ".model") {
      if (fields.size() < 2) {
        throw BlifParseError(".model needs a name", line_no);
      }
      model_name = fields[1];
    } else if (head == ".inputs") {
      for (auto it = fields.begin() + 1; it != fields.end(); ++it) {
        define(*it, line_no);
        input_names.push_back(*it);
      }
    } else if (head == ".outputs") {
      for (auto it = fields.begin() + 1; it != fields.end(); ++it) {
        output_names.emplace_back(*it, line_no);
      }
    } else if (head == ".latch") {
      if (fields.size() < 3) {
        throw BlifParseError(".latch needs input and output", line_no);
      }
      define(fields[2], line_no);
      latches.push_back({fields[1], fields[2], line_no});
      ++edge_count;
    } else if (head == ".names") {
      if (fields.size() < 2) {
        throw BlifParseError(".names needs an output net", line_no);
      }
      define(fields.back(), line_no);
      NamesBlock block;
      block.nets_begin = static_cast<std::uint32_t>(net_refs.size());
      net_refs.insert(net_refs.end(), fields.begin() + 1, fields.end());
      block.nets_count =
          static_cast<std::uint32_t>(net_refs.size()) - block.nets_begin;
      block.line = line_no;
      block.cubes_begin = static_cast<std::uint32_t>(cube_refs.size());
      while (li + 1 < lines.size() && lines[li + 1].text[0] != '.') {
        cube_refs.push_back(lines[++li].text);
      }
      block.cubes_count =
          static_cast<std::uint32_t>(cube_refs.size()) - block.cubes_begin;
      edge_count += block.nets_count - 1;
      blocks.push_back(block);
    } else if (head == ".end") {
      break;
    } else if (head[0] == '.') {
      // Unknown directive (timing annotations etc.): ignore.
    } else {
      throw BlifParseError("unexpected line '" + std::string(line) + "'",
                           line_no);
    }
  }

  Netlist nl(std::move(model_name));
  nl.reserve(input_names.size() + latches.size() + blocks.size(), edge_count,
             name_bytes);
  for (const std::string_view name : input_names) nl.add_input(name);
  for (const Latch& latch : latches) nl.add_cell(CellKind::kDff, latch.q);
  std::vector<CellId> block_cells;
  block_cells.reserve(blocks.size());
  for (const NamesBlock& block : blocks) {
    const int k = static_cast<int>(block.nets_count) - 1;
    const std::string_view out_net =
        net_refs[block.nets_begin + block.nets_count - 1];
    const std::span<const std::string_view> cubes(
        cube_refs.data() + block.cubes_begin, block.cubes_count);
    if (k > kMaxLutInputs) {
      // Wide covers: accept the compact monotone single-cube forms.
      if (cubes.size() != 1) {
        throw BlifParseError("wide .names must be a single cube", block.line);
      }
      split_ws_views(cubes[0], fields);
      if (fields.size() != 2 ||
          fields[0].size() != static_cast<std::size_t>(k)) {
        throw BlifParseError("bad wide cube", block.line);
      }
      const bool all1 = fields[0] == std::string(k, '1');
      const bool all0 = fields[0] == std::string(k, '0');
      const bool out1 = fields[1] == "1";
      CellKind kind;
      if (all1 && out1) {
        kind = CellKind::kAnd;
      } else if (all1) {
        kind = CellKind::kNand;
      } else if (all0 && out1) {
        kind = CellKind::kNor;
      } else if (all0) {
        kind = CellKind::kOr;
      } else {
        throw BlifParseError("unsupported wide cover", block.line);
      }
      block_cells.push_back(nl.add_cell(kind, out_net));
      continue;
    }
    const std::uint64_t mask = cubes_to_mask(k, cubes, block.line, fields);
    const CellKind kind = classify_mask(mask, k);
    const CellId id = nl.add_cell(kind, out_net);
    if (kind == CellKind::kLut) nl.cell(id).lut_mask = mask & full_mask(k);
    block_cells.push_back(id);
  }
  auto resolve = [&](std::string_view name, int line_no) {
    const CellId id = nl.find(name);
    if (id == kNullCell) {
      throw BlifParseError("undefined net '" + std::string(name) + "'",
                           line_no);
    }
    return id;
  };
  for (const Latch& latch : latches) {
    nl.connect(nl.find(latch.q), {resolve(latch.d, latch.line)});
  }
  std::vector<CellId> fanins;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const CellKind kind = nl.cell(block_cells[i]).kind;
    if (kind == CellKind::kConst0 || kind == CellKind::kConst1) continue;
    fanins.clear();
    const NamesBlock& block = blocks[i];
    for (std::uint32_t j = 0; j + 1 < block.nets_count; ++j) {
      fanins.push_back(resolve(net_refs[block.nets_begin + j], block.line));
    }
    try {
      nl.connect(block_cells[i], fanins);
    } catch (const std::exception& e) {
      throw BlifParseError(e.what(), block.line);
    }
  }
  for (const auto& [name, decl_line] : output_names) {
    nl.mark_output(resolve(name, decl_line));
  }
  try {
    nl.finalize();
  } catch (const CombinationalCycleError& e) {
    // A latch output is a sequential source and never lies on a
    // combinational cycle, so the named cell is always a .names block.
    int line = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (nl.cell(block_cells[i]).name == e.cell) line = blocks[i].line;
    }
    throw BlifParseError("combinational cycle through '" + e.cell + "'",
                         line);
  } catch (const std::exception& e) {
    throw BlifParseError(e.what(), 0);
  }
  return nl;
}

Netlist read_blif_file(const std::string& path) {
  const std::string text = slurp_file(path);
  try {
    return read_blif(text, file_stem(path));
  } catch (const BlifParseError& e) {
    // Re-tag in-memory diagnostics with the actual file path.
    throw BlifParseError(e.message, e.line, path);
  }
}

std::string write_blif(const Netlist& nl) {
  std::ostringstream os;
  os << ".model " << nl.name() << '\n';
  os << ".inputs";
  for (const CellId id : nl.inputs()) os << ' ' << nl.cell(id).name;
  os << '\n';
  os << ".outputs";
  for (const CellId id : nl.outputs()) os << ' ' << nl.cell(id).name;
  os << '\n';
  for (const CellId id : nl.dffs()) {
    const Cell& c = nl.cell(id);
    os << ".latch " << nl.cell(c.fanins.at(0)).name << ' ' << c.name
       << " re clk 0\n";
  }
  // Gates in id order (forward references are fine — the reader resolves
  // names after scanning every block): the re-read netlist numbers cells in
  // file order, so writing it again reproduces these bytes exactly.
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kInput || c.kind == CellKind::kDff) continue;
    os << ".names";
    for (const CellId f : c.fanins) os << ' ' << nl.cell(f).name;
    os << ' ' << c.name << '\n';
    const int k = c.fanin_count();
    if (k > kMaxLutInputs) {
      // Wide gates: compact single-cube covers for the monotone gates.
      switch (c.kind) {
        case CellKind::kAnd:
          os << std::string(k, '1') << " 1\n";
          break;
        case CellKind::kNand:
          os << std::string(k, '1') << " 0\n";
          break;
        case CellKind::kOr:
          os << std::string(k, '0') << " 0\n";
          break;
        case CellKind::kNor:
          os << std::string(k, '0') << " 1\n";
          break;
        default:
          // A 2^(k-1)-cube parity cover is not worth emitting.
          throw std::runtime_error(
              "write_blif: wide XOR/XNOR not representable compactly; "
              "decompose '" + std::string(c.name) + "' first");
      }
      continue;
    }
    const std::uint64_t mask =
        c.kind == CellKind::kLut ? c.lut_mask : (c.kind == CellKind::kConst0
                ? 0ull
                : c.kind == CellKind::kConst1
                      ? 1ull
                      : gate_truth_mask(c.kind, k));
    if (k == 0) {
      if (mask & 1ull) os << "1\n";
      continue;
    }
    for (std::uint32_t row = 0; row < num_rows(k); ++row) {
      if (!((mask >> row) & 1ull)) continue;
      for (int i = 0; i < k; ++i) os << ((row & (1u << i)) ? '1' : '0');
      os << " 1\n";
    }
  }
  os << ".end\n";
  return os.str();
}

void write_blif_file(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << write_blif(nl);
}

}  // namespace stt
