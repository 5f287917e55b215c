#include "core/hybrid.hpp"

#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace stt {

LutKey extract_key(const Netlist& nl) {
  LutKey key;
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kLut) key[std::string(c.name)] = c.lut_mask;
  }
  return key;
}

void apply_key(Netlist& nl, const LutKey& key) {
  for (const auto& [name, mask] : key) {
    const CellId id = nl.find(name);
    if (id == kNullCell) {
      throw std::invalid_argument("apply_key: no cell named '" + name + "'");
    }
    Cell& c = nl.cell(id);
    if (c.kind != CellKind::kLut) {
      throw std::invalid_argument("apply_key: cell '" + name +
                                  "' is not a LUT");
    }
    c.lut_mask = mask & full_mask(c.fanin_count());
  }
}

Netlist foundry_view(const Netlist& nl) {
  Netlist view = nl;
  for (CellId id = 0; id < view.size(); ++id) {
    Cell& c = view.cell(id);
    if (c.kind == CellKind::kLut) c.lut_mask = 0;
  }
  return view;
}

std::size_t key_bits(const Netlist& nl) {
  std::size_t bits = 0;
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kLut) bits += num_rows(c.fanin_count());
  }
  return bits;
}

std::string key_to_string(const LutKey& key) {
  std::ostringstream os;
  for (const auto& [name, mask] : key) {
    os << name << ' '
       << strformat("0x%llx", static_cast<unsigned long long>(mask)) << '\n';
  }
  return os.str();
}

LutKey key_from_string(const std::string& text) {
  LutKey key;
  for (const auto& line : split(text, '\n')) {
    const auto fields = split_ws(line);
    if (fields.empty()) continue;
    if (fields.size() != 2) {
      throw std::invalid_argument("key_from_string: malformed line '" + line +
                                  "'");
    }
    const auto mask = parse_hex(fields[1]);
    if (!mask) {
      throw std::invalid_argument("key_from_string: bad hex mask '" +
                                  fields[1] + "' for '" + fields[0] + "'");
    }
    key[fields[0]] = *mask;
  }
  return key;
}

}  // namespace stt
