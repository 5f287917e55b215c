#include "core/bitstream.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "util/strings.hpp"

namespace stt {

namespace {

constexpr std::string_view kMagic = "STTB";
constexpr int kVersion = 1;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const auto kTable = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = kTable[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t netlist_fingerprint(const Netlist& nl) {
  // FNV-1a over a canonical structural rendering: interface orders (which
  // are semantic for the scan view) followed by all cells sorted by net
  // name, so the fingerprint is invariant to cell-creation order and to
  // the netlist's display name (both change across file round trips).
  // LUT masks are *excluded* so the foundry view matches the configured
  // view.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0x1f;
    h *= 0x100000001b3ull;
  };
  for (const CellId id : nl.inputs()) mix(nl.cell(id).name);
  for (const CellId id : nl.outputs()) mix(nl.cell(id).name);
  for (const CellId id : nl.dffs()) mix(nl.cell(id).name);
  std::vector<CellId> order(nl.size());
  for (CellId id = 0; id < nl.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [&nl](CellId a, CellId b) {
    return nl.cell(a).name < nl.cell(b).name;
  });
  for (const CellId id : order) {
    const Cell& c = nl.cell(id);
    mix(c.name);
    mix(kind_name(c.kind));
    for (const CellId f : c.fanins) mix(nl.cell(f).name);
  }
  return h;
}

std::string write_bitstream(const Netlist& hybrid) {
  const LutKey key = extract_key(hybrid);
  std::ostringstream body;
  body << kMagic << " v" << kVersion << '\n';
  body << "design " << hybrid.name() << '\n';
  body << strformat("fingerprint %016llx\n",
                    static_cast<unsigned long long>(
                        netlist_fingerprint(hybrid)));
  body << "records " << key.size() << '\n';
  for (const auto& [name, mask] : key) {
    const CellId id = hybrid.find(name);
    body << "lut " << name << ' ' << hybrid.cell(id).fanin_count() << ' '
         << strformat("%llx", static_cast<unsigned long long>(mask)) << '\n';
  }
  std::string text = body.str();
  text += strformat("crc %08x\n", crc32(text));
  return text;
}

LutKey read_bitstream(const std::string& image,
                      std::uint64_t expected_fingerprint) {
  // Split off the trailing CRC line first.
  const auto crc_pos = image.rfind("crc ");
  if (crc_pos == std::string::npos) throw BitstreamError("missing CRC line");
  const std::string body = image.substr(0, crc_pos);
  const auto crc_fields = split_ws(image.substr(crc_pos));
  if (crc_fields.size() != 2) throw BitstreamError("malformed CRC line");
  // A parsed field's value, or an error naming the field and its text.
  const auto need = [](auto value, const char* what, const std::string& text) {
    if (value) return *value;
    throw BitstreamError(std::string("malformed ") + what + " '" + text + "'");
  };
  if (need(parse_hex(crc_fields[1]), "CRC", crc_fields[1]) != crc32(body)) {
    throw BitstreamError("CRC mismatch");
  }

  LutKey key;
  std::uint64_t fingerprint = 0;
  std::size_t expected_records = 0;
  bool header_seen = false;
  for (const auto& line : split(body, '\n')) {
    const auto fields = split_ws(line);
    if (fields.empty()) continue;
    if (fields[0] == std::string(kMagic)) {
      if (fields.size() != 2 || fields[1] != "v" + std::to_string(kVersion)) {
        throw BitstreamError("unsupported version");
      }
      header_seen = true;
    } else if (fields[0] == "design") {
      // informational
    } else if (fields[0] == "fingerprint") {
      if (fields.size() != 2) throw BitstreamError("malformed fingerprint");
      fingerprint = need(parse_hex(fields[1]), "fingerprint", fields[1]);
    } else if (fields[0] == "records") {
      if (fields.size() != 2) throw BitstreamError("malformed record count");
      expected_records = static_cast<std::size_t>(
          need(parse_int(fields[1], 0), "record count", fields[1]));
    } else if (fields[0] == "lut") {
      if (fields.size() != 4) throw BitstreamError("malformed LUT record");
      const auto fanin = need(parse_int(fields[2], 1, kMaxLutInputs),
                              "LUT fan-in", fields[2]);
      key[fields[1]] = need(parse_hex(fields[3]), "LUT mask", fields[3]) &
                       full_mask(static_cast<int>(fanin));
    } else {
      throw BitstreamError("unknown line '" + line + "'");
    }
  }
  if (!header_seen) throw BitstreamError("missing magic header");
  if (key.size() != expected_records) {
    throw BitstreamError("record count mismatch");
  }
  if (expected_fingerprint != 0 && fingerprint != expected_fingerprint) {
    throw BitstreamError("netlist fingerprint mismatch: image is for a "
                         "different design");
  }
  return key;
}

void program_from_bitstream(Netlist& fabricated, const std::string& image) {
  const LutKey key =
      read_bitstream(image, netlist_fingerprint(fabricated));
  apply_key(fabricated, key);
}

}  // namespace stt
