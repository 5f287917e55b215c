#include "defense/defense.hpp"

#include <stdexcept>

#include "core/similarity.hpp"

namespace stt::defense {

void DefenseBase::finish(DefenseResult& r, const Netlist& original,
                         const TechLibrary& lib, const DefenseOptions& opt) {
  r.overhead = compare_overhead(original, r.locked, lib, opt.activity);
  r.security = security_report(r.locked, SimilarityModel::paper());
  count_key(r);
}

void DefenseBase::count_key(DefenseResult& r) {
  r.key_cells = static_cast<int>(r.key.size());
  r.key_bits = 0;
  for (const auto& [name, mask] : r.key) {
    (void)mask;
    const CellId id = r.locked.find(name);
    if (id == kNullCell) {
      throw std::runtime_error("defense: key names missing cell '" + name +
                               "'");
    }
    r.key_bits += static_cast<int>(num_rows(r.locked.cell(id).fanin_count()));
  }
}

std::string DefenseBase::unique_name(const Netlist& nl,
                                     const std::string& base,
                                     const std::vector<std::string>& suffixes) {
  const auto free = [&](const std::string& candidate) {
    if (nl.find(candidate) != kNullCell) return false;
    for (const std::string& suffix : suffixes) {
      if (nl.find(candidate + suffix) != kNullCell) return false;
    }
    return true;
  };
  if (free(base)) return base;
  for (int n = 2;; ++n) {
    const std::string candidate = base + "_" + std::to_string(n);
    if (free(candidate)) return candidate;
  }
}

}  // namespace stt::defense
