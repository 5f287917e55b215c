#include "graph/analysis.hpp"

#include <algorithm>
#include <deque>

namespace stt {

std::vector<int> seq_depth_to_po(const Netlist& nl) {
  // 0-1 BFS backward from the POs: stepping from a cell to its driver costs
  // 1 when the cell is a DFF (one flip-flop crossed), 0 otherwise.
  std::vector<int> dist(nl.size(), kUnreachable);
  std::deque<CellId> queue;
  for (const CellId s : nl.outputs()) {
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_front(s);
    }
  }
  while (!queue.empty()) {
    const CellId u = queue.front();
    queue.pop_front();
    const int w = nl.cell(u).kind == CellKind::kDff ? 1 : 0;
    for (const CellId v : nl.cell(u).fanins) {
      if (dist[u] + w >= dist[v]) continue;
      dist[v] = dist[u] + w;
      if (w == 0) {
        queue.push_front(v);
      } else {
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<int> tarjan_scc(const std::vector<std::vector<std::uint32_t>>& adj,
                            int& num_components) {
  // Flatten to CSR preserving edge order, then run the CSR core — the
  // numbering only depends on edge order, so both entry points agree.
  std::vector<std::uint32_t> offsets(adj.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t u = 0; u < adj.size(); ++u) {
    total += adj[u].size();
    offsets[u + 1] = static_cast<std::uint32_t>(total);
  }
  std::vector<std::uint32_t> targets;
  targets.reserve(total);
  for (const auto& row : adj) {
    targets.insert(targets.end(), row.begin(), row.end());
  }
  return tarjan_scc_csr(offsets, targets, num_components);
}

std::vector<int> tarjan_scc_csr(std::span<const std::uint32_t> offsets,
                                std::span<const std::uint32_t> targets,
                                int& num_components) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  std::vector<int> comp(n, -1), low(n, 0), index(n, -1);
  std::vector<std::uint32_t> stack;
  std::vector<bool> on_stack(n, false);
  int next_index = 0;
  num_components = 0;

  // Iterative Tarjan to survive deep graphs.
  struct Frame {
    std::uint32_t node;
    std::uint32_t edge;  // cursor relative to offsets[node]
  };
  std::vector<Frame> call;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    call.push_back({root, 0});
    while (!call.empty()) {
      auto& [u, edge] = call.back();
      if (edge == 0) {
        index[u] = low[u] = next_index++;
        stack.push_back(u);
        on_stack[u] = true;
      }
      bool descended = false;
      while (offsets[u] + edge < offsets[u + 1]) {
        const std::uint32_t v = targets[offsets[u] + edge++];
        if (index[v] == -1) {
          call.push_back({v, 0});
          descended = true;
          break;
        }
        if (on_stack[v]) low[u] = std::min(low[u], index[v]);
      }
      if (descended) continue;
      if (low[u] == index[u]) {
        while (true) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = num_components;
          if (w == u) break;
        }
        ++num_components;
      }
      const std::uint32_t finished = u;
      call.pop_back();
      if (!call.empty()) {
        const std::uint32_t parent = call.back().node;
        low[parent] = std::min(low[parent], low[finished]);
      }
    }
  }
  return comp;
}

int circuit_seq_depth(const Netlist& nl) {
  // Fan-out graph over every cell (D-pin edges included), as CSR built from
  // the fan-in lists.
  const std::size_t n = nl.size();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (CellId v = 0; v < n; ++v) {
    for (const CellId u : nl.cell(v).fanins) ++offsets[u + 1];
  }
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  std::vector<std::uint32_t> targets(offsets[n]);
  {
    std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (CellId v = 0; v < n; ++v) {
      for (const CellId u : nl.cell(v).fanins) targets[fill[u]++] = v;
    }
  }
  int num_comp = 0;
  const std::vector<int> comp = tarjan_scc_csr(offsets, targets, num_comp);

  // Component weights: flip-flop count. Cells grouped by component.
  std::vector<int> weight(num_comp, 0);
  std::vector<std::uint32_t> first(num_comp + 1, 0);
  for (CellId id = 0; id < n; ++id) {
    if (nl.cell(id).kind == CellKind::kDff) ++weight[comp[id]];
    ++first[comp[id] + 1];
  }
  for (int c = 0; c < num_comp; ++c) first[c + 1] += first[c];
  std::vector<CellId> members(n);
  {
    std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
    for (CellId id = 0; id < n; ++id) members[fill[comp[id]]++] = id;
  }

  // best[c] = heaviest chain from c to a PO's component (-1: none). Tarjan
  // numbers components in reverse topological order, so every successor of
  // c has a lower index and is final when c is reached.
  std::vector<long long> best(num_comp, -1);
  for (const CellId po : nl.outputs()) best[comp[po]] = 0;
  for (int c = 0; c < num_comp; ++c) {
    long long reach = best[c];
    for (std::uint32_t m = first[c]; m < first[c + 1]; ++m) {
      const CellId u = members[m];
      for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
        const int s = comp[targets[e]];
        if (s != c) reach = std::max(reach, best[s]);
      }
    }
    best[c] = reach >= 0 ? reach + weight[c] : -1;
  }
  long long d = -1;
  for (CellId id = 0; id < n; ++id) {
    if (nl.cell(id).kind == CellKind::kInput) d = std::max(d, best[comp[id]]);
  }
  return d <= 0 ? 1 : static_cast<int>(d);
}

}  // namespace stt
