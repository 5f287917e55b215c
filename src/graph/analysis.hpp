// Structural graph analyses over netlists.
//
// The selection algorithms and the security estimators need two graph
// quantities:
//  * per-cell sequential depth — the minimum number of flip-flops between a
//    cell and any primary output (the D_i of Eqs. 1-2);
//  * the circuit sequential depth D — the maximum number of flip-flops on
//    any PI -> PO path (Eq. 3). Sequential loops make the naive definition
//    unbounded, so D is computed on the SCC condensation of the cell graph
//    (fan-out edges, D pins included): each strongly connected component
//    contributes its flip-flop count once, which is the natural acyclic
//    reading of the paper's definition. One Tarjan pass and one
//    longest-path sweep over the condensation make it linear in the
//    netlist.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "netlist/netlist.hpp"

namespace stt {

inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Minimum number of flip-flops on any path from each cell to a primary
/// output (crossing a DFF costs 1). kUnreachable if no PO is reachable.
std::vector<int> seq_depth_to_po(const Netlist& nl);

/// The circuit sequential depth D of Eq. (3): the heaviest path from a PI's
/// component to a PO's component in the SCC condensation of the cell graph,
/// each component weighing its flip-flop count (see file comment).
/// Returns at least 1 for sequential circuits, 1 for pure combinational
/// (the paper's equations multiply by D, so D >= 1 keeps them meaningful).
int circuit_seq_depth(const Netlist& nl);

/// Tarjan strongly-connected components over an arbitrary adjacency list.
/// Returns component index per node, components numbered in reverse
/// topological order (a component only points to lower-numbered ones).
std::vector<int> tarjan_scc(const std::vector<std::vector<std::uint32_t>>& adj,
                            int& num_components);

/// Same algorithm over a CSR adjacency (node u's targets are
/// targets[offsets[u] .. offsets[u+1])): identical numbering for the same
/// edge order, but no per-node vector allocations — the form the
/// million-gate lint scan builds in one counting pass.
std::vector<int> tarjan_scc_csr(std::span<const std::uint32_t> offsets,
                                std::span<const std::uint32_t> targets,
                                int& num_components);

}  // namespace stt
