// Dead-logic removal: rebuild a netlist without cells that cannot reach a
// primary output. Used by the `const` defense and after LUT absorption.
#pragma once

#include "netlist/netlist.hpp"

namespace stt {

/// Returns a compacted copy: cells not backward-reachable from any primary
/// output are dropped (including unread flip-flops). Primary inputs are
/// always kept (interface stability) and live flip-flops keep their
/// interface order, so scan-view positional equivalence is preserved.
/// Names survive; CellIds do not.
Netlist strip_dead_logic(const Netlist& nl);

}  // namespace stt
