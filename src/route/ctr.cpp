#include "route/ctr.hpp"

#include <cmath>

#include "common/errors.hpp"
#include "decompose/toffoli.hpp"
#include "obs/obs.hpp"

namespace qsyn::route {

namespace {

using detail::countReversal;

/** Record one reroute decision on the installed obs sink: the SWAP
 *  path length (vertices walked, histogram) and the running reroute
 *  count. Reroutes are rare relative to gates, so the registry mutex
 *  is fine here. */
void
recordReroute(size_t path_vertices)
{
    if (obs::Sink *s = obs::sink()) {
        s->metrics().observe("route.reroute_path_length",
                             static_cast<double>(path_vertices));
    }
}

void
routeCnotCtr(Circuit &out, const Device &device, Qubit control,
             Qubit target, RouteStats *stats, bool fidelity_aware,
             bool omit_swap_back)
{
    const CouplingMap &map = device.coupling();
    // Shortest path from the control to any neighbor of the target
    // (BFS == breadth-first expansion of the paper's connectivity
    // tree); with calibration data, a Dijkstra search minimizing
    // accumulated two-qubit error instead.
    std::vector<Qubit> path;
    const Calibration *cal = device.calibration();
    if (fidelity_aware && cal != nullptr) {
        // One SWAP on an edge costs three CNOTs on it.
        auto edge_weight = [&](Qubit a, Qubit b) {
            return -3.0 * std::log1p(-cal->twoQubitError(a, b));
        };
        auto goal_weight = [&](Qubit n) {
            return -std::log1p(-cal->twoQubitError(n, target));
        };
        path = map.weightedPathToNeighbor(control, target, edge_weight,
                                          goal_weight);
    } else {
        path = map.shortestPathToNeighbor(control, target);
    }
    if (path.empty()) {
        throw MappingError("no coupling path between q" +
                           std::to_string(control) + " and q" +
                           std::to_string(target));
    }
    if (stats)
        ++stats->reroutedCnots;
    recordReroute(path.size());

    for (size_t i = 0; i + 1 < path.size(); ++i)
        decompose::appendSwap(out, &map, path[i], path[i + 1]);
    if (stats)
        stats->swapsInserted += path.size() - 1;
    Qubit moved = path.back();
    if (map.hasEdge(moved, target)) {
        out.addCnot(moved, target);
    } else {
        decompose::appendReversedCnot(out, moved, target);
        countReversal(stats);
    }
    if (omit_swap_back)
        return;
    for (size_t i = path.size() - 1; i >= 1; --i)
        decompose::appendSwap(out, &map, path[i], path[i - 1]);
    if (stats)
        stats->swapsInserted += path.size() - 1;
}

} // namespace

Circuit
routeCtr(const Circuit &circuit, const Device &device, RouteStats *stats,
         const RouteOptions &options)
{
    Circuit out(device.numQubits(), circuit.name());
    const CouplingMap &map = device.coupling();

    for (const Gate &g : circuit) {
        if (!g.isCnot()) {
            QSYN_ASSERT(g.numQubits() <= 1 ||
                            g.kind() == GateKind::Barrier,
                        "routing expects a primitive-level circuit, got " +
                            g.toString());
            out.add(g);
            continue;
        }
        Qubit control = g.controls()[0];
        Qubit target = g.target();
        if (device.isFullyConnected() || map.hasEdge(control, target)) {
            out.addCnot(control, target);
            if (stats)
                ++stats->nativeCnots;
            continue;
        }
        if (map.hasUndirectedEdge(control, target)) {
            decompose::appendReversedCnot(out, control, target);
            countReversal(stats);
            continue;
        }
        routeCnotCtr(out, device, control, target, stats,
                     options.fidelityAware, options.testOmitSwapBack);
    }
    return out;
}

} // namespace qsyn::route
