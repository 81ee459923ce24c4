/**
 * @file
 * SABRE-style lookahead routing over the dependency DAG.
 *
 * Where CTR legalizes one CNOT at a time in program order (SWAP chain
 * out, CNOT, SWAP chain back), the lookahead router keeps a *dynamic
 * layout* and picks SWAPs globally: it tracks the frontier of ready
 * gates in the commutation-aware `analysis::DependencyDag`, executes
 * everything already adjacent, and — when only distant CNOTs remain —
 * scores every SWAP on an edge touching a frontier CNOT by the total
 * distance it saves across the ready set plus a geometrically decayed
 * window of upcoming CNOTs. SWAPs persist; a permutation-repair
 * epilogue restores the identity layout so the routed unitary equals
 * CTR's exactly. Grounded in Li/Ding/Xie's SABRE (ASPLOS'19) and the
 * lookahead literature cited in PAPERS.md.
 *
 * With calibration data and `fidelityAware`, hop-count distances are
 * replaced by accumulated two-qubit-error weights, so SWAP choices
 * prefer high-fidelity edges — the same weighting CTR's
 * fidelity-aware path search uses.
 */

#pragma once

#include "route/router.hpp"

namespace qsyn::route {

/**
 * The lookahead backend. Called by `routeCircuit` after the width
 * check; use `routeCircuit` with
 * `options.router = RouterKind::Sabre` instead unless you
 * specifically want to bypass strategy selection.
 */
Circuit routeSabre(const Circuit &circuit, const Device &device,
                   RouteStats *stats, const RouteOptions &options);

} // namespace qsyn::route
