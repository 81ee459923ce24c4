/**
 * @file
 * Local optimization passes (Section 4, mapping steps 5 and 6):
 * "local optimizations based on removing partitions of gates that
 * equal the identity function" and "that can be minimized with a
 * logically identical circuit identity", applied recursively until the
 * cost function cannot be reduced (see pipeline.hpp for the driver).
 *
 * Every pass is phase-exact: rewritten circuits equal the original
 * unitary including global phase, so the QMDD equivalence check stays
 * strict.
 */

#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "device/device.hpp"
#include "ir/circuit.hpp"

namespace qsyn::opt {

/**
 * Cancel adjacent inverse pairs (H.H, X.X, CNOT.CNOT, T.Tdg, ...).
 * "Adjacent" is commutation-aware: gates that syntactically commute
 * with the first gate may sit in between. Returns true when the
 * circuit changed.
 */
bool cancelInversePairs(Circuit &circuit);

/**
 * Merge mergeable neighbors: same-axis rotations add their angles and
 * the phase-gate family {Z, S, S†, T, T†, P} composes exactly
 * (T.T = S, S.S = Z, ...), including controlled variants with equal
 * control sets. Gates merging to the identity disappear. Returns true
 * when the circuit changed.
 */
bool mergeRotations(Circuit &circuit);

/**
 * Hadamard conjugation identities:
 *   H X H = Z,  H Z H = X,
 *   (H (+) H) CNOT(b,a) (H (+) H) = CNOT(a,b)   [Fig. 6, reversed]
 * The CNOT reversal fires only when the resulting direction is legal
 * on `device` (null device = unconstrained). Returns true when the
 * circuit changed.
 */
bool applyHadamardRules(Circuit &circuit, const Device *device);

/**
 * What removeIdentityWindows already knows. A window's longest identity
 * prefix is a pure function of its member gates relabelled to
 * window-local wires plus its width; `prefixes` maps exactly that
 * (angles compared bit for bit) to the prefix length, and a lookup
 * compares the full key. `clean` is the circuit the last call returned,
 * which holds no identity window under `cleanLimits`, so a call on an
 * exact copy of it returns at once. optimizeCircuit keeps one memo
 * across all its rounds: unchanged regions cost a lookup and the
 * confirming round one comparison.
 */
struct WindowMemo
{
    std::unordered_map<std::string, size_t> prefixes;
    /** Windows answered from `prefixes`. */
    size_t hits = 0;
    std::vector<Gate> clean;
    /** (max_qubits, max_gates) of the call that returned `clean`. */
    std::pair<int, size_t> cleanLimits{0, 0};
};

/**
 * Remove gate partitions that multiply to the identity: slides a
 * window over runs of gates confined to at most `max_qubits` wires
 * (gates on disjoint wires may interleave) and deletes any prefix
 * whose product is exactly the identity. `memo` carries verdicts
 * between calls (null: a memo local to this call). Returns true when
 * the circuit changed.
 */
bool removeIdentityWindows(Circuit &circuit, int max_qubits = 3,
                           size_t max_gates = 16,
                           WindowMemo *memo = nullptr);

/**
 * Phase-polynomial merging (extension beyond the paper's optimizer):
 * inside {CNOT, X, phase, Rz} regions, diagonal gates whose wires
 * carry the same affine GF(2) function of the region inputs merge
 * exactly — the classic Clifford+T T-count reduction. Returns true
 * when the circuit changed.
 */
bool mergePhasePolynomial(Circuit &circuit);

} // namespace qsyn::opt
