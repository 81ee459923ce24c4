/**
 * @file
 * QMDD-based formal equivalence checking (the paper's built-in
 * verification step): the compiled output must implement its
 * specification.
 *
 * One algorithm, the alternating miter of Burgholzer & Wille
 * ("Advanced Equivalence Checking for Quantum Circuits", TCAD 2021),
 * made ancilla-aware. Starting from the clean-ancilla projector `P`
 * (the identity when there are no ancillas), it accumulates
 *
 *     M = U_out . P . R^dagger
 *
 * gate by gate, output gates multiplied on the left and reference
 * gates (inverted) on the right, and the circuits are equivalent iff
 * `M = P` up to global phase, i.e. `U_out . P = P . U_spec`. When the
 * specification keeps the ancilla wires clean (a compile's reference
 * never touches them) it commutes with `P`, so this is exactly
 * `U_out . P = U_spec . P`: the output acts like the specification
 * whenever the ancillas start clean, and returns them clean. A
 * specification that leaves an ancilla wire dirty is never matched.
 * Keeping `M` near `P` throughout keeps the DD small; the two sides
 * advance
 *  - by provenance when the output carries origins (Gate::origin) and
 *    the specification does not: reference gate i, then every output
 *    gate with origin <= i;
 *  - proportionally to their gate counts otherwise.
 *
 * A router's SWAP list (EquivalenceOptions::swapHint) makes the
 * reference follow the output's moving layout: `R` is the
 * specification relabelled through a running permutation pi, each
 * hinted SWAP applied before its origin gate, closed by a SWAP network
 * that returns pi to the identity. `R`'s product is `U_spec` whatever
 * the hint says, so a wrong hint costs time, never the verdict. A node
 * budget yields Inconclusive instead of thrashing.
 */

#pragma once

#include <vector>

#include "ir/circuit.hpp"
#include "qmdd/package.hpp"

namespace qsyn::dd {

/** Outcome of an equivalence query. */
enum class Equivalence
{
    Equivalent,            ///< identical canonical QMDDs
    EquivalentUpToPhase,   ///< same nodes; root weights differ by a phase
    EquivalentApprox,      ///< entrywise equal within the approx epsilon
    NotEquivalent,         ///< matrices differ
    Inconclusive           ///< node budget exhausted before an answer
};

/** Printable name of an Equivalence value. */
const char *equivalenceName(Equivalence e);

/** True for any of the three "yes" verdicts. */
inline bool
isEquivalent(Equivalence e)
{
    return e == Equivalence::Equivalent ||
           e == Equivalence::EquivalentUpToPhase ||
           e == Equivalence::EquivalentApprox;
}

/** Options controlling an equivalence query. */
struct EquivalenceOptions
{
    /** Accept circuits equal up to a global phase. */
    bool upToGlobalPhase = true;
    /** Wires (of the wider register) required to be |0> before and
     *  after: clean ancillas and idle device qubits. */
    std::vector<Qubit> ancillaWires;
    /** Abort with Inconclusive past this many live nodes (0 = off). */
    size_t nodeBudget = 0;
    /** Ignored: every check runs the miter. Kept only because
     *  perfbench/harness.cpp, which must build unchanged, sets it. */
    bool useMiter = false;
    /** Tolerance for the EquivalentApprox fallback verdict. */
    double approxEps = 1e-6;
    /**
     * Before the miter, push this many random basis states (ancilla
     * wires held at |0>) through both circuits with the vector engine
     * and refute on the first mismatch. A cheap counterexample
     * short-circuits the expensive check; agreement proves nothing and
     * the miter still runs.
     */
    size_t quickRefuteSamples = 0;
    /**
     * SWAPs the router inserted on the second circuit, keyed by origin
     * (route::RouteStats::swapLog): the layout hint the reference
     * follows. Affects only the check's cost, never its verdict.
     */
    std::vector<OriginSwap> swapHint;
};

/** How the miter advanced its two sides. */
enum class MiterSchedule
{
    Proportional, ///< by gate-count fraction (no usable origins)
    Provenance,   ///< by the output's origins
    Hint          ///< by origins, the reference following a SWAP hint
};

/** "proportional", "provenance" or "hint". */
const char *miterScheduleName(MiterSchedule schedule);

/** What one check did (EquivalenceChecker::lastStats). */
struct MiterStats
{
    MiterSchedule schedule = MiterSchedule::Proportional;
    /** SWAPs in the network that returns the reference's layout to
     *  the identity; 0 when the hint was exact or absent. */
    size_t closingSwaps = 0;
};

/** QMDD equivalence checker bound to a package. */
class EquivalenceChecker
{
  public:
    explicit EquivalenceChecker(Package &pkg) : pkg_(pkg) {}

    /**
     * Check that `b` (the output) implements `a` (the specification).
     * The narrower circuit is implicitly padded with identity wires up
     * to the wider register.
     */
    Equivalence check(const Circuit &a, const Circuit &b,
                      const EquivalenceOptions &opts = {});

    /** Figures of the last check() that reached the miter. */
    const MiterStats &lastStats() const { return stats_; }

  private:
    Equivalence compareEdges(const Edge &a, const Edge &b,
                             const EquivalenceOptions &opts);

    Package &pkg_;
    MiterStats stats_;
};

} // namespace qsyn::dd
