/**
 * @file
 * QMDD-based formal equivalence checking (the paper's built-in
 * verification step): the technology-independent input circuit and the
 * technology-dependent compiled output must represent the same unitary,
 * which for canonical QMDDs means they share the same root edge.
 *
 * Extensions beyond the paper's direct comparison:
 *  - ancilla-aware checking: the mapped circuit may use extra device
 *    wires as clean ancillas; we verify U_mapped . P == (U_orig x I) . P
 *    where P projects those wires onto |0> ("acts identically whenever
 *    ancillas start clean, and returns them clean");
 *  - projected construction for scalability: when ancillas are present
 *    the projector is applied *first* and gates accumulate onto it, so
 *    intermediate DDs stay close to the reachable subspace;
 *  - an alternating-miter mode that accumulates U_b . U_a^dagger
 *    gate-by-gate, keeping the intermediate DD near the identity;
 *  - a node budget that yields Inconclusive instead of thrashing.
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
    /** Use the alternating-miter scheme (no-ancilla case only; see
     *  runsMiter). */
    bool useMiter = false;
    /** Tolerance for the EquivalentApprox fallback verdict. */
    double approxEps = 1e-6;
    /**
     * Before the full matrix comparison, push this many random basis
     * states (ancilla wires held at |0>) through both circuits with
     * the vector engine and refute on the first mismatch. A cheap
     * counterexample short-circuits the expensive canonical build;
     * agreement proves nothing and the full check still runs.
     */
    size_t quickRefuteSamples = 0;
};

/** True when EquivalenceChecker::check runs the alternating miter:
 *  it was requested and there are no ancilla wires, which the miter
 *  cannot project onto |0>. Otherwise the full check runs. */
bool runsMiter(const EquivalenceOptions &opts);

/** QMDD equivalence checker bound to a package. */
class EquivalenceChecker
{
  public:
    explicit EquivalenceChecker(Package &pkg) : pkg_(pkg) {}

    /**
     * Compare two unitary circuits. The narrower circuit is implicitly
     * padded with identity wires up to the wider register.
     */
    Equivalence check(const Circuit &a, const Circuit &b,
                      const EquivalenceOptions &opts = {});

  private:
    /** Left-multiply every gate of `circuit` onto `start`. Returns
     *  false (leaving *out untouched) when the budget is exceeded. */
    bool buildOnto(const Circuit &circuit, Edge start, size_t budget,
                   Edge *out, const std::vector<Edge> &extra_roots);

    Equivalence compareEdges(const Edge &a, const Edge &b,
                             const EquivalenceOptions &opts);

    Equivalence checkMiter(const Circuit &a, const Circuit &b,
                           const EquivalenceOptions &opts);

    Package &pkg_;
};

} // namespace qsyn::dd
