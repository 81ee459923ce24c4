#include "decompose/pass.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "decompose/controlled.hpp"
#include "decompose/toffoli.hpp"

namespace qsyn::decompose {

namespace {

/** Gates the stage-1 sweep accepts as final. */
bool
isStage1Primitive(const Gate &g)
{
    if (g.kind() == GateKind::Measure || g.kind() == GateKind::Barrier)
        return true;
    if (g.kind() == GateKind::Swap)
        return false;
    if (g.kind() == GateKind::X)
        return g.numControls() <= 2;
    return g.numControls() == 0;
}

/** Tracks the input register and the clean ancillas grown beyond it. */
class AncillaAllocator
{
  public:
    AncillaAllocator(Qubit data_qubits, const DecomposeOptions &options)
        : data_qubits_(data_qubits), options_(options)
    {
    }

    const std::vector<Qubit> &ancillas() const { return ancillas_; }

    /**
     * Ancilla pool for a gate on `used` wires: clean = allocated
     * ancillas off the gate (growing the register by up to `want_clean`
     * wires when permitted), dirty = idle data wires.
     */
    AncillaPool
    poolFor(Circuit &circuit, const std::vector<Qubit> &used,
            size_t want_clean)
    {
        AncillaPool pool;
        auto in_use = [&](Qubit q) {
            return std::find(used.begin(), used.end(), q) != used.end();
        };
        for (Qubit q : ancillas_) {
            if (!in_use(q))
                pool.clean.push_back(q);
        }
        while (pool.clean.size() < want_clean && canGrow(circuit)) {
            Qubit fresh = circuit.numQubits();
            circuit.resize(fresh + 1);
            ancillas_.push_back(fresh);
            pool.clean.push_back(fresh);
        }
        for (Qubit q = 0; q < data_qubits_; ++q) {
            if (!in_use(q))
                pool.dirty.push_back(q);
        }
        return pool;
    }

  private:
    bool
    canGrow(const Circuit &circuit) const
    {
        if (!options_.allowAncillaAllocation)
            return false;
        return options_.maxQubits == 0 ||
               circuit.numQubits() < options_.maxQubits;
    }

    Qubit data_qubits_;
    const DecomposeOptions &options_;
    std::vector<Qubit> ancillas_;
};

} // namespace

DecomposeResult
decomposeToPrimitives(const Circuit &input, const DecomposeOptions &options)
{
    QSYN_ASSERT(options.maxQubits == 0 ||
                    options.maxQubits >= input.numQubits(),
                "qubit cap smaller than the input register");

    AncillaAllocator allocator(input.numQubits(), options);
    // Every output gate carries the index of the input gate it lowers.
    Circuit current(input.numQubits(), input.name());
    for (size_t i = 0; i < input.size(); ++i) {
        current.add(input[i]);
        current.setOrigins(i, static_cast<Origin>(i));
    }

    // Stage 1: iterate one-level lowerings to a fixed point. Every
    // rewrite strictly reduces control counts / exotic kinds, so the
    // sweep count is bounded; the guard is belt-and-braces.
    for (int sweep = 0; sweep < 64; ++sweep) {
        bool all_primitive = std::all_of(
            current.begin(), current.end(), isStage1Primitive);
        if (all_primitive)
            break;
        QSYN_ASSERT(sweep < 63, "decomposition failed to converge");

        Circuit next(current.numQubits(), current.name());
        for (const Gate &g : current) {
            if (isStage1Primitive(g)) {
                next.add(g);
                continue;
            }
            const size_t first = next.size();
            if (g.kind() == GateKind::Swap) {
                Qubit a = g.targets()[0];
                Qubit b = g.targets()[1];
                if (g.numControls() == 0) {
                    next.addCnot(a, b);
                    next.addCnot(b, a);
                    next.addCnot(a, b);
                } else {
                    // Fredkin: CNOT(b,a) MCX(C+{a} -> b) CNOT(b,a).
                    next.addCnot(b, a);
                    std::vector<Qubit> cs = g.controls();
                    cs.push_back(a);
                    next.add(Gate::mcx(cs, b));
                    next.addCnot(b, a);
                }
                next.setOrigins(first, g.origin());
                continue;
            }
            if (g.kind() == GateKind::X) {
                // Generalized Toffoli.
                bool wants_clean =
                    options.mcxStrategy == McxStrategy::Auto ||
                    options.mcxStrategy == McxStrategy::CleanVChain;
                size_t want_clean =
                    wants_clean ? g.numControls() - 2 : 0;
                AncillaPool pool =
                    allocator.poolFor(next, g.qubits(), want_clean);
                appendMcx(next, g.controls(), g.target(), pool,
                          options.mcxStrategy);
                next.setOrigins(first, g.origin());
                continue;
            }
            appendControlledUnitary(next, g);
            next.setOrigins(first, g.origin());
        }
        current = std::move(next);
    }

    // Stage 2: Toffolis to the 15-gate Clifford+T network.
    if (options.lowerToffoli) {
        Circuit lowered(current.numQubits(), current.name());
        for (const Gate &g : current) {
            if (g.isToffoli()) {
                const size_t first = lowered.size();
                appendToffoli(lowered, g.controls()[0], g.controls()[1],
                              g.target());
                lowered.setOrigins(first, g.origin());
            } else {
                lowered.add(g);
            }
        }
        current = std::move(lowered);
    }

    DecomposeResult result{std::move(current), allocator.ancillas()};
    return result;
}

} // namespace qsyn::decompose
