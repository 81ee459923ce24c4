#include "check/shrink.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "obs/obs.hpp"

namespace qsyn::check {

namespace {

/** Circuit with the gates at [start, start+len) removed. */
Circuit
withoutRange(const Circuit &c, size_t start, size_t len)
{
    Circuit out(c.numQubits(), c.name());
    for (size_t i = 0; i < c.size(); ++i) {
        if (i < start || i >= start + len)
            out.add(c[i]);
    }
    return out;
}

/** Compact the register to the wires the circuit actually touches.
 *  Returns the unchanged circuit when every wire is used. */
Circuit
compactWires(const Circuit &c, Qubit *removed)
{
    std::vector<bool> used(c.numQubits(), false);
    for (const Gate &g : c) {
        for (Qubit q : g.qubits())
            used[q] = true;
    }
    std::vector<Qubit> remap(c.numQubits(), 0);
    Qubit next = 0;
    for (Qubit q = 0; q < c.numQubits(); ++q) {
        if (used[q])
            remap[q] = next++;
    }
    if (removed)
        *removed = static_cast<Qubit>(c.numQubits() - next);
    if (next == c.numQubits() || next == 0)
        return c;
    return c.remapped(remap, next);
}

/** One named flag reset the shrinker may try. `applies` gates the
 *  attempt on the flag still being non-default, so a reset is tried at
 *  most once per fixpoint round. */
struct FlagReset
{
    const char *name;
    bool (*applies)(const CompileOptions &);
    void (*apply)(CompileOptions &);
};

const FlagReset kFlagResets[] = {
    {"router",
     [](const CompileOptions &o) {
         return o.routing.router != route::RouterKind::Ctr;
     },
     [](CompileOptions &o) { o.routing.router = route::RouterKind::Ctr; }},
    {"fidelity-aware",
     [](const CompileOptions &o) { return o.routing.fidelityAware; },
     [](CompileOptions &o) { o.routing.fidelityAware = false; }},
    {"test-omit-swap-back",
     [](const CompileOptions &o) { return o.routing.testOmitSwapBack; },
     [](CompileOptions &o) { o.routing.testOmitSwapBack = false; }},
    {"placement",
     [](const CompileOptions &o) {
         return o.placement != route::PlacementStrategy::Identity;
     },
     [](CompileOptions &o) {
         o.placement = route::PlacementStrategy::Identity;
     }},
    {"mcx-strategy",
     [](const CompileOptions &o) {
         return o.mcxStrategy != decompose::McxStrategy::Auto;
     },
     [](CompileOptions &o) {
         o.mcxStrategy = decompose::McxStrategy::Auto;
     }},
    {"phase-poly",
     [](const CompileOptions &o) {
         return o.optimizer.enablePhasePolynomial;
     },
     [](CompileOptions &o) {
         o.optimizer.enablePhasePolynomial = false;
     }},
    {"ti-optimize",
     [](const CompileOptions &o) { return o.optimizeTechIndependent; },
     [](CompileOptions &o) { o.optimizeTechIndependent = false; }},
    {"optimize", [](const CompileOptions &o) { return o.optimize; },
     [](CompileOptions &o) { o.optimize = false; }},
};

} // namespace

ShrinkResult
shrinkFailure(const Circuit &input, const CompileOptions &options,
              const StillFails &still_fails, size_t max_evaluations)
{
    obs::Span span("check.shrink", "check");
    ShrinkResult res;
    res.circuit = input;
    res.options = options;

    auto fails = [&](const Circuit &c, const CompileOptions &o) {
        if (res.evaluations >= max_evaluations)
            return false; // budget out: stop accepting reductions
        ++res.evaluations;
        return still_fails(c, o);
    };

    bool progress = true;
    while (progress && res.evaluations < max_evaluations) {
        progress = false;

        // 1. Gates: ddmin-style chunk removal, halving granularity.
        size_t chunk = std::max<size_t>(res.circuit.size() / 2, 1);
        while (chunk >= 1 && res.circuit.size() > 0) {
            bool removed_any = false;
            size_t start = 0;
            while (start < res.circuit.size()) {
                size_t len =
                    std::min(chunk, res.circuit.size() - start);
                Circuit candidate =
                    withoutRange(res.circuit, start, len);
                if (fails(candidate, res.options)) {
                    res.gatesRemoved += len;
                    res.circuit = std::move(candidate);
                    removed_any = true;
                    progress = true;
                    // same start now addresses the next chunk
                } else {
                    start += len;
                }
            }
            if (chunk == 1 && !removed_any)
                break;
            if (!removed_any)
                chunk /= 2;
        }

        // 2. Qubits: drop wires no remaining gate touches.
        Qubit dropped = 0;
        Circuit compacted = compactWires(res.circuit, &dropped);
        if (dropped > 0 && fails(compacted, res.options)) {
            res.circuit = std::move(compacted);
            res.qubitsRemoved =
                static_cast<Qubit>(res.qubitsRemoved + dropped);
            progress = true;
        }

        // 3. Flags: reset every option whose removal keeps it failing.
        for (const FlagReset &reset : kFlagResets) {
            if (!reset.applies(res.options))
                continue;
            CompileOptions candidate = res.options;
            reset.apply(candidate);
            if (fails(res.circuit, candidate)) {
                res.options = candidate;
                ++res.flagsReset;
                progress = true;
            }
        }
    }
    span.arg("evaluations", res.evaluations);
    span.arg("final_gates", res.circuit.size());
    return res;
}

ShrinkResult
shrinkCase(const Circuit &input, const Device &device,
           const CompileOptions &options,
           const OracleOptions &oracle_opts, size_t max_evaluations)
{
    return shrinkFailure(
        input, options,
        [&](const Circuit &c, const CompileOptions &o) {
            return runCase(c, device, o, oracle_opts).failed();
        },
        max_evaluations);
}

namespace {

/** True when `b` provably differs from `a` under the budget; an
 *  inconclusive verdict counts as "not broken" (cannot blame). */
bool
provablyBroken(const Circuit &a, const Circuit &b,
               const std::vector<Qubit> &ancillas, size_t budget)
{
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    dd::EquivalenceOptions eopts;
    eopts.ancillaWires = ancillas;
    eopts.nodeBudget = budget;
    dd::Equivalence v = checker.check(a, b, eopts);
    return v == dd::Equivalence::NotEquivalent;
}

/** Name the first optimizer pass snapshot that broke equivalence. */
std::string
blameOptimizerPass(const Circuit &before_opt,
                   const opt::OptimizerOptions &oopts, size_t budget)
{
    opt::OptimizerOptions capture = oopts;
    capture.capturePassCircuits = true;
    opt::OptimizeReport report;
    opt::optimizeCircuit(before_opt, capture, &report);
    for (const opt::PassSnapshot &snap : report.snapshots) {
        if (provablyBroken(snap.before, snap.after, {}, budget))
            return snap.pass;
    }
    return "";
}

} // namespace

std::string
blameFirstBrokenStage(const Circuit &input, const Device &device,
                      const CompileOptions &options, size_t node_budget)
{
    obs::Span span("check.blame", "check");
    CompileOptions copts = options;
    copts.verify = VerifyMode::Off;
    Compiler compiler(device, copts);
    CompileResult result = compiler.compile(input);

    // Decompose (+ technology-independent optimization): the lowered
    // circuit may have grown clean ancillas past the input register.
    {
        std::vector<Qubit> grown;
        for (Qubit q = input.numQubits();
             q < result.decomposed.numQubits(); ++q)
            grown.push_back(q);
        if (provablyBroken(input, result.decomposed, grown,
                           node_budget)) {
            // Distinguish raw lowering from the TI optimizer rerun.
            decompose::DecomposeOptions dopts;
            dopts.mcxStrategy = copts.mcxStrategy;
            dopts.lowerToffoli = true;
            dopts.maxQubits = device.numQubits();
            Circuit lowered =
                decompose::decomposeToPrimitives(input, dopts).circuit;
            std::vector<Qubit> raw_grown;
            for (Qubit q = input.numQubits(); q < lowered.numQubits();
                 ++q)
                raw_grown.push_back(q);
            if (provablyBroken(input, lowered, raw_grown, node_budget))
                return "decompose";
            if (copts.optimize && copts.optimizeTechIndependent) {
                opt::OptimizerOptions ti = copts.optimizer;
                ti.device = nullptr;
                std::string pass =
                    blameOptimizerPass(lowered, ti, node_budget);
                if (!pass.empty())
                    return "ti-optimize:" + pass;
            }
            return "decompose";
        }
    }

    // Route: the mapped circuit against the placed lowered circuit.
    Circuit placed =
        result.decomposed.remapped(result.placement, device.numQubits());
    if (provablyBroken(placed, result.mapped, result.ancillas,
                       node_budget))
        return "route";

    // Optimize: per-pass snapshots on the device-constrained rerun.
    if (copts.optimize &&
        provablyBroken(result.mapped, result.optimized, result.ancillas,
                       node_budget)) {
        opt::OptimizerOptions oopts = copts.optimizer;
        oopts.device = &device;
        std::string pass =
            blameOptimizerPass(result.mapped, oopts, node_budget);
        return pass.empty() ? "optimize" : "optimize:" + pass;
    }
    return "none";
}

} // namespace qsyn::check
