#include "check/oracles.hpp"

#include <cmath>
#include <numbers>
#include <sstream>

#include "analysis/rules.hpp"
#include "cache/cache.hpp"
#include "cache/serialize.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/report.hpp"
#include "obs/obs.hpp"
#include "sim/statevector.hpp"

namespace qsyn::check {

const char *
oracleName(OracleId id)
{
    switch (id) {
      case OracleId::QmddEquivalence: return "qmdd";
      case OracleId::Statevector: return "statevector";
      case OracleId::Legality: return "legality";
      case OracleId::CostSanity: return "cost";
      case OracleId::Determinism: return "determinism";
      case OracleId::CacheConsistency: return "cache";
      case OracleId::LintClean: return "lint";
      case OracleId::RouterDifferential: return "router";
    }
    return "?";
}

bool
OracleReport::allPassed() const
{
    for (const OracleOutcome &o : outcomes) {
        if (!o.passed && !o.skipped)
            return false;
    }
    return true;
}

const OracleOutcome *
OracleReport::firstFailure() const
{
    for (const OracleOutcome &o : outcomes) {
        if (!o.passed && !o.skipped)
            return &o;
    }
    return nullptr;
}

std::string
OracleReport::summary() const
{
    std::ostringstream os;
    for (const OracleOutcome &o : outcomes) {
        os << oracleName(o.id) << ": ";
        if (o.skipped)
            os << "skipped";
        else if (o.passed)
            os << "ok";
        else
            os << "FAIL";
        if (!o.details.empty())
            os << " (" << o.details << ")";
        os << "\n";
    }
    return os.str();
}

OracleOutcome
checkQmddEquivalence(const CompileResult &result, const Device &device,
                     const OracleOptions &opts)
{
    obs::Span span("check.qmdd", "check");
    OracleOutcome out;
    out.id = OracleId::QmddEquivalence;
    if (!result.input.isUnitary()) {
        out.skipped = true;
        out.details = "non-unitary input";
        return out;
    }
    Circuit reference = result.referenceOnDevice(device.numQubits());
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    dd::EquivalenceOptions eopts;
    eopts.ancillaWires = result.ancillas;
    eopts.nodeBudget = opts.qmddNodeBudget;
    eopts.swapHint = result.routeStats.swapLog;
    dd::Equivalence verdict =
        checker.check(reference, result.optimized, eopts);
    if (verdict == dd::Equivalence::Inconclusive) {
        out.skipped = true;
        out.details = "node budget exhausted";
        return out;
    }
    out.passed = dd::isEquivalent(verdict);
    if (!out.passed)
        out.details = std::string("verdict ") +
                      dd::equivalenceName(verdict);
    return out;
}

namespace {

/** Random product state on the non-ancilla wires: |0...0> prepared by
 *  one random SU(2)-ish rotation per free wire (ancillas stay |0>). */
Circuit
randomProductPrep(Rng &rng, Qubit num_qubits,
                  const std::vector<Qubit> &ancillas)
{
    std::vector<bool> is_ancilla(num_qubits, false);
    for (Qubit a : ancillas)
        is_ancilla[a] = true;
    Circuit prep(num_qubits, "prep");
    for (Qubit q = 0; q < num_qubits; ++q) {
        if (is_ancilla[q])
            continue;
        double theta = (rng.uniform() * 2 - 1) * std::numbers::pi;
        double phi = (rng.uniform() * 2 - 1) * std::numbers::pi;
        prep.add(Gate::ry(q, theta));
        prep.add(Gate::rz(q, phi));
    }
    return prep;
}

} // namespace

OracleOutcome
checkStatevector(const CompileResult &result, const Device &device,
                 const OracleOptions &opts)
{
    obs::Span span("check.statevector", "check");
    OracleOutcome out;
    out.id = OracleId::Statevector;
    Qubit n = device.numQubits();
    if (n > opts.statevectorMaxQubits) {
        out.skipped = true;
        out.details = "register wider than " +
                      std::to_string(opts.statevectorMaxQubits) +
                      " qubits";
        return out;
    }
    if (!result.input.isUnitary() || !result.optimized.isUnitary()) {
        out.skipped = true;
        out.details = "non-unitary circuit";
        return out;
    }
    Circuit reference = result.referenceOnDevice(n);
    Rng rng(opts.stimulusSeed);
    for (size_t s = 0; s < opts.statevectorSamples; ++s) {
        Circuit prep = randomProductPrep(rng, n, result.ancillas);
        sim::StateVector expect(n);
        expect.apply(prep);
        sim::StateVector actual = expect;
        expect.apply(reference);
        actual.apply(result.optimized);
        if (!expect.equalsUpToPhase(actual, 1e-7)) {
            out.passed = false;
            out.details = "state mismatch on stimulus " +
                          std::to_string(s) + " (fidelity " +
                          std::to_string(expect.fidelityWith(actual)) +
                          ")";
            return out;
        }
    }
    out.details = std::to_string(opts.statevectorSamples) +
                  " random product states agreed";
    return out;
}

OracleOutcome
checkLegality(const CompileResult &result, const Device &device)
{
    obs::Span span("check.legality", "check");
    OracleOutcome out;
    out.id = OracleId::Legality;
    for (size_t i = 0; i < result.optimized.size(); ++i) {
        const Gate &g = result.optimized[i];
        if (!device.supportsGate(g)) {
            out.passed = false;
            out.details = "gate " + std::to_string(i) + " (" +
                          g.toString() + ") is not native to " +
                          device.name();
            return out;
        }
    }
    return out;
}

OracleOutcome
checkCostSanity(const CompileResult &result,
                const CompileOptions &options)
{
    obs::Span span("check.cost", "check");
    OracleOutcome out;
    out.id = OracleId::CostSanity;
    opt::CostModel model(options.optimizer.weights);
    const double eps = 1e-9;

    auto mismatch = [&](const std::string &what) {
        out.passed = false;
        out.details = what;
        return out;
    };

    if (result.optimizedM.cost > result.unoptimized.cost + eps)
        return mismatch(
            "optimizer raised the cost: " +
            std::to_string(result.unoptimized.cost) + " -> " +
            std::to_string(result.optimizedM.cost));

    struct StagePair
    {
        const char *name;
        const Circuit *circuit;
        const StageMetrics *reported;
    };
    const StagePair stages[] = {
        {"tech-independent", &result.decomposed, &result.techIndependent},
        {"unoptimized", &result.mapped, &result.unoptimized},
        {"optimized", &result.optimized, &result.optimizedM},
    };
    for (const StagePair &stage : stages) {
        StageMetrics actual = measure(*stage.circuit, model);
        if (actual.gates != stage.reported->gates ||
            actual.tCount != stage.reported->tCount ||
            std::abs(actual.cost - stage.reported->cost) > eps)
            return mismatch(std::string(stage.name) +
                            " report disagrees with its circuit");
    }
    if (options.optimize) {
        if (std::abs(result.optReport.finalCost -
                     result.optimizedM.cost) > eps)
            return mismatch("optimizer finalCost disagrees with the "
                            "optimized circuit");
        if (result.optReport.finalGates != result.optimizedM.gates)
            return mismatch("optimizer finalGates disagrees with the "
                            "optimized circuit");
    }
    return out;
}

OracleOutcome
checkDeterminism(const Circuit &input, const Device &device,
                 const CompileOptions &options,
                 const OracleOptions &opts)
{
    obs::Span span("check.determinism", "check");
    OracleOutcome out;
    out.id = OracleId::Determinism;

    Compiler compiler(device, options);
    std::string baseline = compiler.toQasm(compiler.compile(input));
    for (size_t i = 0; i < opts.determinismRecompiles; ++i) {
        Compiler fresh(device, options);
        std::string again = fresh.toQasm(fresh.compile(input));
        if (again != baseline) {
            out.passed = false;
            out.details = "recompile " + std::to_string(i + 1) +
                          " produced different QASM bytes";
            return out;
        }
    }

    // Batch invariance: the same inputs through the worker pool must
    // emit the same bytes for every worker count — and for both the
    // shared-QMDD-manager mode (the default) and fully private
    // per-item packages.
    std::vector<Circuit> copies = {input, input, input};
    std::string batch_baseline;
    for (size_t jobs : opts.determinismJobs) {
        for (bool share : {true, false}) {
            BatchCompiler batch(device, options);
            batch.setShareManager(share);
            std::vector<BatchItem> items =
                batch.compileCircuits(copies, jobs);
            std::string mode = " (share-manager " +
                               std::string(share ? "on" : "off") + ")";
            std::ostringstream concat;
            bool failed = false;
            for (const BatchItem &item : items) {
                if (!item.ok) {
                    out.passed = false;
                    out.details = "batch item failed under --jobs " +
                                  std::to_string(jobs) + mode + ": " +
                                  item.error;
                    failed = true;
                    break;
                }
                concat << item.qasm;
            }
            if (failed)
                return out;
            if (batch_baseline.empty())
                batch_baseline = concat.str();
            else if (concat.str() != batch_baseline) {
                out.passed = false;
                out.details = "batch QASM differs under --jobs " +
                              std::to_string(jobs) + mode;
                return out;
            }
        }
    }
    return out;
}

OracleOutcome
checkCacheConsistency(const Circuit &input, const Device &device,
                      const CompileOptions &options)
{
    obs::Span span("check.cache", "check");
    OracleOutcome out;
    out.id = OracleId::CacheConsistency;

    cache::CacheConfig config; // memory tier only
    cache::CompileCache compile_cache(config);
    Compiler compiler(device, options);
    size_t computes = 0;
    auto compute = [&] {
        ++computes;
        CachedCompile artifact;
        artifact.result = compiler.compile(input);
        artifact.qasm = compiler.toQasm(artifact.result);
        return artifact;
    };

    auto first =
        compile_cache.getOrCompute(input, device, options, compute);
    auto second =
        compile_cache.getOrCompute(input, device, options, compute);
    if (computes != 1) {
        out.passed = false;
        out.details = "expected exactly one cold compile, saw " +
                      std::to_string(computes);
        return out;
    }
    if (second->qasm != first->qasm) {
        out.passed = false;
        out.details = "cache hit returned different QASM bytes";
        return out;
    }

    // The artifact codec must round-trip exactly, including timings:
    // a disk hit replays these bytes verbatim.
    CachedCompile decoded =
        cache::decodeCachedCompile(cache::encodeCachedCompile(*first));
    if (decoded.qasm != first->qasm) {
        out.passed = false;
        out.details = "codec round-trip changed the QASM bytes";
        return out;
    }
    if (compileReportJson(decoded.result, device) !=
        compileReportJson(first->result, device)) {
        out.passed = false;
        out.details = "codec round-trip changed the report JSON";
        return out;
    }

    // The cached artifact must match a cold recompile byte for byte —
    // wall-clock timings excluded, they are measurements of this run,
    // not cacheable content.
    Compiler cold_compiler(device, options);
    CompileResult cold = cold_compiler.compile(input);
    if (cold_compiler.toQasm(cold) != first->qasm) {
        out.passed = false;
        out.details = "cached QASM differs from a cold recompile";
        return out;
    }
    ReportOptions no_seconds;
    no_seconds.includeSeconds = false;
    if (compileReportJson(cold, device, no_seconds) !=
        compileReportJson(first->result, device, no_seconds)) {
        out.passed = false;
        out.details = "cached report JSON differs from a cold recompile";
        return out;
    }
    return out;
}

OracleOutcome
checkLintClean(const CompileResult &result, const Device &device,
               const CompileOptions &options)
{
    OracleOutcome out;
    out.id = OracleId::LintClean;
    analysis::LintOptions lopts;
    lopts.device = &device;
    lopts.onlyRules = {"QL001", "QL002", "QL006"};
    // A dead-gate-pair finding only indicts the pipeline when the
    // optimizer actually ran (shrunk reproducers may disable it).
    if (options.optimize)
        lopts.onlyRules.push_back("QL004");
    analysis::Diagnostics report =
        analysis::analyzeCircuit(result.optimized, "compiled", lopts);
    if (!report.findings.empty()) {
        out.passed = false;
        std::ostringstream os;
        os << report.findings.size() << " lint finding(s); first: "
           << findingToString(report, report.findings.front());
        out.details = os.str();
    }
    return out;
}

OracleOutcome
checkRouterDifferential(const CompileResult &result, const Device &device,
                        const CompileOptions &options,
                        const OracleOptions &opts)
{
    obs::Span span("check.router", "check");
    OracleOutcome out;
    out.id = OracleId::RouterDifferential;
    if (device.isFullyConnected()) {
        out.skipped = true;
        out.details = "fully connected target";
        return out;
    }
    if (!result.input.isUnitary()) {
        out.skipped = true;
        out.details = "non-unitary input";
        return out;
    }

    Circuit placed =
        result.decomposed.remapped(result.placement, device.numQubits());
    route::RouteOptions ropts = options.routing;
    ropts.router = route::RouterKind::Ctr;
    Circuit by_ctr = route::routeCircuit(placed, device, nullptr, ropts);
    ropts.router = route::RouterKind::Sabre;
    ropts.testOmitSwapBack = false; // the fault is a ctr-only knob
    Circuit by_sabre = route::routeCircuit(placed, device, nullptr, ropts);

    // Both strategies restore the identity layout, so the two routed
    // circuits must agree as full unitaries — no ancilla slack.
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    dd::EquivalenceOptions eopts;
    eopts.nodeBudget = opts.qmddNodeBudget;
    dd::Equivalence verdict = checker.check(by_ctr, by_sabre, eopts);
    if (verdict == dd::Equivalence::Inconclusive) {
        out.skipped = true;
        out.details = "node budget exhausted";
        return out;
    }
    out.passed = dd::isEquivalent(verdict);
    if (!out.passed) {
        std::ostringstream os;
        os << "ctr vs sabre verdict " << dd::equivalenceName(verdict)
           << " (ctr " << by_ctr.size() << "g, sabre "
           << by_sabre.size() << "g)";
        out.details = os.str();
    }
    return out;
}

OracleReport
runAllOracles(const Circuit &input, const Device &device,
              const CompileOptions &options, const OracleOptions &opts)
{
    obs::Span span("check.run_all", "check");
    // The oracle stack re-verifies on its own package; the compiler's
    // inline verification would only duplicate the work (and throw on
    // the very inequivalences the fuzzer wants to observe).
    CompileOptions copts = options;
    copts.verify = VerifyMode::Off;
    Compiler compiler(device, copts);
    CompileResult result = compiler.compile(input);

    OracleReport report;
    report.outcomes.push_back(checkQmddEquivalence(result, device, opts));
    report.outcomes.push_back(checkStatevector(result, device, opts));
    report.outcomes.push_back(checkLegality(result, device));
    report.outcomes.push_back(checkCostSanity(result, copts));
    report.outcomes.push_back(checkLintClean(result, device, copts));
    if (opts.runRouterDifferential)
        report.outcomes.push_back(
            checkRouterDifferential(result, device, copts, opts));
    if (opts.runDeterminism)
        report.outcomes.push_back(
            checkDeterminism(input, device, copts, opts));
    if (opts.runCache)
        report.outcomes.push_back(
            checkCacheConsistency(input, device, copts));
    return report;
}

CaseOutcome
runCase(const Circuit &input, const Device &device,
        const CompileOptions &options, const OracleOptions &opts)
{
    CaseOutcome outcome;
    try {
        outcome.report = runAllOracles(input, device, options, opts);
        outcome.status = outcome.report.allPassed()
                             ? CaseStatus::Ok
                             : CaseStatus::OracleFailed;
    } catch (const UserError &e) {
        outcome.status = CaseStatus::Rejected;
        outcome.error = e.what();
    } catch (const Error &e) {
        outcome.status = CaseStatus::CompileError;
        outcome.error = e.what();
    }
    return outcome;
}

} // namespace qsyn::check
