#include "core/report.hpp"

#include <sstream>

#include "device/fidelity.hpp"
#include "obs/obs.hpp"

namespace qsyn {

namespace {

/** Shorthand: report strings go through the shared escaper so device
 *  names and file paths with quotes/backslashes stay valid JSON. */
std::string
esc(const std::string &s)
{
    return obs::jsonEscape(s);
}

void
emitMetrics(std::ostringstream &os, const char *key,
            const StageMetrics &m)
{
    os << "\"" << key << "\": {\"t_count\": " << m.tCount
       << ", \"gates\": " << m.gates << ", \"cost\": " << m.cost
       << ", \"depth\": " << m.depth << "}";
}

} // namespace

std::string
compileReportJson(const CompileResult &result, const Device &device,
                  const ReportOptions &options)
{
    std::ostringstream os;
    os.precision(12);
    os << "{\n";
    os << "  \"circuit\": \"" << esc(result.input.name()) << "\",\n";
    os << "  \"device\": \"" << esc(device.name()) << "\",\n";
    os << "  \"device_qubits\": " << device.numQubits() << ",\n";
    os << "  \"coupling_complexity\": " << device.couplingComplexity()
       << ",\n";
    os << "  ";
    emitMetrics(os, "tech_independent", result.techIndependent);
    os << ",\n  ";
    emitMetrics(os, "unoptimized", result.unoptimized);
    os << ",\n  ";
    emitMetrics(os, "optimized", result.optimizedM);
    os << ",\n";
    os << "  \"percent_cost_decrease\": "
       << result.percentCostDecrease() << ",\n";
    os << "  \"routing\": {\"native\": " << result.routeStats.nativeCnots
       << ", \"reversed\": " << result.routeStats.reversedCnots
       << ", \"rerouted\": " << result.routeStats.reroutedCnots
       << ", \"swaps\": " << result.routeStats.swapsInserted
       << ", \"h_inserted\": " << result.routeStats.hInserted << "},\n";
    os << "  \"optimizer_passes\": [";
    for (size_t i = 0; i < result.optReport.passes.size(); ++i) {
        const opt::PassReport &p = result.optReport.passes[i];
        os << (i ? ", " : "") << "\n    {\"name\": \"" << esc(p.name)
           << "\", \"invocations\": " << p.invocations
           << ", \"changed_rounds\": " << p.changedRounds
           << ", \"gates_removed\": " << p.gatesRemoved
           << ", \"cost_delta\": " << p.costDelta << "}";
    }
    os << (result.optReport.passes.empty() ? "" : "\n  ") << "],\n";
    os << "  \"ancillas\": [";
    for (size_t i = 0; i < result.ancillas.size(); ++i)
        os << (i ? ", " : "") << result.ancillas[i];
    os << "],\n";
    if (device.calibration() != nullptr) {
        os << "  \"success_probability\": "
           << successProbability(result.optimized, device) << ",\n";
    }
    os << "  \"verification\": \""
       << (result.verifyRan() ? dd::equivalenceName(result.verification)
                              : "skipped")
       << "\",\n  \"verify_mode\": \"" << verifyModeName(result.verifyMode)
       << "\"";
    if (result.verifyRan()) {
        // Peak nodes and GC runs are in the "qmdd" block: against a
        // shared package they are not a function of this compile.
        os << ",\n  \"miter\": {\"schedule\": \""
           << dd::miterScheduleName(result.miter.schedule)
           << "\", \"closing_swaps\": " << result.miter.closingSwaps
           << "}";
    }
    if (options.analysis != nullptr) {
        const analysis::Diagnostics &a = *options.analysis;
        const analysis::DagMetrics &m = a.metrics;
        os << ",\n  \"analysis\": {\"dag\": {\"gates\": " << m.gates
           << ", \"edges\": " << m.edges << ", \"depth\": " << m.depth
           << ", \"critical_gates\": " << m.criticalGates
           << ", \"max_layer_width\": " << m.maxLayerWidth
           << ", \"parallelism\": " << m.parallelism << "}, "
           << "\"findings\": [";
        for (size_t i = 0; i < a.findings.size(); ++i) {
            const analysis::Finding &f = a.findings[i];
            os << (i ? ", " : "") << "{\"rule\": \"" << esc(f.ruleId)
               << "\", \"severity\": \""
               << analysis::severityName(f.severity)
               << "\", \"message\": \"" << esc(f.message) << "\"";
            if (f.gateIndex != analysis::kNoGate)
                os << ", \"gate\": " << f.gateIndex;
            os << "}";
        }
        os << "], \"errors\": "
           << a.countAtLeast(analysis::Severity::Error)
           << ", \"warnings\": "
           << (a.countAtLeast(analysis::Severity::Warning) -
               a.countAtLeast(analysis::Severity::Error))
           << "}";
    }
    if (options.includeQmddStats) {
        os << ",\n  \"qmdd\": {\"live_nodes\": " << result.ddLiveNodes
           << ", \"peak_nodes\": " << result.ddStats.peakNodes
           << ", \"unique_lookups\": " << result.ddStats.uniqueLookups
           << ", \"unique_hits\": " << result.ddStats.uniqueHits
           << ", \"unique_hit_rate\": " << result.ddStats.uniqueHitRate()
           << ", \"compute_lookups\": " << result.ddStats.computeLookups
           << ", \"compute_hits\": " << result.ddStats.computeHits
           << ", \"compute_hit_rate\": "
           << result.ddStats.computeHitRate()
           << ", \"gc_runs\": " << result.ddStats.gcRuns << "}";
    }
    if (options.includeSeconds) {
        os << ",\n  \"seconds\": {\"decompose\": "
           << result.decomposeSeconds
           << ", \"place\": " << result.placeSeconds
           << ", \"route\": " << result.routeSeconds
           << ", \"optimize\": " << result.optimizeSeconds
           << ", \"verify\": " << result.verifySeconds
           << ", \"total\": " << result.totalSeconds << "}";
        // Per-compile resource accounting (obs::ResourceUsage). Gated
        // with the timings: both are run-dependent, and golden-output
        // tests rely on reports without them being reproducible.
        const obs::ResourceUsage &r = result.resources;
        os << ",\n  \"resources\": {\"wall_seconds\": " << r.wallSeconds
           << ", \"user_cpu_seconds\": " << r.userCpuSeconds
           << ", \"sys_cpu_seconds\": " << r.sysCpuSeconds
           << ", \"peak_rss_delta_kb\": " << r.peakRssDeltaKb
           << ", \"peak_rss_kb\": " << r.peakRssKb
           << ", \"qmdd_peak_nodes\": " << r.qmddPeakNodes
           << ", \"qmdd_arena_bytes\": " << r.qmddArenaBytes
           << ", \"valid\": " << (r.valid ? "true" : "false") << "}";
    }
    os << "\n}\n";
    return os.str();
}

} // namespace qsyn
