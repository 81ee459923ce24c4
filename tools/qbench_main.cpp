/**
 * @file
 * qbench: the benchmark regression harness. Runs a small canonical
 * suite over the performance-critical paths (QMDD construction,
 * equivalence checking, unique-table growth, compute-cache pressure,
 * end-to-end compilation with and without tracing, observability
 * overhead per span/counter, QASM parsing, the optimizer pipeline,
 * statevector simulation, routing, and parallel batch compilation)
 * and emits a machine-readable JSON report — by convention committed
 * as BENCH_qsyn.json at the repo root — so perf regressions show up
 * as diffs rather than anecdotes.
 *
 * Self-timed (median wall time over --reps runs) on purpose: no
 * google-benchmark dependency, so it builds in every configuration and
 * its output schema is fully under our control.
 *
 * usage: qbench [--smoke] [--reps N] [--out FILE]
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/dag.hpp"
#include "analysis/rules.hpp"
#include "cache/cache.hpp"
#include "cli/options.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/qsyn.hpp"
#include "device/registry.hpp"
#include "ir/random_circuit.hpp"
#include "obs/obs.hpp"
#include "route/placement.hpp"
#include "route/router.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

using namespace qsyn;

namespace {

/** One benchmark's result row. Extra metrics are name/value pairs so
 *  each benchmark can report what matters for it (peak nodes, hit
 *  rates, speedups) without a rigid schema. */
struct BenchResult
{
    std::string name;
    double medianMs = 0.0;
    double minMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    size_t reps = 0;
    std::vector<std::pair<std::string, double>> metrics;
};

Circuit
makeRandom(int qubits, int gates, std::uint64_t seed = 7,
           size_t max_controls = 2)
{
    Rng rng(seed);
    RandomCircuitOptions opts;
    opts.numQubits = static_cast<Qubit>(qubits);
    opts.numGates = static_cast<size_t>(gates);
    opts.maxControls = max_controls;
    return randomCircuit(rng, opts);
}

/** Keep `value` (and the work producing it) alive across the
 *  optimizer without emitting any instruction. */
template <typename T>
void
doNotOptimize(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/** Quantile with linear interpolation between order statistics
 *  (type-7 / numpy default). `xs` must be sorted and non-empty. */
double
quantileSorted(const std::vector<double> &xs, double q)
{
    if (xs.size() == 1)
        return xs[0];
    double pos = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    if (lo >= xs.size() - 1)
        return xs.back();
    double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[lo + 1] - xs[lo]) * frac;
}

/** Time `fn` (which returns the metric list of its last run) `reps`
 *  times and collect median/min wall milliseconds. */
template <typename Fn>
BenchResult
timeIt(const std::string &name, size_t reps, Fn fn)
{
    BenchResult res;
    res.name = name;
    res.reps = reps;
    std::vector<double> ms;
    ms.reserve(reps);
    for (size_t r = 0; r < reps; ++r) {
        Stopwatch sw;
        res.metrics = fn();
        ms.push_back(sw.seconds() * 1e3);
    }
    res.medianMs = median(ms);
    res.minMs = *std::min_element(ms.begin(), ms.end());
    std::sort(ms.begin(), ms.end());
    res.p50Ms = quantileSorted(ms, 0.50);
    res.p95Ms = quantileSorted(ms, 0.95);
    res.p99Ms = quantileSorted(ms, 0.99);
    return res;
}

std::vector<std::pair<std::string, double>>
ddMetrics(const dd::Package &pkg)
{
    const dd::PackageStats &s = pkg.stats();
    return {
        {"peak_nodes", static_cast<double>(s.peakNodes)},
        {"unique_hit_rate", s.uniqueHitRate()},
        {"compute_hit_rate", s.computeHitRate()},
        {"unique_rehashes", static_cast<double>(s.uniqueRehashes)},
    };
}

std::string
jsonEscapeNumber(double v)
{
    // JSON has no NaN/Inf; clamp them to 0 (can only arise from
    // degenerate hit rates on empty runs).
    if (!(v == v) || v > 1e308 || v < -1e308)
        return "0";
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
}

std::string
toJson(const std::vector<BenchResult> &results)
{
    std::ostringstream os;
    os << "{\n  \"benchmarks\": {\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        os << "    \"" << r.name << "\": {\n"
           << "      \"median_ms\": " << jsonEscapeNumber(r.medianMs)
           << ",\n"
           << "      \"min_ms\": " << jsonEscapeNumber(r.minMs) << ",\n"
           << "      \"p50_ms\": " << jsonEscapeNumber(r.p50Ms) << ",\n"
           << "      \"p95_ms\": " << jsonEscapeNumber(r.p95Ms) << ",\n"
           << "      \"p99_ms\": " << jsonEscapeNumber(r.p99Ms) << ",\n"
           << "      \"reps\": " << r.reps;
        for (const auto &m : r.metrics)
            os << ",\n      \"" << m.first
               << "\": " << jsonEscapeNumber(m.second);
        os << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    size_t reps = 7;
    bool smoke = false;
    std::string out_path;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw UserError("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--reps") {
                reps = cli::parseCountValue(arg, next());
                if (reps == 0)
                    throw UserError("--reps must be >= 1");
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "-h" || arg == "--help") {
                std::cout
                    << "qbench - canonical performance suite\n\n"
                       "usage: qbench [--smoke] [--reps N] [--out F]\n\n"
                       "  --smoke    single rep, reduced sizes (CI "
                       "smoke label)\n"
                       "  --reps N   repetitions per benchmark "
                       "(default 7); the\n"
                       "             JSON records median and "
                       "p50/p95/p99\n"
                       "  --out F    write JSON here (default "
                       "stdout)\n";
                return 0;
            } else {
                throw UserError("unknown option '" + arg + "'");
            }
        }
    } catch (const UserError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    if (smoke)
        reps = 1;
    const int top_qubits = smoke ? 6 : 8;

    std::vector<BenchResult> results;
    auto note = [&](const BenchResult &r) {
        std::cerr << r.name << ": " << r.medianMs << " ms median ("
                  << r.reps << " reps)\n";
        results.push_back(r);
    };

    // --- QMDD circuit construction ---
    for (int q = 4; q <= top_qubits; q += 2) {
        Circuit c = makeRandom(q, 120);
        note(timeIt("qmdd_build_" + std::to_string(q), reps, [&]() {
            dd::Package pkg;
            pkg.buildCircuit(c);
            return ddMetrics(pkg);
        }));
    }

    // --- QMDD equivalence checking ---
    {
        Circuit a = makeRandom(6, 60, 1);
        Circuit b = a;
        b.addH(0);
        b.addH(0);
        note(timeIt("equivalence_check_6", reps, [&]() {
            dd::Package pkg;
            dd::EquivalenceChecker checker(pkg);
            dd::Equivalence v = checker.check(a, b);
            auto metrics = ddMetrics(pkg);
            metrics.emplace_back("equivalent",
                                 dd::isEquivalent(v) ? 1.0 : 0.0);
            return metrics;
        }));
    }

    // --- Unique-table growth under pressure ---
    {
        Circuit c = makeRandom(top_qubits, 200, 11, 3);
        note(timeIt("unique_table_stress", reps, [&]() {
            dd::PackageConfig cfg;
            cfg.initialUniqueCapacity = 256;
            dd::Package pkg(cfg);
            pkg.buildCircuit(c);
            auto metrics = ddMetrics(pkg);
            metrics.emplace_back(
                "final_capacity",
                static_cast<double>(pkg.uniqueCapacity()));
            return metrics;
        }));
    }

    // --- Compute-cache pressure with small 2-way caches ---
    {
        Circuit c = makeRandom(top_qubits, 160, 13, 2);
        note(timeIt("compute_cache_stress", reps, [&]() {
            dd::PackageConfig cfg;
            cfg.mulCacheSets = 256;
            cfg.addCacheSets = 256;
            cfg.ctCacheSets = 64;
            dd::Package pkg(cfg);
            pkg.buildCircuit(c);
            auto metrics = ddMetrics(pkg);
            metrics.emplace_back(
                "evictions",
                static_cast<double>(pkg.stats().mulEvictions +
                                    pkg.stats().addEvictions +
                                    pkg.stats().ctEvictions));
            return metrics;
        }));
    }

    // --- End-to-end compilation (decompose/place/route/opt/verify) ---
    {
        Device dev = makeIbmqx5();
        Circuit c(5, "ccx_chain");
        c.addCcx(0, 1, 2);
        c.addCcx(2, 3, 4);
        c.addCcx(0, 2, 4);
        BenchResult plain = timeIt("end_to_end_compile", reps, [&]() {
            Compiler compiler(dev);
            CompileResult r = compiler.compile(c);
            analysis::DagMetrics dm = analysis::computeDagMetrics(
                analysis::DependencyDag(r.optimized));
            return std::vector<std::pair<std::string, double>>{
                {"gates_out",
                 static_cast<double>(r.optimizedM.gates)},
                {"depth", static_cast<double>(dm.depth)},
                {"critical_gates",
                 static_cast<double>(dm.criticalGates)},
                {"verified",
                 r.verifyRan() && dd::isEquivalent(r.verification) ? 1.0
                                                                 : 0.0},
            };
        });
        note(plain);

        // The same compile with a trace sink installed: the gap is the
        // total observability cost when tracing is on.
        BenchResult traced =
            timeIt("end_to_end_compile_traced", reps, [&]() {
                obs::ScopedSink sink;
                Compiler compiler(dev);
                compiler.compile(c);
                return std::vector<std::pair<std::string, double>>{
                    {"trace_events",
                     static_cast<double>(sink->events().size())},
                };
            });
        traced.metrics.emplace_back(
            "overhead_pct",
            plain.medianMs > 0.0 ? 100.0 *
                                       (traced.medianMs - plain.medianMs) /
                                       plain.medianMs
                                 : 0.0);
        note(traced);
    }

    // --- One span / one counter bump, sink off vs on: the off rows
    // pin the "one relaxed load and a branch" guarantee ---
    {
        const size_t ops = smoke ? 100000 : 1000000;
        auto per_op = [&](const std::string &name, bool sink_on,
                          auto &&op) {
            BenchResult r = timeIt(name, reps, [&]() {
                std::optional<obs::ScopedSink> sink;
                if (sink_on)
                    sink.emplace();
                for (size_t i = 0; i < ops; ++i) {
                    op();
                    // Bound the event buffer without paying a clear
                    // per span.
                    if (sink && i % 1024 == 1023)
                        (*sink)->clearEvents();
                }
                return std::vector<std::pair<std::string, double>>{};
            });
            r.metrics = {
                {"ops", static_cast<double>(ops)},
                {"ns_per_op",
                 r.medianMs * 1e6 / static_cast<double>(ops)},
            };
            note(r);
        };
        auto span_op = [] {
            obs::Span span("bench.noop", "bench");
            doNotOptimize(&span);
        };
        auto counter_op = [] {
            if (obs::Sink *s = obs::sink())
                s->metrics().addCounter("bench.counter", 1.0);
            doNotOptimize(obs::sink());
        };
        per_op("obs_span_off", false, span_op);
        per_op("obs_span_on", true, span_op);
        per_op("obs_counter_off", false, counter_op);
        per_op("obs_counter_on", true, counter_op);
    }

    // --- QASM parse throughput ---
    {
        std::string qasm =
            frontend::writeQasm(makeRandom(8, smoke ? 200 : 1000));
        BenchResult r = timeIt("qasm_parse", reps, [&]() {
            Circuit c = frontend::parseQasm(qasm);
            return std::vector<std::pair<std::string, double>>{
                {"gates", static_cast<double>(c.size())},
            };
        });
        r.metrics.emplace_back("bytes", static_cast<double>(qasm.size()));
        r.metrics.emplace_back(
            "mb_per_s", r.medianMs > 0.0
                            ? static_cast<double>(qasm.size()) / 1e3 /
                                  r.medianMs
                            : 0.0);
        note(r);
    }

    // --- Optimizer pipeline on a routed circuit ---
    {
        Device dev = makeIbmqx5();
        Circuit routed = route::routeCircuit(
            makeRandom(8, smoke ? 50 : 200, 7, 1), dev);
        note(timeIt("optimizer_pipeline", reps, [&]() {
            opt::OptimizerOptions opts;
            opts.device = &dev;
            Circuit out = opt::optimizeCircuit(routed, opts);
            return std::vector<std::pair<std::string, double>>{
                {"gates_in", static_cast<double>(routed.size())},
                {"gates_out", static_cast<double>(out.size())},
            };
        }));
    }

    // --- Dense statevector simulation ---
    {
        const Qubit q = smoke ? 10 : 14;
        Circuit c = makeRandom(static_cast<int>(q), 100);
        note(timeIt("statevector_" + std::to_string(q), reps, [&]() {
            sim::StateVector sv(q);
            sv.apply(c);
            return std::vector<std::pair<std::string, double>>{
                {"norm_squared", sv.normSquared()},
            };
        }));
    }

    // --- Dependency-DAG construction (the static-analysis substrate) ---
    {
        const int gates = smoke ? 400 : 2000;
        Circuit c = makeRandom(top_qubits, gates, 17);
        note(timeIt("dag_build", reps, [&]() {
            analysis::DependencyDag dag(c);
            analysis::DagMetrics m = analysis::computeDagMetrics(dag);
            return std::vector<std::pair<std::string, double>>{
                {"gates", static_cast<double>(m.gates)},
                {"edges", static_cast<double>(m.edges)},
                {"depth", static_cast<double>(m.depth)},
                {"parallelism", m.parallelism},
            };
        }));
    }

    // --- Full lint pass: DAG + dataflow + every rule on one circuit ---
    {
        Device dev = makeIbmqx5();
        const int gates = smoke ? 200 : 800;
        Circuit c = makeRandom(5, gates, 19);
        note(timeIt("analyze_full", reps, [&]() {
            analysis::LintOptions lopts;
            lopts.device = &dev;
            analysis::Diagnostics d =
                analysis::analyzeCircuit(c, "bench", lopts);
            return std::vector<std::pair<std::string, double>>{
                {"findings", static_cast<double>(d.findings.size())},
                {"errors", static_cast<double>(
                               d.countAtLeast(analysis::Severity::Error))},
                {"depth", static_cast<double>(d.metrics.depth)},
                {"critical_gates",
                 static_cast<double>(d.metrics.criticalGates)},
            };
        }));
    }

    // --- Router race: CTR swap-back vs sabre lookahead per device ---
    {
        // Same seeded CNOT-heavy circuit, greedy-placed, routed by
        // both strategies; the JSON records SWAP counts and routed
        // depth side by side so heuristic regressions show as diffs.
        const size_t gates = smoke ? 60 : 120;
        for (const char *name :
             {"ibmqx5", "ibmq_16", "line_16", "grid_16"}) {
            Device dev = builtinDevice(name);
            RandomCircuitOptions ropts;
            ropts.numQubits = std::min<Qubit>(dev.numQubits(), 16);
            ropts.numGates = gates;
            ropts.cnotFraction = 0.7;
            ropts.seed = 0xace5;
            Circuit c = randomCircuit(ropts);
            Circuit placed = route::applyPlacement(
                c, route::greedyPlacement(c, dev), dev);
            note(timeIt("router_race_" + std::string(name), reps,
                        [&]() {
                auto depth_of = [](const Circuit &routed) {
                    return static_cast<double>(
                        analysis::computeDagMetrics(
                            analysis::DependencyDag(routed))
                            .depth);
                };
                route::RouteStats ctr_stats;
                Circuit by_ctr = route::routeCircuit(
                    placed, dev, &ctr_stats, {});
                route::RouteOptions sopts;
                sopts.router = route::RouterKind::Sabre;
                route::RouteStats sabre_stats;
                Circuit by_sabre = route::routeCircuit(
                    placed, dev, &sabre_stats, sopts);
                double ctr_swaps =
                    static_cast<double>(ctr_stats.swapsInserted);
                double sabre_swaps =
                    static_cast<double>(sabre_stats.swapsInserted);
                return std::vector<std::pair<std::string, double>>{
                    {"ctr_swaps", ctr_swaps},
                    {"sabre_swaps", sabre_swaps},
                    {"ctr_depth", depth_of(by_ctr)},
                    {"sabre_depth", depth_of(by_sabre)},
                    {"swap_reduction_pct",
                     ctr_swaps > 0.0
                         ? 100.0 * (ctr_swaps - sabre_swaps) /
                               ctr_swaps
                         : 0.0},
                };
            }));
        }
    }

    // --- Parallel batch compilation at 1/2/4 workers ---
    {
        Device dev = makeIbmqx5();
        std::vector<Circuit> circuits;
        const int n = smoke ? 4 : 8;
        for (int i = 0; i < n; ++i)
            circuits.push_back(makeRandom(5, 40, 100 + i));
        for (size_t jobs : {size_t(1), size_t(2), size_t(4)}) {
            BatchCompiler batch(dev);
            note(timeIt(
                "batch_compile_jobs" + std::to_string(jobs), reps,
                [&]() {
                    batch.compileCircuits(circuits, jobs);
                    const BatchSummary &s = batch.summary();
                    return std::vector<std::pair<std::string, double>>{
                        {"circuits",
                         static_cast<double>(s.circuits)},
                        {"failed", static_cast<double>(s.failed)},
                        {"workers", static_cast<double>(s.jobs)},
                        {"speedup", s.wallSeconds > 0.0
                                        ? s.sumSeconds / s.wallSeconds
                                        : 0.0},
                    };
                }));
        }
    }

    // --- Shared vs private QMDD manager across batch workers ---
    {
        Device dev = makeIbmqx5();
        // A similar-circuit corpus (common prefix, divergent tails):
        // the workload where one shared concurrent node store should
        // beat N private rebuilds of the same universe.
        std::vector<Circuit> circuits;
        const int n = smoke ? 4 : 12;
        Circuit base = makeRandom(5, 30, 900);
        for (int i = 0; i < n; ++i) {
            Circuit c = base;
            Circuit tail = makeRandom(5, 10, 910 + static_cast<std::uint64_t>(i));
            for (const Gate &g : tail)
                c.add(g);
            circuits.push_back(c);
        }
        // Private packages coexist (one per in-flight item), so their
        // peaks add; the shared package has one global high-water,
        // which every item reports — the max is the batch's peak.
        auto aggregatePeak = [](const std::vector<BatchItem> &items,
                                bool shared) {
            double agg = 0.0;
            for (const BatchItem &it : items) {
                double p =
                    static_cast<double>(it.result.ddStats.peakNodes);
                agg = shared ? std::max(agg, p) : agg + p;
            }
            return agg;
        };
        for (size_t jobs :
             {size_t(1), size_t(2), size_t(4), size_t(8)}) {
            double peak_private = 0.0;
            BatchCompiler priv(dev);
            priv.setShareManager(false);
            BenchResult pr = timeIt("private_baseline", reps, [&]() {
                std::vector<BatchItem> items =
                    priv.compileCircuits(circuits, jobs);
                peak_private = aggregatePeak(items, false);
                return std::vector<std::pair<std::string, double>>{};
            });

            double peak_shared = 0.0, throughput = 0.0;
            BatchCompiler shared(dev);
            BenchResult sr = timeIt(
                "batch_shared_vs_private_jobs" + std::to_string(jobs),
                reps, [&]() {
                    std::vector<BatchItem> items =
                        shared.compileCircuits(circuits, jobs);
                    peak_shared = aggregatePeak(items, true);
                    const BatchSummary &s = shared.summary();
                    throughput = s.wallSeconds > 0.0
                                     ? s.sumSeconds / s.wallSeconds
                                     : 0.0;
                    return std::vector<
                        std::pair<std::string, double>>{};
                });
            sr.metrics = {
                {"workers", static_cast<double>(jobs)},
                {"circuits", static_cast<double>(n)},
                {"speedup", throughput},
                {"private_median_ms", pr.medianMs},
                {"speedup_vs_private",
                 sr.medianMs > 0.0 ? pr.medianMs / sr.medianMs : 0.0},
                {"peak_nodes_shared", peak_shared},
                {"peak_nodes_private", peak_private},
            };
            note(sr);
        }
    }

    // --- Compile cache: cold batch vs fully warm recompilation ---
    {
        Device dev = makeIbmqx5();
        std::vector<Circuit> circuits;
        const int n = smoke ? 4 : 8;
        for (int i = 0; i < n; ++i)
            circuits.push_back(makeRandom(5, 40, 200 + i));
        const size_t jobs = 2;

        BenchResult cold = timeIt("cache_batch_cold", reps, [&]() {
            // Fresh cache per rep: every compile misses and stores.
            cache::CompileCache cold_cache;
            BatchCompiler batch(dev);
            batch.setCache(&cold_cache);
            batch.compileCircuits(circuits, jobs);
            cache::CacheStats s = cold_cache.stats();
            return std::vector<std::pair<std::string, double>>{
                {"misses", static_cast<double>(s.misses)},
                {"hits", static_cast<double>(s.hits)},
            };
        });
        note(cold);

        cache::CompileCache warm_cache;
        {
            BatchCompiler prime(dev);
            prime.setCache(&warm_cache);
            prime.compileCircuits(circuits, jobs); // untimed prime pass
        }
        BenchResult warm = timeIt("cache_batch_warm", reps, [&]() {
            BatchCompiler batch(dev);
            batch.setCache(&warm_cache);
            batch.compileCircuits(circuits, jobs);
            cache::CacheStats s = warm_cache.stats();
            return std::vector<std::pair<std::string, double>>{
                {"hits", static_cast<double>(s.hits)},
                {"misses", static_cast<double>(s.misses)},
            };
        });
        warm.metrics.emplace_back(
            "warm_speedup",
            warm.medianMs > 0.0 ? cold.medianMs / warm.medianMs : 0.0);
        note(warm);
    }

    // --- Compile service: per-request qsync spawn vs warm daemon ---
    {
        // The qsynd value proposition in one number: request latency
        // against a long-lived server with warm caches versus paying
        // process startup + cold caches on every request. Cold spawns
        // the real qsync binary (sibling of this executable) once per
        // request; warm drives an in-process service::Server over its
        // Unix socket — the same protocol path qload measures against
        // a real daemon.
        namespace fs = std::filesystem;
        const char *qasm_src =
            "OPENQASM 2.0;\n"
            "include \"qelib1.inc\";\n"
            "qreg q[4];\n"
            "h q[0];\n"
            "cx q[0],q[1];\n"
            "ccx q[0],q[1],q[2];\n"
            "t q[3];\n"
            "cx q[2],q[3];\n"
            "h q[3];\n";
        const size_t n_cold = smoke ? 3 : 12;
        const size_t n_warm = smoke ? 10 : 40;

        auto summarize = [&](const std::string &name,
                             std::vector<double> ms) {
            BenchResult r;
            r.name = name;
            r.reps = ms.size();
            r.medianMs = median(ms);
            std::sort(ms.begin(), ms.end());
            r.minMs = ms.front();
            r.p50Ms = quantileSorted(ms, 0.50);
            r.p95Ms = quantileSorted(ms, 0.95);
            r.p99Ms = quantileSorted(ms, 0.99);
            return r;
        };

        std::error_code ec;
        fs::path tool_dir =
            fs::read_symlink("/proc/self/exe", ec).parent_path();
        fs::path tmp = fs::temp_directory_path();
        fs::path qasm_path =
            tmp / ("qbench-service-" + std::to_string(getpid()) +
                   ".qasm");
        {
            std::ofstream f(qasm_path);
            f << qasm_src;
        }
        std::string cold_cmd =
            "'" + (tool_dir / "qsync").string() + "' '" +
            qasm_path.string() +
            "' --device ibmqx5 --quiet -o /dev/null >/dev/null 2>&1";

        std::vector<double> cold_ms;
        size_t cold_failed = 0;
        for (size_t i = 0; i < n_cold; ++i) {
            Stopwatch sw;
            int rc = std::system(cold_cmd.c_str());
            cold_ms.push_back(sw.seconds() * 1e3);
            if (rc != 0)
                ++cold_failed;
        }
        BenchResult cold = summarize("service_cold_spawn", cold_ms);
        cold.metrics = {
            {"requests", static_cast<double>(n_cold)},
            {"failed", static_cast<double>(cold_failed)},
        };
        note(cold);

        service::ServerConfig scfg;
        scfg.socketPath =
            (tmp / ("qbench-service-" + std::to_string(getpid()) +
                    ".sock"))
                .string();
        scfg.workers = 2;
        service::Server server(scfg);
        server.start();

        std::vector<double> warm_ms;
        size_t warm_failed = 0;
        {
            service::Client client =
                service::Client::connectUnix(scfg.socketPath);
            service::Json req = service::Json::makeObject();
            req.object["op"] = service::Json::makeString("compile");
            req.object["source"] =
                service::Json::makeString(qasm_src);
            req.object["device"] =
                service::Json::makeString("ibmqx5");
            req.object["name"] = service::Json::makeString("qbench");
            client.call(req); // untimed prime: fill the warm cache
            for (size_t i = 0; i < n_warm; ++i) {
                Stopwatch sw;
                service::Json resp = client.call(req);
                warm_ms.push_back(sw.seconds() * 1e3);
                if (!resp.boolOr("ok", false))
                    ++warm_failed;
            }
        }
        server.stop();
        fs::remove(qasm_path, ec);

        BenchResult warm = summarize("service_warm_daemon", warm_ms);
        warm.metrics = {
            {"requests", static_cast<double>(n_warm)},
            {"failed", static_cast<double>(warm_failed)},
            {"cold_spawn_p50_ms", cold.p50Ms},
            {"warm_speedup_p50",
             warm.p50Ms > 0.0 ? cold.p50Ms / warm.p50Ms : 0.0},
        };
        note(warm);
    }

    std::string json = toJson(results);
    if (out_path.empty()) {
        std::cout << json;
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "error: cannot write '" << out_path << "'\n";
            return 2;
        }
        out << json;
        std::cerr << "wrote " << out_path << "\n";
    }
    return 0;
}
