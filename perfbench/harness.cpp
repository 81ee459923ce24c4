/**
 * @file
 * In-process half of the qsyn benchmark; run.py drives it.
 *
 *     perfbench_harness <mode> <manifest.json> <result.json>
 *
 * Modes (the manifest formats are written by run.py):
 *
 *   replay   For each job: an untraced Compiler::compile + toQasm, then
 *            the same pipeline replayed stage by stage through the
 *            public functions, once untraced and once with an obs sink
 *            installed. Every call is timed here, from outside; the
 *            sink only supplies the splits that exist inside the
 *            program (per-pass spans, QMDD build spans).
 *   compile  Two in-process passes of compiles (the wide96 workload).
 *   daemon   In-process qsynd server driven by an open-loop generator
 *            over a few client connections (the daemon_mix workload).
 *   check    Re-parse emitted QASM and check it against its source:
 *            device legality, random-product-state statevector
 *            equivalence, or classical basis states through the vector
 *            engine for registers too wide to simulate densely.
 *
 * The result file is JSON. Timings are milliseconds.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "check/oracles.hpp"
#include "common/errors.hpp"
#include "core/compiler.hpp"
#include "decompose/pass.hpp"
#include "device/registry.hpp"
#include "esop/cascade.hpp"
#include "frontend/loader.hpp"
#include "frontend/pla_parser.hpp"
#include "frontend/qasm_parser.hpp"
#include "frontend/qasm_writer.hpp"
#include "frontend/qc_parser.hpp"
#include "frontend/real_parser.hpp"
#include "obs/obs.hpp"
#include "qmdd/equivalence.hpp"
#include "qmdd/vector.hpp"
#include "route/placement.hpp"
#include "route/router.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"

using namespace qsyn;
using service::Json;
using Clock = std::chrono::steady_clock;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Run `fn`, add its wall time in ms to `acc`, return its result. */
template <class F>
auto
timed(double &acc, F &&fn)
{
    auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += msBetween(t0, Clock::now());
    } else {
        auto r = fn();
        acc += msBetween(t0, Clock::now());
        return r;
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw UserError("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw UserError("cannot write " + path);
}

Json
num(double v)
{
    return Json::makeNumber(v);
}

Json
numbers(const std::vector<double> &values)
{
    Json a = Json::makeArray();
    for (double v : values)
        a.array.push_back(num(v));
    return a;
}

/** Process high-water RSS in KiB (VmHWM). */
double
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6));
    }
    return 0.0;
}

std::string
extensionOf(const std::string &path)
{
    size_t dot = path.rfind('.');
    return dot == std::string::npos ? "" : path.substr(dot + 1);
}

/* ------------------------------------------------------------------ */
/* Jobs: one (input, device, options) compile                          */
/* ------------------------------------------------------------------ */

struct Job
{
    std::string id;
    std::string input;  ///< source file
    std::string device;
    std::string router = "ctr";
    std::string placement = "identity";
    /** Emitted QASM file: checked (check mode) or byte-compared with
     *  the in-process compile (replay mode). Empty = none. */
    std::string output;
};

Job
jobFromJson(const Json &j)
{
    Job job;
    job.id = j.stringOr("id", "");
    job.input = j.stringOr("input", "");
    job.device = j.stringOr("device", "ibmqx4");
    job.router = j.stringOr("router", "ctr");
    job.placement = j.stringOr("placement", "identity");
    job.output = j.stringOr("output", "");
    return job;
}

std::vector<Job>
jobsOf(const Json &manifest)
{
    std::vector<Job> jobs;
    if (const Json *list = manifest.find("jobs"))
        for (const Json &j : list->array)
            jobs.push_back(jobFromJson(j));
    return jobs;
}

/** Compile options of a job: the CLI defaults plus router and
 *  placement; `service` mirrors what qsynd sets for every request. */
CompileOptions
optionsFor(const std::string &router, const std::string &placement,
           bool service)
{
    CompileOptions o;
    if (!route::parseRouterName(router, &o.routing.router))
        throw UserError("unknown router '" + router + "'");
    if (placement == "greedy")
        o.placement = route::PlacementStrategy::Greedy;
    else if (placement != "identity")
        throw UserError("unknown placement '" + placement + "'");
    o.optimizer.collectPassStats = service;
    return o;
}

/** A parsed program input with its front-end timings. */
struct Loaded
{
    Circuit circuit{0};
    double parseMs = 0.0;
    double esopMs = 0.0;
    size_t bytes = 0;
    bool pla = false;
};

/** Load an input the way qsync does: .pla through the ESOP front end,
 *  everything else through the format-dispatching loader. */
Loaded
loadInput(const std::string &path)
{
    Loaded l;
    l.bytes = readFile(path).size();
    if (extensionOf(path) == "pla") {
        l.pla = true;
        frontend::PlaFile pla =
            timed(l.parseMs, [&] { return frontend::loadPlaFile(path); });
        l.circuit = timed(l.esopMs, [&] { return esop::synthesizePla(pla); });
    } else {
        l.circuit = timed(l.parseMs,
                          [&] { return frontend::loadCircuitFile(path); });
    }
    return l;
}

/** The same for source text (daemon requests). */
Circuit
programInputFromText(const std::string &text, const std::string &format,
                     const std::string &name)
{
    if (format == "pla")
        return esop::synthesizePla(frontend::parsePla(text));
    if (format == "real")
        return frontend::parseReal(text, name);
    if (format == "qc")
        return frontend::parseQc(text, name);
    return frontend::parseQasm(text, name);
}

/* ------------------------------------------------------------------ */
/* Staged replay                                                       */
/* ------------------------------------------------------------------ */

/** Harness-timed wall time of each public call, ms. */
struct StageMs
{
    double decompose = 0, ti = 0, measure = 0, place = 0, route = 0,
           td = 0, qmddSetup = 0, qmddCheck = 0, qmddTeardown = 0,
           write = 0;

    double
    total() const
    {
        return decompose + ti + measure + place + route + td +
               qmddSetup + qmddCheck + qmddTeardown + write;
    }
};

struct Replay
{
    std::string qasm;
    StageMs ms;
    size_t decomposeGates = 0;
    opt::OptimizeReport ti, td;
    route::RouteStats route;
    dd::PackageStats dd;
    bool verifyRan = false;
    bool verified = false;
    std::vector<Qubit> placement;
    /** Sum of the measure() depths, kept so the calls stay observable. */
    size_t measuredDepth = 0;
};

/**
 * Compiler::compile followed by Compiler::toQasm, one public call at a
 * time (see core/compiler.cpp for the sequence this mirrors). With
 * `placement_only` it stops after placement.
 */
Replay
replayStaged(const Circuit &input, const Device &device,
             const CompileOptions &options, bool placement_only = false)
{
    Replay r;
    opt::CostModel model(options.optimizer.weights);

    decompose::DecomposeOptions dopts;
    dopts.mcxStrategy = options.mcxStrategy;
    dopts.lowerToffoli = true;
    dopts.maxQubits = device.numQubits();
    decompose::DecomposeResult lowered = timed(r.ms.decompose, [&] {
        return decompose::decomposeToPrimitives(input, dopts);
    });
    r.decomposeGates = lowered.circuit.size();
    Circuit decomposed = std::move(lowered.circuit);
    if (options.optimize && options.optimizeTechIndependent) {
        opt::OptimizerOptions ti = options.optimizer;
        ti.device = nullptr;
        decomposed = timed(r.ms.ti, [&] {
            return opt::optimizeCircuit(decomposed, ti, &r.ti);
        });
    }
    r.measuredDepth += timed(r.ms.measure,
                        [&] { return measure(decomposed, model).depth; });

    r.placement = timed(r.ms.place, [&] {
        return route::computePlacement(decomposed, device,
                                       options.placement);
    });
    if (placement_only)
        return r;
    Circuit placed = timed(r.ms.place, [&] {
        return route::applyPlacement(decomposed, r.placement, device);
    });
    Circuit mapped = timed(r.ms.route, [&] {
        return route::routeCircuit(placed, device, &r.route,
                                   options.routing);
    });
    r.measuredDepth += timed(r.ms.measure,
                        [&] { return measure(mapped, model).depth; });

    std::vector<Qubit> ancillas;
    for (Qubit a : lowered.ancillas)
        ancillas.push_back(r.placement[a]);
    std::sort(ancillas.begin(), ancillas.end());

    Circuit optimized = mapped;
    if (options.optimize) {
        opt::OptimizerOptions td = options.optimizer;
        td.device = &device;
        optimized = timed(r.ms.td, [&] {
            return opt::optimizeCircuit(mapped, td, &r.td);
        });
    }
    r.measuredDepth += timed(r.ms.measure,
                        [&] { return measure(optimized, model).depth; });

    if (options.verify != VerifyMode::Off && input.isUnitary()) {
        Circuit reference = input.remapped(r.placement, device.numQubits());
        std::unique_ptr<dd::Package> pkg = timed(
            r.ms.qmddSetup, [&] { return std::make_unique<dd::Package>(); });
        dd::EquivalenceChecker checker(*pkg);
        dd::EquivalenceOptions eopts;
        eopts.upToGlobalPhase = options.verifyUpToGlobalPhase;
        eopts.ancillaWires = ancillas;
        eopts.nodeBudget = options.verifyNodeBudget;
        eopts.useMiter =
            options.verify == VerifyMode::Miter && ancillas.empty();
        dd::Equivalence verdict = timed(r.ms.qmddCheck, [&] {
            return checker.check(reference, optimized, eopts);
        });
        r.verifyRan = true;
        r.verified = dd::isEquivalent(verdict);
        r.dd = pkg->stats();
        timed(r.ms.qmddTeardown, [&] { pkg.reset(); });
    }

    frontend::QasmWriterOptions wopts;
    wopts.headerComment = "qsyn: mapped to " + device.name();
    r.qasm = timed(r.ms.write,
                   [&] { return frontend::writeQasm(optimized, wopts); });
    return r;
}

const char *const kPasses[] = {"cancellation", "rotation_merge",
                               "hadamard_rules", "window_identity"};

/** Per-pass accumulators (sums over one replay pass of all jobs). */
class Totals
{
  public:
    double &operator[](const std::string &key) { return values_[key]; }

    void
    max(const std::string &key, double v)
    {
        values_[key] = std::max(values_[key], v);
    }

    Json
    toJson() const
    {
        Json o = Json::makeObject();
        for (const auto &[k, v] : values_)
            o.object[k] = num(v);
        return o;
    }

  private:
    std::map<std::string, double> values_;
};

void
addPassReports(Totals &t, const opt::OptimizeReport &report)
{
    t["opt.rounds"] += report.rounds;
    for (const opt::PassReport &p : report.passes) {
        std::string key = std::string("opt.") + p.name;
        t[key + ".gates_removed"] += static_cast<double>(p.gatesRemoved);
        t[key + ".invocations"] += p.invocations;
    }
}

/** Structural counts of one replay: must agree between the traced and
 *  untraced replays and across passes (the determinism guard). */
std::string
structuralKey(const Replay &r)
{
    std::ostringstream os;
    os << r.decomposeGates << '/' << r.route.swapsInserted << '/'
       << r.route.restoreSwaps << '/' << r.route.reversedCnots << '/'
       << r.ti.rounds << '/' << r.td.rounds << '/' << r.dd.peakNodes;
    for (const auto *rep : {&r.ti, &r.td})
        for (const opt::PassReport &p : rep->passes)
            os << '/' << p.gatesRemoved;
    return os.str();
}

int
runReplay(const Json &manifest, Json &result)
{
    std::vector<Job> jobs = jobsOf(manifest);
    const double seconds = manifest.numberOr("seconds", 1.0);
    const bool service = manifest.boolOr("service_options", false);
    std::map<std::string, Device> devices;
    for (const Job &job : jobs)
        if (!devices.count(job.device))
            devices.emplace(job.device, builtinDevice(job.device));

    Json passes = Json::makeArray();
    Json perJob = Json::makeObject();
    std::map<std::string, std::string> firstKey;
    size_t failed = 0;
    Json failures = Json::makeArray();
    auto fail = [&](const Job &job, const std::string &why) {
        ++failed;
        failures.array.push_back(Json::makeString(job.id + ": " + why));
    };

    // Whole passes only, and none that would overrun the budget.
    auto start = Clock::now();
    double pass_ms = 0;
    for (int pass = 0;
         pass == 0 ||
         msBetween(start, Clock::now()) + pass_ms < seconds * 1e3;
         ++pass) {
        auto pass_start = Clock::now();
        Totals t;
        for (const Job &job : jobs) {
            const Device &device = devices.at(job.device);
            CompileOptions options =
                optionsFor(job.router, job.placement, service);
            Loaded in = loadInput(job.input);
            t["frontend.parse_ms"] += in.parseMs;
            t["frontend.bytes"] += static_cast<double>(in.bytes);
            t["esop.synth_ms"] += in.esopMs;
            t["esop.inputs"] += in.pla ? 1 : 0;

            // Untraced: the compile users get.
            Compiler compiler(device, options);
            auto c0 = Clock::now();
            CompileResult compiled = compiler.compile(in.circuit);
            std::string qasm = compiler.toQasm(compiled);
            double compile_ms = msBetween(c0, Clock::now());
            t["trace.compile_ms"] += compile_ms;

            // Untraced staged replay: per-layer wall time.
            Replay plain = replayStaged(in.circuit, device, options);

            // Traced staged replay: the program's own spans split the
            // calls the harness cannot time from outside.
            obs::ScopedSink sink;
            Replay traced = replayStaged(in.circuit, device, options);
            std::map<std::string, double> spanMs;
            for (const obs::TraceEvent &e : sink->events())
                spanMs[e.name] += e.durUs / 1e3;

            t["jobs"] += 1;
            if (plain.qasm == qasm && traced.qasm == qasm)
                t["replay.identical"] += 1;
            else
                fail(job, "staged replay QASM differs from "
                          "Compiler::compile + toQasm");
            if (!job.output.empty() && readFile(job.output) != qasm)
                fail(job, "emitted QASM differs from the in-process "
                          "compile");
            if (plain.verifyRan && !plain.verified)
                fail(job, "replay verification did not confirm "
                          "equivalence");
            std::string key = structuralKey(plain);
            if (structuralKey(traced) != key)
                fail(job, "traced and untraced replays disagree on "
                          "structural counts");
            auto [it, fresh] = firstKey.emplace(job.id, key);
            if (!fresh && it->second != key)
                fail(job, "structural counts changed between passes");

            const StageMs &m = plain.ms;
            t["decompose.ms"] += m.decompose;
            t["decompose.gates_out"] +=
                static_cast<double>(plain.decomposeGates);
            t["opt.ti_ms"] += m.ti;
            t["opt.td_ms"] += m.td;
            t["route.place_ms"] += m.place;
            t["route.route_ms"] += m.route;
            t["analysis.measure_ms"] += m.measure;
            t["qmdd.setup_ms"] += m.qmddSetup;
            t["qmdd.check_ms"] += m.qmddCheck;
            t["qmdd.teardown_ms"] += m.qmddTeardown;
            t["frontend.write_ms"] += m.write;
            t["trace.staged_ms"] += m.total();
            t["trace.traced_staged_ms"] += traced.ms.total();
            addPassReports(t, plain.ti);
            addPassReports(t, plain.td);
            for (const char *p : kPasses)
                t[std::string("opt.") + p + "_ms"] +=
                    spanMs[std::string("opt.") + p];
            double build_ref = spanMs["qmdd.build_reference"];
            double build_cand = spanMs["qmdd.build_candidate"];
            t["qmdd.build_reference_ms"] += build_ref;
            t["qmdd.build_candidate_ms"] += build_cand;
            t["qmdd.fixed_ms"] +=
                spanMs["qmdd.equivalence_check"] - build_ref - build_cand;
            t["route.swaps"] += static_cast<double>(plain.route.swapsInserted);
            t["route.restore_swaps"] +=
                static_cast<double>(plain.route.restoreSwaps);
            t["route.reversed_cnots"] +=
                static_cast<double>(plain.route.reversedCnots);
            const dd::PackageStats &d = plain.dd;
            t.max("qmdd.peak_nodes", static_cast<double>(d.peakNodes));
            t["qmdd.unique_lookups"] += static_cast<double>(d.uniqueLookups);
            t["qmdd.unique_hits"] += static_cast<double>(d.uniqueHits);
            t["qmdd.compute_lookups"] +=
                static_cast<double>(d.computeLookups);
            t["qmdd.compute_hits"] += static_cast<double>(d.computeHits);
            t["qmdd.evictions"] += static_cast<double>(
                d.mulEvictions + d.addEvictions + d.ctEvictions);
            t["qmdd.rehashes"] += static_cast<double>(d.uniqueRehashes);
            t["qmdd.gc_runs"] += static_cast<double>(d.gcRuns);

            if (pass == 0) {
                Json j = Json::makeObject();
                j.object["compile_ms"] = num(compile_ms);
                perJob.object[job.id] = std::move(j);
            } else {
                perJob.object[job.id].object["compile_ms"] = num(
                    std::min(perJob.object[job.id].numberOr("compile_ms", 0),
                             compile_ms));
            }
        }
        passes.array.push_back(t.toJson());
        pass_ms = msBetween(pass_start, Clock::now());
    }
    result.object["passes"] = std::move(passes);
    result.object["jobs"] = std::move(perJob);
    result.object["failed"] = num(static_cast<double>(failed));
    result.object["failures"] = std::move(failures);
    return 0;
}

/* ------------------------------------------------------------------ */
/* In-process compile loop (wide96)                                    */
/* ------------------------------------------------------------------ */

/** Set-up rounds per sample point of the compile loop. */
constexpr int kSetupReps = 5;
/** Passes per process: two, so outputs are compared within a process;
 *  run.py spreads a run's passes over several processes. */
constexpr int kCompilePasses = 2;

int
runCompileLoop(const Json &manifest, Json &result)
{
    std::vector<Job> jobs = jobsOf(manifest);

    // Set-up: everything before the first compile — read and parse the
    // inputs, build the device, construct the compilers. Repeated
    // before the first pass and after every pass, so its median sees
    // the same machine conditions as the compiles.
    std::vector<double> setup_ms;
    std::vector<Circuit> inputs;
    std::vector<std::unique_ptr<Compiler>> compilers;
    auto set_up = [&] {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            auto t0 = Clock::now();
            inputs.clear();
            compilers.clear();
            for (const Job &job : jobs) {
                inputs.push_back(frontend::loadCircuitFile(job.input));
                compilers.push_back(std::make_unique<Compiler>(
                    builtinDevice(job.device),
                    optionsFor(job.router, job.placement, false)));
            }
            setup_ms.push_back(msBetween(t0, Clock::now()));
        }
    };
    set_up();

    // One latency sample per pass over all jobs: the time to compile
    // the whole set, as a user compiling the table waits for it.
    std::vector<double> latency;
    std::vector<std::string> first(jobs.size());
    Json failures = Json::makeArray();
    int passes = 0;
    auto start = Clock::now();
    for (; passes < kCompilePasses; ++passes) {
        auto pass_start = Clock::now();
        for (size_t i = 0; i < jobs.size(); ++i) {
            std::string qasm;
            try {
                CompileResult r = compilers[i]->compile(inputs[i]);
                qasm = compilers[i]->toQasm(r);
            } catch (const std::exception &e) {
                failures.array.push_back(
                    Json::makeString(jobs[i].id + ": " + e.what()));
            }
            if (passes == 0) {
                first[i] = qasm;
            } else if (qasm != first[i]) {
                failures.array.push_back(Json::makeString(
                    jobs[i].id + ": output changed between passes"));
            }
        }
        latency.push_back(msBetween(pass_start, Clock::now()));
        set_up();
    }
    double wall_ms = msBetween(start, Clock::now());
    for (size_t i = 0; i < jobs.size(); ++i)
        if (!jobs[i].output.empty())
            writeFile(jobs[i].output, first[i]);

    result.object["setup_ms"] = numbers(setup_ms);
    result.object["latency_ms"] = numbers(latency);
    result.object["wall_ms"] = num(wall_ms);
    result.object["passes"] = num(passes);
    result.object["compiles"] = num(static_cast<double>(passes * jobs.size()));
    result.object["failures"] = std::move(failures);
    result.object["peak_rss_kb"] = num(peakRssKb());
    return 0;
}

/* ------------------------------------------------------------------ */
/* Output checks                                                       */
/* ------------------------------------------------------------------ */

/**
 * The specification a compiled output must realize. PLAs are built
 * here directly, one multi-controlled X per cube (negative literals
 * X-conjugated), so the check does not go through the ESOP layer.
 */
Circuit
specFromText(const std::string &text, const std::string &format,
             const std::string &name)
{
    if (format != "pla")
        return programInputFromText(text, format, name);
    frontend::PlaFile pla = frontend::parsePla(text);
    Circuit spec(static_cast<Qubit>(pla.numInputs + pla.numOutputs), name);
    for (const frontend::PlaCube &cube : pla.cubes) {
        std::vector<Qubit> controls, negated;
        for (int i = 0; i < pla.numInputs; ++i) {
            std::uint64_t bit = std::uint64_t{1} << i;
            if (!(cube.careMask & bit))
                continue;
            controls.push_back(static_cast<Qubit>(i));
            if (!(cube.polarity & bit))
                negated.push_back(static_cast<Qubit>(i));
        }
        for (int o = 0; o < pla.numOutputs; ++o) {
            if (!(cube.outputs & (std::uint64_t{1} << o)))
                continue;
            Qubit target = static_cast<Qubit>(pla.numInputs + o);
            for (Qubit q : negated)
                spec.addX(q);
            if (controls.empty())
                spec.addX(target);
            else
                spec.addMcx(controls, target);
            for (Qubit q : negated)
                spec.addX(q);
        }
    }
    return spec;
}

/**
 * Push classical basis states through `out` with the QMDD vector
 * engine and compare each with the harness's own evaluation of the
 * reversible cascade `spec`. Inputs switch each gate's controls on
 * with probability 1/2 so every gate fires on some sample.
 */
std::string
basisStateCheck(const Circuit &spec, const Circuit &out, size_t samples,
                std::uint64_t seed)
{
    const Qubit n = out.numQubits();
    std::mt19937_64 rng(seed);
    for (size_t s = 0; s < samples; ++s) {
        std::vector<int> bits(n, 0);
        for (Qubit q = 0; q < spec.numQubits(); ++q)
            bits[q] = static_cast<int>(rng() & 1);
        for (const Gate &g : spec)
            if (rng() & 1)
                for (Qubit c : g.controls())
                    bits[c] = 1;
        std::vector<int> expect = bits;
        for (const Gate &g : spec) {
            if (g.kind() != GateKind::X || g.targets().size() != 1)
                return "spec gate " + g.toString() + " is not an MCX";
            bool on = true;
            for (Qubit c : g.controls())
                on = on && expect[c] == 1;
            if (on)
                expect[g.targets()[0]] ^= 1;
        }
        dd::Package pkg;
        dd::VectorEngine engine(pkg);
        dd::Package::Session session(pkg);
        Circuit prep(n), want(n);
        for (Qubit q = 0; q < n; ++q) {
            if (bits[q])
                prep.addX(q);
            if (expect[q])
                want.addX(q);
        }
        dd::Edge zero = engine.makeBasisState(0, n);
        dd::Edge got = engine.applyCircuit(out, engine.applyCircuit(prep, zero));
        dd::Edge ref = engine.applyCircuit(want, zero);
        double overlap =
            std::abs(engine.innerProduct(got, ref, static_cast<int>(n)));
        if (std::abs(overlap - 1.0) > 1e-6)
            return "basis sample " + std::to_string(s) +
                   " disagrees with the classical evaluation (overlap " +
                   std::to_string(overlap) + ")";
    }
    return "";
}

struct CheckOutcome
{
    std::string error; ///< empty = passed
    /** Gates, Eqn. 2 cost and depth of the re-parsed output, as the
     *  program's own measure() counts them. */
    StageMetrics stats;
};

/** Widest register the dense statevector oracle simulates; wider
 *  devices get the basis-state check. */
constexpr Qubit kStatevectorMaxQubits = 16;

/**
 * Check one emitted QASM text against its specification on `device`.
 * `program_input` yields the circuit the compiler saw; it is needed
 * only to recompute a greedy placement, which the output does not
 * carry.
 */
CheckOutcome
checkOutput(const std::string &qasm, const Circuit &spec,
            const std::function<Circuit()> &program_input,
            const Device &device, const std::string &router,
            const std::string &placement, std::uint64_t seed)
{
    CheckOutcome outcome;
    Circuit out(0);
    try {
        out = frontend::parseQasm(qasm, "emitted");
    } catch (const std::exception &e) {
        outcome.error = std::string("emitted QASM does not parse: ") +
                        e.what();
        return outcome;
    }
    outcome.stats = measure(out, opt::CostModel{});
    const Qubit n = device.numQubits();
    if (out.numQubits() != n) {
        outcome.error = "emitted register has " +
                        std::to_string(out.numQubits()) + " qubits, " +
                        device.name() + " has " + std::to_string(n);
        return outcome;
    }
    CompileResult r;
    r.input = spec;
    r.optimized = out;
    if (placement == "greedy") {
        r.placement = replayStaged(program_input(), device,
                                   optionsFor(router, placement, false),
                                   true)
                          .placement;
    } else {
        for (Qubit q = 0; q < n; ++q)
            r.placement.push_back(q);
    }
    // Every device wire the specification does not occupy starts |0>.
    std::vector<bool> used(n, false);
    for (Qubit q = 0; q < spec.numQubits(); ++q)
        used[r.placement[q]] = true;
    for (Qubit q = 0; q < n; ++q)
        if (!used[q])
            r.ancillas.push_back(q);

    check::OracleOutcome legal = check::checkLegality(r, device);
    if (!legal.passed) {
        outcome.error = "legality: " + legal.details;
        return outcome;
    }
    if (n > kStatevectorMaxQubits) {
        outcome.error = basisStateCheck(spec, out, 8, seed);
        return outcome;
    }
    // Simulate only the wires the output or the specification touch:
    // every other device wire is idle on both sides, so dropping it is
    // exact and keeps 14- and 16-qubit registers cheap to simulate.
    std::vector<bool> active = used;
    for (const Gate &g : out)
        for (Qubit q : g.qubits())
            active[q] = true;
    std::vector<Qubit> compact(n, 0);
    Qubit k = 0;
    for (Qubit q = 0; q < n; ++q)
        if (active[q])
            compact[q] = k++;
    CompileResult small;
    small.input = spec;
    small.optimized = out.remapped(compact, k);
    for (Qubit q = 0; q < spec.numQubits(); ++q)
        small.placement.push_back(compact[r.placement[q]]);
    for (Qubit q = 0; q < n; ++q)
        if (active[q] && !used[q])
            small.ancillas.push_back(compact[q]);
    check::OracleOptions oo;
    oo.statevectorMaxQubits = kStatevectorMaxQubits;
    oo.statevectorSamples = 2;
    oo.stimulusSeed = seed;
    check::OracleOutcome sv =
        check::checkStatevector(small, Device::simulator(k), oo);
    if (sv.skipped || !sv.passed)
        outcome.error = "statevector: " + sv.details;
    return outcome;
}

std::string
formatOf(const std::string &path)
{
    std::string ext = extensionOf(path);
    return ext.empty() ? "qasm" : ext;
}

int
runCheck(const Json &manifest, Json &result)
{
    std::vector<Job> jobs = jobsOf(manifest);
    const auto seed =
        static_cast<std::uint64_t>(manifest.numberOr("seed", 1));
    std::map<std::string, Device> devices;
    Json per = Json::makeObject();
    size_t failed = 0;
    double gates = 0, cost = 0, depth = 0;
    for (const Job &job : jobs) {
        if (!devices.count(job.device))
            devices.emplace(job.device, builtinDevice(job.device));
        std::string text = readFile(job.input);
        std::string format = formatOf(job.input);
        CheckOutcome c;
        try {
            c = checkOutput(
                readFile(job.output), specFromText(text, format, job.id),
                [&] { return programInputFromText(text, format, job.id); },
                devices.at(job.device), job.router, job.placement, seed);
        } catch (const std::exception &e) {
            c.error = std::string("check threw: ") + e.what();
        }
        Json j = Json::makeObject();
        j.object["ok"] = Json::makeBool(c.error.empty());
        if (!c.error.empty()) {
            ++failed;
            j.object["error"] = Json::makeString(c.error);
        }
        j.object["gates"] = num(static_cast<double>(c.stats.gates));
        j.object["cost"] = num(c.stats.cost);
        j.object["depth"] = num(static_cast<double>(c.stats.depth));
        per.object[job.id] = std::move(j);
        gates += static_cast<double>(c.stats.gates);
        cost += c.stats.cost;
        depth += static_cast<double>(c.stats.depth);
    }
    result.object["jobs"] = std::move(per);
    result.object["failed"] = num(static_cast<double>(failed));
    result.object["out_gates"] = num(gates);
    result.object["out_cost"] = num(cost);
    result.object["out_depth"] = num(depth);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Daemon: in-process qsynd + open-loop generator                      */
/* ------------------------------------------------------------------ */

struct Source
{
    std::string text, format, name, device, router, placement;
};

Source
sourceFromJson(const Json &j)
{
    Source s;
    s.text = j.stringOr("source", "");
    s.format = j.stringOr("format", "qasm");
    s.name = j.stringOr("name", "remote");
    s.device = j.stringOr("device", "ibmqx4");
    s.router = j.stringOr("router", "ctr");
    s.placement = j.stringOr("placement", "identity");
    return s;
}

std::vector<Source>
sourcesOf(const Json &manifest, const char *key)
{
    std::vector<Source> out;
    if (const Json *list = manifest.find(key))
        for (const Json &j : list->array)
            out.push_back(sourceFromJson(j));
    return out;
}

enum Kind { kHit = 0, kMiss = 1, kAnalyze = 2 };

/** How long before a request's due time its client stops sleeping and
 *  spins. */
constexpr auto kSpin = std::chrono::microseconds(200);

std::string
requestPayload(const Source &s, Kind kind)
{
    Json r = Json::makeObject();
    r.object["op"] = Json::makeString(kind == kAnalyze ? "analyze" : "compile");
    r.object["source"] = Json::makeString(s.text);
    r.object["format"] = Json::makeString(s.format);
    r.object["name"] = Json::makeString(s.name);
    r.object["device"] = Json::makeString(s.device);
    if (kind != kAnalyze) {
        r.object["router"] = Json::makeString(s.router);
        r.object["placement"] = Json::makeString(s.placement);
    }
    return r.dump();
}

/** One timed request of a phase; times are ms from the phase start. */
struct Record
{
    int kind = kHit;
    size_t index = 0;
    double due = 0, claim = 0, sent = 0, done = 0;
    bool ok = false;
    std::string code;  ///< error code of a failed response
    std::string qasm;  ///< kept for misses (checked afterwards)
    bool sameAsPrimed = false; ///< hits: response QASM == primed bytes
    double analyzeGates = -1;
};

class Daemon
{
  public:
    explicit Daemon(const Json &manifest)
    {
        pool_ = sourcesOf(manifest, "pool");
        fresh_ = sourcesOf(manifest, "fresh");
        analyze_ = sourcesOf(manifest, "analyze");
        workers_ = static_cast<size_t>(manifest.numberOr("workers", 2));
        clientCount_ = static_cast<size_t>(manifest.numberOr("clients", 2));
        socket_ = manifest.stringOr("socket", "qsynd.sock");
        for (const Source &s : pool_)
            poolPayload_.push_back(requestPayload(s, kHit));
        for (const Source &s : fresh_)
            freshPayload_.push_back(requestPayload(s, kMiss));
        for (const Source &s : analyze_)
            analyzePayload_.push_back(requestPayload(s, kAnalyze));
        primed_.assign(pool_.size(), std::string());
    }

    ~Daemon() { stop(); }

    /**
     * Start a server, connect the clients and prime the cache with
     * every pool source; returns the wall time in ms. The first
     * priming records each pool source's QASM; later set-ups must
     * return the same bytes. Failures accumulate over the whole run.
     */
    double
    setUp()
    {
        stop();
        auto t0 = Clock::now();
        service::ServerConfig cfg;
        cfg.socketPath = socket_;
        cfg.workers = workers_;
        cfg.queueDepth = 4 * (workers_ + clientCount_);
        server_ = std::make_unique<service::Server>(cfg);
        server_->start();
        for (size_t c = 0; c < clientCount_; ++c)
            clients_.push_back(service::Client::connectUnix(socket_));
        std::atomic<size_t> next{0};
        std::vector<std::thread> threads;
        for (size_t c = 0; c < clientCount_; ++c) {
            threads.emplace_back([&, c] {
                for (size_t i; (i = next++) < pool_.size();) {
                    Json resp;
                    try {
                        std::string raw =
                            clients_[c].callRaw(poolPayload_[i]);
                        if (service::parseJson(raw, &resp) &&
                            resp.boolOr("ok", false)) {
                            std::string qasm = resp.stringOr("qasm", "");
                            if (primed_[i].empty())
                                primed_[i] = qasm;
                            if (primed_[i] == qasm)
                                continue;
                        }
                    } catch (const std::exception &) {
                    }
                    ++primeErrors_;
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        return msBetween(t0, Clock::now());
    }

    void
    stop()
    {
        clients_.clear();
        if (server_) {
            server_->stop();
            server_.reset();
        }
        ::unlink(socket_.c_str());
    }

    /** Run one open-loop phase; returns its records. */
    std::vector<Record>
    runPhase(const Json &phase, double *wall_ms)
    {
        std::vector<Record> recs;
        if (const Json *reqs = phase.find("requests")) {
            for (const Json &r : reqs->array) {
                Record rec;
                rec.due = r.array.at(0).number * 1e3;
                rec.kind = static_cast<int>(r.array.at(1).number);
                rec.index = static_cast<size_t>(r.array.at(2).number);
                recs.push_back(rec);
            }
        }
        std::atomic<size_t> next{0};
        auto start = Clock::now() + std::chrono::milliseconds(5);
        std::vector<std::thread> threads;
        for (size_t c = 0; c < clientCount_; ++c) {
            threads.emplace_back([&, c] {
                for (size_t i; (i = next++) < recs.size();) {
                    Record &rec = recs[i];
                    rec.claim = msBetween(start, Clock::now());
                    auto due = start + std::chrono::duration_cast<
                                           Clock::duration>(
                                           std::chrono::duration<double,
                                                                 std::milli>(
                                               rec.due));
                    // Sleep to just short of the due time, then spin:
                    // timer wake-ups alone are late by ~0.1 ms.
                    std::this_thread::sleep_until(due - kSpin);
                    while (Clock::now() < due) {
                    }
                    rec.sent = msBetween(start, Clock::now());
                    try {
                        std::string raw = clients_[c].callRaw(payloadOf(rec));
                        rec.done = msBetween(start, Clock::now());
                        settle(rec, raw);
                    } catch (const std::exception &e) {
                        rec.done = msBetween(start, Clock::now());
                        rec.ok = false;
                        rec.code = std::string("transport: ") + e.what();
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        *wall_ms = msBetween(start, Clock::now());
        return recs;
    }

    service::ServerStats serverStats() const { return server_->stats(); }

    /** Cache counters from the server's stats op. */
    Json
    cacheStats()
    {
        Json req = Json::makeObject();
        req.object["op"] = Json::makeString("stats");
        Json resp = clients_.at(0).call(req);
        const Json *cache = resp.find("cache");
        return cache ? *cache : Json::makeObject();
    }

    const std::vector<Source> &pool() const { return pool_; }
    const std::vector<Source> &fresh() const { return fresh_; }
    const std::vector<Source> &analyze() const { return analyze_; }
    const std::vector<std::string> &primed() const { return primed_; }
    size_t primeErrors() const { return primeErrors_; }

  private:
    const std::string &
    payloadOf(const Record &rec) const
    {
        if (rec.kind == kMiss)
            return freshPayload_.at(rec.index);
        if (rec.kind == kAnalyze)
            return analyzePayload_.at(rec.index);
        return poolPayload_.at(rec.index);
    }

    /** Decode a response in the client thread, after `done` was taken. */
    void
    settle(Record &rec, const std::string &raw)
    {
        Json resp;
        if (!service::parseJson(raw, &resp)) {
            rec.code = "malformed response";
            return;
        }
        rec.ok = resp.boolOr("ok", false);
        if (!rec.ok) {
            const Json *err = resp.find("error");
            rec.code = err ? err->stringOr("code", "?") : "?";
            return;
        }
        if (rec.kind == kHit) {
            rec.sameAsPrimed =
                resp.stringOr("qasm", "") == primed_.at(rec.index);
        } else if (rec.kind == kMiss) {
            rec.qasm = resp.stringOr("qasm", "");
        } else if (const Json *m = resp.find("metrics")) {
            rec.analyzeGates = m->numberOr("gates", -1);
        }
    }

    std::vector<Source> pool_, fresh_, analyze_;
    std::vector<std::string> poolPayload_, freshPayload_, analyzePayload_;
    size_t workers_ = 2, clientCount_ = 2;
    std::string socket_;
    std::unique_ptr<service::Server> server_;
    std::vector<service::Client> clients_;
    std::vector<std::string> primed_;
    std::atomic<size_t> primeErrors_{0};
};

Json
recordsToJson(const std::vector<Record> &recs)
{
    std::vector<double> kind, due, claim, sent, done, ok;
    Json codes = Json::makeObject();
    for (const Record &r : recs) {
        kind.push_back(r.kind);
        due.push_back(r.due);
        claim.push_back(r.claim);
        sent.push_back(r.sent);
        done.push_back(r.done);
        ok.push_back(r.ok ? 1 : 0);
        if (!r.code.empty())
            codes.object[r.code] = num(codes.numberOr(r.code, 0) + 1);
    }
    Json o = Json::makeObject();
    o.object["kind"] = numbers(kind);
    o.object["due"] = numbers(due);
    o.object["claim"] = numbers(claim);
    o.object["sent"] = numbers(sent);
    o.object["done"] = numbers(done);
    o.object["ok"] = numbers(ok);
    o.object["errors"] = std::move(codes);
    return o;
}

int
runDaemon(const Json &manifest, Json &result)
{
    const auto seed =
        static_cast<std::uint64_t>(manifest.numberOr("seed", 1));
    Daemon daemon(manifest);

    // Phases flagged "setup" start on a fresh, primed server, so the
    // set-up samples are spread over the run; two per such phase.
    std::vector<double> setup_ms;
    Json phases = Json::makeArray();
    std::vector<std::vector<Record>> all;
    if (const Json *list = manifest.find("phases")) {
        for (const Json &phase : list->array) {
            double wall_ms = 0;
            if (phase.boolOr("setup", false))
                for (int rep = 0; rep < 2; ++rep)
                    setup_ms.push_back(daemon.setUp());
            Json before = daemon.cacheStats();
            std::vector<Record> recs = daemon.runPhase(phase, &wall_ms);
            Json p = recordsToJson(recs);
            p.object["cache_before"] = std::move(before);
            p.object["cache_after"] = daemon.cacheStats();
            p.object["name"] = Json::makeString(phase.stringOr("name", "?"));
            p.object["rate"] = num(phase.numberOr("rate", 0));
            p.object["seconds"] = num(phase.numberOr("seconds", 0));
            p.object["wall_ms"] = num(wall_ms);
            phases.array.push_back(std::move(p));
            all.push_back(std::move(recs));
        }
    }
    result.object["setup_ms"] = numbers(setup_ms);
    result.object["phases"] = std::move(phases);
    result.object["overloaded"] =
        num(static_cast<double>(daemon.serverStats().overloaded));
    result.object["peak_rss_kb"] = num(peakRssKb());
    daemon.stop();

    // Checks, outside every timed phase.
    size_t failed = daemon.primeErrors();
    Json failures = Json::makeArray();
    auto fail = [&](const std::string &why) {
        ++failed;
        if (failures.array.size() < 20)
            failures.array.push_back(Json::makeString(why));
    };
    std::map<std::string, Device> devices;
    auto deviceOf = [&](const std::string &name) -> const Device & {
        if (!devices.count(name))
            devices.emplace(name, builtinDevice(name));
        return devices.at(name);
    };
    auto checkSource = [&](const Source &s, const std::string &qasm,
                           const std::string &what) -> StageMetrics {
        CheckOutcome c;
        try {
            c = checkOutput(
                qasm, specFromText(s.text, s.format, s.name),
                [&] { return programInputFromText(s.text, s.format, s.name); },
                deviceOf(s.device), s.router, s.placement, seed);
        } catch (const std::exception &e) {
            c.error = std::string("check threw: ") + e.what();
        }
        if (!c.error.empty())
            fail(what + ": " + c.error);
        return c.stats;
    };
    double gates = 0, cost = 0, depth = 0, fresh_gates = 0;
    for (size_t i = 0; i < daemon.pool().size(); ++i) {
        StageMetrics s = checkSource(daemon.pool()[i], daemon.primed()[i],
                                     "pool " + std::to_string(i));
        gates += static_cast<double>(s.gates);
        cost += s.cost;
        depth += static_cast<double>(s.depth);
    }
    size_t attempted = 0;
    for (const std::vector<Record> &recs : all) {
        for (const Record &r : recs) {
            ++attempted;
            std::string what = "request kind " + std::to_string(r.kind) +
                               " #" + std::to_string(r.index);
            if (!r.ok) {
                fail(what + " failed: " + r.code);
            } else if (r.kind == kHit && !r.sameAsPrimed) {
                fail(what + ": cached QASM differs from the primed bytes");
            } else if (r.kind == kMiss) {
                StageMetrics s = checkSource(daemon.fresh().at(r.index),
                                             r.qasm, what);
                fresh_gates += static_cast<double>(s.gates);
            } else if (r.kind == kAnalyze) {
                const Source &s = daemon.analyze().at(r.index);
                double gates = static_cast<double>(
                    programInputFromText(s.text, s.format, s.name).size());
                if (r.analyzeGates != gates)
                    fail(what + ": analyze reported " +
                         std::to_string(r.analyzeGates) + " gates, source has " +
                         std::to_string(gates));
            }
        }
    }
    result.object["attempted"] = num(static_cast<double>(attempted));
    result.object["failed"] = num(static_cast<double>(failed));
    result.object["failures"] = std::move(failures);
    result.object["out_gates"] = num(gates);
    result.object["out_cost"] = num(cost);
    result.object["out_depth"] = num(depth);
    result.object["fresh_out_gates"] = num(fresh_gates);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::cerr << "usage: perfbench_harness replay|compile|daemon|check "
                     "<manifest.json> <result.json>\n";
        return 2;
    }
    std::string mode = argv[1];
    try {
        Json manifest;
        std::string error;
        if (!service::parseJson(readFile(argv[2]), &manifest, &error))
            throw UserError(std::string("bad manifest: ") + error);
        Json result = Json::makeObject();
        int rc = 2;
        if (mode == "replay")
            rc = runReplay(manifest, result);
        else if (mode == "compile")
            rc = runCompileLoop(manifest, result);
        else if (mode == "daemon")
            rc = runDaemon(manifest, result);
        else if (mode == "check")
            rc = runCheck(manifest, result);
        else
            throw UserError("unknown mode '" + mode + "'");
        writeFile(argv[3], result.dump());
        return rc;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness " << mode << ": " << e.what()
                  << "\n";
        return 2;
    }
}
