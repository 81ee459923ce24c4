/**
 * @file
 * Tests for the qsync command-line driver: argument parsing, help and
 * device listing, and end-to-end file compilation through runCli.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "cli/options.hpp"
#include "common/errors.hpp"
#include "frontend/qasm_parser.hpp"
#include "obs/obs.hpp"
#include "qmdd/equivalence.hpp"
#include "service/json.hpp"

using namespace qsyn;
using namespace qsyn::cli;

namespace {

/** Write a temp file; returns its path. */
std::string
writeTemp(const std::string &name, const std::string &content)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

/** Path of a checked-in sample circuit. */
std::string
sample(const std::string &name)
{
    return std::string(QSYN_DATA_DIR) + "/" + name;
}

/** Compile `input` with `flags` plus --report; returns the parsed
 *  report and leaves stderr in `*err`. */
service::Json
compileReport(std::vector<std::string> flags, const std::string &input,
              std::string *err)
{
    std::string path = ::testing::TempDir() + "cli_report_probe.json";
    flags.insert(flags.end(), {"--report", path, "--no-emit", input});
    std::ostringstream out, err_os;
    EXPECT_EQ(runCli(parseCliArguments(flags), out, err_os), 0)
        << err_os.str();
    *err = err_os.str();
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    service::Json report;
    std::string error;
    EXPECT_TRUE(service::parseJson(text.str(), &report, &error)) << error;
    return report;
}

} // namespace

TEST(CliParse, Defaults)
{
    CliOptions opts = parseCliArguments({"circuit.qasm"});
    ASSERT_EQ(opts.inputs.size(), 1u);
    EXPECT_EQ(opts.inputs[0], "circuit.qasm");
    EXPECT_EQ(opts.jobs, 1u);
    EXPECT_EQ(opts.deviceName, "ibmqx4");
    EXPECT_TRUE(opts.compile.optimize);
    EXPECT_EQ(opts.compile.verify, VerifyMode::Full);
}

TEST(CliParse, AllTheFlags)
{
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx5", "-o", "out.qasm", "--placement", "greedy",
         "--mcx", "dirty", "--no-ti-optimize", "--weight-t", "2",
         "--weight-cnot", "0.5", "--weight-gate", "3", "--no-verify",
         "--quiet", "in.real"});
    EXPECT_EQ(opts.deviceName, "ibmqx5");
    EXPECT_EQ(opts.outputPath, "out.qasm");
    EXPECT_EQ(opts.compile.placement, route::PlacementStrategy::Greedy);
    EXPECT_EQ(opts.compile.mcxStrategy,
              decompose::McxStrategy::DirtyVChain);
    EXPECT_FALSE(opts.compile.optimizeTechIndependent);
    EXPECT_DOUBLE_EQ(opts.compile.optimizer.weights.tWeight, 2.0);
    EXPECT_DOUBLE_EQ(opts.compile.optimizer.weights.cnotWeight, 0.5);
    EXPECT_DOUBLE_EQ(opts.compile.optimizer.weights.gateWeight, 3.0);
    EXPECT_EQ(opts.compile.verify, VerifyMode::Off);
    EXPECT_FALSE(opts.printStats);
    ASSERT_EQ(opts.inputs.size(), 1u);
    EXPECT_EQ(opts.inputs[0], "in.real");
}

TEST(CliParse, RouterSelection)
{
    EXPECT_EQ(parseCliArguments({"a.qasm"}).compile.routing.router,
              route::RouterKind::Ctr);
    EXPECT_EQ(parseCliArguments({"--router", "sabre", "a.qasm"})
                  .compile.routing.router,
              route::RouterKind::Sabre);
    EXPECT_EQ(parseCliArguments({"--router", "ctr", "a.qasm"})
                  .compile.routing.router,
              route::RouterKind::Ctr);
    EXPECT_THROW(parseCliArguments({"--router", "astar", "a.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--router"}), UserError);
}

TEST(CliParse, BatchInputsAndJobs)
{
    CliOptions opts = parseCliArguments(
        {"--jobs", "4", "a.qasm", "b.qc", "c.real"});
    EXPECT_EQ(opts.jobs, 4u);
    ASSERT_EQ(opts.inputs.size(), 3u);
    EXPECT_EQ(opts.inputs[0], "a.qasm");
    EXPECT_EQ(opts.inputs[1], "b.qc");
    EXPECT_EQ(opts.inputs[2], "c.real");

    EXPECT_EQ(parseCliArguments({"-j", "0", "a.qasm"}).jobs, 0u);
    EXPECT_THROW(parseCliArguments({"--jobs", "x", "a.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--jobs", "-2", "a.qasm"}),
                 UserError);
    // Single-file side channels reject multi-input batches.
    EXPECT_THROW(
        parseCliArguments({"-o", "out.qasm", "a.qasm", "b.qasm"}),
        UserError);
    EXPECT_THROW(
        parseCliArguments({"--report", "r.json", "a.qasm", "b.qasm"}),
        UserError);
    EXPECT_THROW(parseCliArguments({"--draw", "a.qasm", "b.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--schedule", "a.qasm", "b.qasm"}),
                 UserError);
}

TEST(CliParse, Errors)
{
    EXPECT_THROW(parseCliArguments({}), UserError);
    EXPECT_THROW(parseCliArguments({"--bogus", "x.qasm"}), UserError);
    EXPECT_THROW(parseCliArguments({"--device"}), UserError);
    EXPECT_THROW(parseCliArguments({"--weight-t", "abc", "x.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--mcx", "magic", "x.qasm"}),
                 UserError);
}

TEST(CliRun, HelpAndDeviceList)
{
    std::ostringstream out, err;
    CliOptions help = parseCliArguments({"--help"});
    EXPECT_EQ(runCli(help, out, err), 0);
    EXPECT_NE(out.str().find("qsync"), std::string::npos);

    std::ostringstream out2, err2;
    CliOptions list = parseCliArguments({"--list-devices"});
    EXPECT_EQ(runCli(list, out2, err2), 0);
    EXPECT_NE(out2.str().find("ibmqx4"), std::string::npos);
    EXPECT_NE(out2.str().find("proposed_96"), std::string::npos);
}

TEST(CliRun, CompilesQasmFileEndToEnd)
{
    std::string path = writeTemp(
        "cli_in.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"-d", "ibmqx4", path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    // Output must be valid QASM of the device width.
    Circuit compiled = frontend::parseQasm(out.str());
    EXPECT_EQ(compiled.numQubits(), 5u);
    EXPECT_NE(err.str().find("verification:      equivalent"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, CompilesPlaThroughEsopFrontEnd)
{
    std::string path = writeTemp("cli_in.pla", ".i 2\n.o 1\n"
                                               ".type esop\n"
                                               "11 1\n.e\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"-d", "simulator", path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(out.str().find("OPENQASM"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, CustomDeviceFile)
{
    std::string dev_path = writeTemp("cli_ring.txt", "device ring3 3\n"
                                                     "0: 1\n1: 2\n2: 0\n");
    std::string circ_path = writeTemp(
        "cli_ring.qasm", "OPENQASM 2.0;\nqreg q[3];\ncx q[2],q[1];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"--device-file", dev_path, circ_path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(err.str().find("ring3"), std::string::npos);
    std::remove(dev_path.c_str());
    std::remove(circ_path.c_str());
}

TEST(CliRun, BatchOutputIsOrderedAndJobsInvariant)
{
    std::string a = writeTemp(
        "cli_batch_a.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::string b = writeTemp(
        "cli_batch_b.qasm",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n");
    std::string c = writeTemp(
        "cli_batch_c.qasm",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[0];\nh q[1];\n");

    auto run = [&](const char *jobs) {
        std::ostringstream out, err;
        CliOptions opts = parseCliArguments(
            {"-d", "ibmqx4", "--jobs", jobs, a, b, c});
        EXPECT_EQ(runCli(opts, out, err), 0);
        return std::make_pair(out.str(), err.str());
    };
    auto seq = run("1");
    // QASM concatenated to stdout strictly in input order.
    size_t pos_a = seq.first.find(a);
    size_t pos_b = seq.first.find(b);
    size_t pos_c = seq.first.find(c);
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_b, std::string::npos);
    ASSERT_NE(pos_c, std::string::npos);
    EXPECT_LT(pos_a, pos_b);
    EXPECT_LT(pos_b, pos_c);
    EXPECT_NE(seq.second.find("batch:"), std::string::npos);

    // Parallel stdout is byte-identical to the sequential run.
    auto par = run("4");
    EXPECT_EQ(seq.first, par.first);

    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(c.c_str());
}

TEST(CliRun, BatchIsolatesFailedInputs)
{
    std::string good = writeTemp(
        "cli_batch_good.qasm",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx4", "/nonexistent/bad.qasm", good});
    EXPECT_EQ(runCli(opts, out, err), 1);
    // The good input still compiles and is emitted.
    EXPECT_NE(out.str().find("OPENQASM"), std::string::npos);
    EXPECT_NE(err.str().find("error"), std::string::npos);
    EXPECT_NE(err.str().find("1/2"), std::string::npos);
    std::remove(good.c_str());
}

TEST(CliRun, MissingInputReportsError)
{
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"/nonexistent/foo.qasm"});
    EXPECT_EQ(runCli(opts, out, err), 1);
    EXPECT_NE(err.str().find("error:"), std::string::npos);
}

TEST(CliRun, WritesOutputFile)
{
    std::string in_path = writeTemp(
        "cli_out_test.qasm", "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n");
    std::string out_path = ::testing::TempDir() + "cli_result.qasm";
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx2", "-o", out_path, "--quiet", in_path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    std::ifstream check(out_path);
    EXPECT_TRUE(check.good());
    std::remove(in_path.c_str());
    std::remove(out_path.c_str());
}

TEST(CliRun, DrawScheduleAndReportFlags)
{
    std::string in_path = writeTemp(
        "cli_extras.qasm",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n");
    std::string report_path = ::testing::TempDir() + "cli_report.json";
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments({"-d", "ibmqx2", "--draw",
                                         "--schedule", "--report",
                                         report_path, "--no-emit",
                                         in_path});
    EXPECT_TRUE(opts.drawCircuits);
    EXPECT_TRUE(opts.printSchedule);
    EXPECT_EQ(opts.reportPath, report_path);
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(err.str().find("--- input ---"), std::string::npos);
    EXPECT_NE(err.str().find("schedule:"), std::string::npos);
    std::ifstream report(report_path);
    ASSERT_TRUE(report.good());
    std::stringstream buffer;
    buffer << report.rdbuf();
    EXPECT_NE(buffer.str().find("\"verification\": \"equivalent\""),
              std::string::npos);
    std::remove(in_path.c_str());
    std::remove(report_path.c_str());
}

TEST(CliRun, ScheduleAndAnalyzePrintOneDepth)
{
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx5", "--schedule", "--analyze", "--no-emit",
         "--quiet", sample("mod5_cascade.real")});
    ASSERT_EQ(runCli(opts, out, err), 0) << err.str();
    auto depthAfter = [&](const std::string &label) -> long {
        size_t pos = err.str().find(label);
        EXPECT_NE(pos, std::string::npos) << label << " in:\n"
                                          << err.str();
        if (pos == std::string::npos)
            return -1;
        return std::stol(err.str().substr(pos + label.size()));
    };
    long schedule = depthAfter("schedule:          depth ");
    EXPECT_GT(schedule, 0);
    EXPECT_EQ(schedule, depthAfter("analysis:          depth "));
}

TEST(CliRun, ReportMeasuresCostDeltaOfEveryEffectivePass)
{
    // No sink, no debug log: the report alone must turn on per-pass
    // cost accounting, or cost_delta reads a placeholder 0.
    std::string err;
    service::Json report =
        compileReport({"-d", "ibmqx5", "--quiet"},
                      sample("mod5_cascade.real"), &err);
    const service::Json *passes = report.find("optimizer_passes");
    ASSERT_NE(passes, nullptr);
    size_t effective = 0;
    for (const service::Json &pass : passes->array) {
        if (pass.numberOr("gates_removed", 0.0) <= 0.0)
            continue;
        ++effective;
        EXPECT_NE(pass.numberOr("cost_delta", 0.0), 0.0)
            << pass.stringOr("name", "?");
    }
    EXPECT_GT(effective, 0u);
}

TEST(CliRun, ReportNamesTheVerifyModeThatRan)
{
    // mod5_cascade compiles with an ancilla, which the miter cannot
    // project: the full check runs, and stderr and the report say so.
    std::string err;
    service::Json fallback =
        compileReport({"-d", "ibmqx5", "--verify-miter", "--quiet"},
                      sample("mod5_cascade.real"), &err);
    EXPECT_EQ(fallback.stringOr("verify_mode", ""), "full");
    EXPECT_NE(err.find("--verify-miter ran the full check"),
              std::string::npos)
        << err;

    service::Json miter =
        compileReport({"-d", "ibmqx5", "--verify-miter", "--quiet"},
                      sample("toffoli.qasm"), &err);
    EXPECT_EQ(miter.stringOr("verify_mode", ""), "miter");
    EXPECT_EQ(miter.stringOr("verification", ""), "equivalent");
    EXPECT_EQ(err.find("full check"), std::string::npos) << err;

    service::Json off = compileReport({"-d", "ibmqx5", "--no-verify"},
                                      sample("toffoli.qasm"), &err);
    EXPECT_EQ(off.stringOr("verify_mode", ""), "off");
    EXPECT_EQ(off.stringOr("verification", ""), "skipped");
}

TEST(CliRun, FidelityAndPhasePolyFlagsParse)
{
    CliOptions opts = parseCliArguments(
        {"--fidelity-aware", "--phase-poly", "x.qasm"});
    EXPECT_TRUE(opts.compile.routing.fidelityAware);
    EXPECT_TRUE(opts.compile.optimizer.enablePhasePolynomial);
}

TEST(CliParse, ObservabilityFlags)
{
    CliOptions opts = parseCliArguments(
        {"--trace-json", "t.json", "--metrics-json", "m.json",
         "--log-level", "debug", "x.qasm"});
    EXPECT_EQ(opts.obs.tracePath, "t.json");
    EXPECT_EQ(opts.obs.metricsPath, "m.json");
    ASSERT_TRUE(opts.obs.logLevel.has_value());
    EXPECT_EQ(*opts.obs.logLevel, obs::LogLevel::Debug);
    EXPECT_THROW(parseCliArguments({"--log-level", "loud", "x.qasm"}),
                 UserError);
    EXPECT_THROW(parseCliArguments({"--trace-json"}), UserError);
    // --remote compiles nothing locally: every export is refused, the
    // other shared flags are kept.
    for (const char *flag :
         {"--trace-json", "--metrics-json", "--metrics-prom"}) {
        EXPECT_THROW(parseCliArguments(
                         {"--remote", "d.sock", flag, "f", "x.qasm"}),
                     UserError)
            << flag;
    }
    EXPECT_NO_THROW(parseCliArguments({"--remote", "d.sock",
                                       "--crash-dump", ".", "--log-level",
                                       "info", "x.qasm"}));
}

TEST(CliParse, RemoteRejectsCompileFlagsTheRequestDoesNotCarry)
{
    const std::vector<std::vector<std::string>> dropped = {
        {"--phase-poly"},        {"--mcx", "roots"},
        {"--weight-t", "2"},     {"--weight-cnot", "2"},
        {"--weight-gate", "2"},  {"--no-ti-optimize"},
        {"--fidelity-aware"},    {"--test-omit-swap-back"},
    };
    for (const std::vector<std::string> &flag : dropped) {
        std::vector<std::string> args = {"--remote", "d.sock"};
        args.insert(args.end(), flag.begin(), flag.end());
        args.push_back("x.qasm");
        try {
            parseCliArguments(args);
            ADD_FAILURE() << flag[0] << " was accepted with --remote";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          flag[0] + " is local-only"),
                      std::string::npos)
                << e.what();
        }
    }
    // Flags the request carries still combine with --remote.
    EXPECT_NO_THROW(parseCliArguments(
        {"--remote", "d.sock", "-d", "ibmqx5", "--no-optimize",
         "--verify-miter", "--placement", "greedy", "--router", "sabre",
         "--deadline", "5", "x.qasm"}));
}

TEST(CliRun, TraceAndMetricsJsonFiles)
{
    std::string in_path = writeTemp(
        "cli_trace.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::string trace_path = ::testing::TempDir() + "cli_trace.json";
    std::string metrics_path = ::testing::TempDir() + "cli_metrics.json";
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx4", "--trace-json", trace_path, "--metrics-json",
         metrics_path, "--no-emit", "--quiet", in_path});
    EXPECT_EQ(runCli(opts, out, err), 0);

    std::ifstream trace_in(trace_path);
    ASSERT_TRUE(trace_in.good());
    std::stringstream trace;
    trace << trace_in.rdbuf();
    // Chrome trace-event shape with spans from every compile stage.
    EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.str().find("\"ph\": \"X\""), std::string::npos);
    for (const char *span :
         {"compile.decompose", "compile.place", "compile.route",
          "compile.optimize", "compile.verify", "frontend.parse",
          "opt.cancellation", "qmdd.equivalence_check"})
        EXPECT_NE(trace.str().find(span), std::string::npos) << span;

    std::ifstream metrics_in(metrics_path);
    ASSERT_TRUE(metrics_in.good());
    std::stringstream metrics;
    metrics << metrics_in.rdbuf();
    for (const char *metric :
         {"qmdd.unique_hit_rate", "qmdd.compute_hit_rate",
          "route.swaps_inserted", "opt.gates_removed",
          "frontend.gates_parsed"})
        EXPECT_NE(metrics.str().find(metric), std::string::npos)
            << metric;

    // The sink must be uninstalled once runCli returns.
    EXPECT_EQ(obs::sink(), nullptr);
    std::remove(in_path.c_str());
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

TEST(CliRun, EveryEmittedMetricIsInTheCatalog)
{
    // A ctr compile, a sabre --analyze compile, and a two-worker batch
    // through the compile cache: together they reach every layer that
    // publishes metrics from qsync.
    namespace fs = std::filesystem;
    const std::string metrics_path =
        ::testing::TempDir() + "cli_catalog_metrics.json";
    const std::string cache_dir =
        ::testing::TempDir() + "cli_catalog_cache";
    fs::remove_all(cache_dir);
    const std::vector<std::vector<std::string>> runs = {
        {"-d", "ibmqx5", sample("adder.pla")},
        {"-d", "ibmqx5", "--router", "sabre", "--analyze",
         sample("mod5_cascade.real")},
        {"-d", "ibmqx5", "--jobs", "2", "--cache-dir", cache_dir,
         sample("toffoli.qasm"), sample("adder.pla"),
         sample("clifford_t.qc")},
    };
    std::set<std::string> emitted;
    for (std::vector<std::string> args : runs) {
        args.insert(args.end(), {"--metrics-json", metrics_path,
                                 "--no-emit", "--quiet"});
        std::ostringstream out, err;
        ASSERT_EQ(runCli(parseCliArguments(args), out, err), 0)
            << err.str();
        std::ifstream in(metrics_path);
        std::stringstream text;
        text << in.rdbuf();
        service::Json snapshot;
        std::string error;
        ASSERT_TRUE(service::parseJson(text.str(), &snapshot, &error))
            << error;
        for (const char *kind : {"counters", "gauges", "histograms"}) {
            for (const auto &entry : snapshot.object[kind].object)
                emitted.insert(entry.first);
        }
    }
    std::remove(metrics_path.c_str());
    fs::remove_all(cache_dir);

    // Guard against a vacuous pass: each run's own layer showed up.
    for (const char *name :
         {"route.swaps_inserted", "route.sabre.lookahead_swaps",
          "analysis.findings", "batch.speedup", "cache.misses",
          "qmdd.unique_rehashes", "compile.latency_us"})
        EXPECT_EQ(emitted.count(name), 1u) << name;

    std::ifstream doc_in(std::string(QSYN_DOCS_DIR) +
                         "/observability.md");
    ASSERT_TRUE(doc_in.good());
    std::stringstream doc;
    doc << doc_in.rdbuf();
    for (const std::string &name : emitted) {
        EXPECT_NE(doc.str().find("`" + name + "`"), std::string::npos)
            << name << " is emitted but missing from "
            << "docs/observability.md";
    }
}

TEST(CliRun, DebugLogLevelPrintsPassBreakdown)
{
    std::string in_path = writeTemp(
        "cli_debug.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n"
        "ccx q[0],q[1],q[2];\n");
    std::ostringstream out, err, log;
    obs::setLogStream(&log); // keep test output clean
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx4", "--log-level", "debug", "--no-emit", in_path});
    int rc = runCli(opts, out, err);
    obs::setLogStream(nullptr);
    obs::setLogLevel(obs::LogLevel::Quiet); // undo runCli's override
    EXPECT_EQ(rc, 0);
    EXPECT_NE(err.str().find("optimizer passes"), std::string::npos);
    EXPECT_NE(err.str().find("cancellation"), std::string::npos);
    std::remove(in_path.c_str());
}

TEST(CliRun, RebaseToCzEmitsCzBasis)
{
    std::string in_path = writeTemp(
        "cli_rebase.qasm",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n");
    std::ostringstream out, err;
    CliOptions opts = parseCliArguments(
        {"-d", "ibmqx2", "--rebase", "cz", "--quiet", in_path});
    EXPECT_EQ(runCli(opts, out, err), 0);
    EXPECT_NE(out.str().find("cz "), std::string::npos);
    EXPECT_EQ(out.str().find("cx "), std::string::npos);
    // The rebased output still parses and equals the original.
    Circuit emitted = frontend::parseQasm(out.str());
    Circuit original(5);
    original.addCnot(0, 1);
    dd::Package pkg;
    dd::EquivalenceChecker checker(pkg);
    EXPECT_TRUE(dd::isEquivalent(checker.check(original, emitted)));
    std::remove(in_path.c_str());
    EXPECT_THROW(parseCliArguments({"--rebase", "xy", "a.qasm"}),
                 UserError);
}
