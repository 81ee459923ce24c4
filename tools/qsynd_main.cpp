/**
 * @file
 * qsynd: the qsyn compile-server daemon. Binds a Unix-domain socket
 * (and optionally a loopback TCP port), keeps the compile cache and a
 * shared QMDD package warm across requests, and serves the
 * length-prefixed JSON protocol documented in service/protocol.hpp.
 *
 * SIGTERM/SIGINT trigger a graceful drain: no new work is accepted,
 * every admitted request finishes and gets its response, then the
 * process exits 0. The handler itself only flips an atomic and writes
 * one pipe byte (async-signal-safe); the main thread does the actual
 * teardown.
 */

#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli/options.hpp"
#include "common/errors.hpp"
#include "obs/expo.hpp"
#include "service/server.hpp"

namespace {

const std::string kHelp =
    "qsynd - qsyn compile-server daemon\n"
    "\n"
    "usage: qsynd --socket <path> [options]\n"
    "\n"
    "options:\n"
    "      --socket <path>      Unix-domain socket to serve (required)\n"
    "      --tcp <port>         also listen on 127.0.0.1:<port>\n"
    "      --threads <n>        concurrent compile slots (default:\n"
    "                           one per hardware thread)\n"
    "      --queue-depth <n>    admission queue length; requests past\n"
    "                           it get an immediate 'overloaded'\n"
    "                           response (default 16)\n"
    "      --max-qubits <n>     reject wider circuits (default: none)\n"
    "      --max-gates <n>      reject longer circuits (default: none)\n"
    "      --deadline <s>       per-request wall-time budget; clients\n"
    "                           may tighten it via deadline_ms but\n"
    "                           never exceed it (default: none)\n"
    "      --max-frame-mb <n>   largest accepted request frame\n"
    "                           (default 16)\n"
    "      --cache-dir <dir>    persistent compile-cache directory\n"
    "                           (default: memory tier only)\n"
    "      --cache-max-mb <n>   on-disk cache budget (default 256)\n"
    "      --no-share-manager   private QMDD package per request\n"
    "      --stats-interval <s> --metrics-prom refresh period\n"
    "                           (default 5 with --metrics-prom)\n"
    "  -h, --help               this text\n"
    "\n" +
    std::string(qsyn::cli::obsHelpText()) +
    "qsynd rewrites --metrics-prom every --stats-interval seconds\n"
    "and serves live metrics through the `stats` op; it takes no\n"
    "--trace-json or --metrics-json.\n";

qsyn::service::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsyn;
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        service::ServerConfig config;
        cli::ObsFlags obsFlags;
        double statsInterval = 0.0;
        size_t cacheMaxMb = 256;

        size_t i = 0;
        auto next = [&](const std::string &flag) -> std::string {
            if (i + 1 >= args.size())
                throw UserError("missing value for " + flag);
            return args[++i];
        };
        for (; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (cli::parseObsFlag(args, &i, &obsFlags))
                continue;
            if (arg == "-h" || arg == "--help") {
                std::cout << kHelp;
                return 0;
            } else if (arg == "--socket") {
                config.socketPath = next(arg);
            } else if (arg == "--tcp") {
                config.tcpPort = static_cast<int>(
                    cli::parseCountValue(arg, next(arg)));
                if (config.tcpPort < 1 || config.tcpPort > 65535)
                    throw UserError("--tcp wants a port in 1..65535");
            } else if (arg == "--threads") {
                config.workers = cli::parseCountValue(arg, next(arg));
            } else if (arg == "--queue-depth") {
                config.queueDepth =
                    cli::parseCountValue(arg, next(arg));
            } else if (arg == "--max-qubits") {
                config.maxQubits = static_cast<Qubit>(
                    cli::parseCountValue(arg, next(arg)));
            } else if (arg == "--max-gates") {
                config.maxGates = cli::parseCountValue(arg, next(arg));
            } else if (arg == "--deadline") {
                config.deadlineSeconds =
                    cli::parseDoubleValue(arg, next(arg));
                if (config.deadlineSeconds < 0.0)
                    throw UserError("--deadline must be >= 0");
            } else if (arg == "--max-frame-mb") {
                size_t mb = cli::parseCountValue(arg, next(arg));
                if (mb == 0 || mb > 1024)
                    throw UserError("--max-frame-mb wants 1..1024");
                config.maxFrameBytes =
                    static_cast<std::uint32_t>(mb) << 20;
            } else if (arg == "--cache-dir") {
                config.cacheDir = next(arg);
            } else if (arg == "--cache-max-mb") {
                cacheMaxMb = cli::parseCountValue(arg, next(arg));
                if (cacheMaxMb == 0)
                    throw UserError("--cache-max-mb must be >= 1");
            } else if (arg == "--no-share-manager") {
                config.shareManager = false;
            } else if (arg == "--stats-interval") {
                statsInterval = cli::parseDoubleValue(arg, next(arg));
                if (statsInterval < 0.0)
                    throw UserError("--stats-interval must be >= 0");
            } else {
                throw UserError("unknown option '" + arg +
                                "' (try --help)");
            }
        }
        if (config.socketPath.empty())
            throw UserError("--socket is required (try --help)");
        // A daemon has no end-of-run snapshot for --trace-json or
        // --metrics-json to capture. exportFlag() names both before
        // --metrics-prom, so it returns --metrics-prom only when that
        // is the sole export.
        if (const char *flag = obsFlags.exportFlag();
            flag != nullptr && std::string(flag) != "--metrics-prom")
            throw UserError(std::string(flag) +
                            " is not supported by qsynd (see --help)");
        config.cacheMaxBytes = static_cast<std::uint64_t>(cacheMaxMb)
                               << 20;

        // The daemon always carries a metrics sink: the `stats` op
        // serves it live, and --metrics-prom persists it for scrapes.
        cli::ObsSession session(obsFlags, "qsynd-main",
                                /*alwaysSink=*/true);
        obs::Sink &sink = *session.sink();
        const std::string &metricsPromPath = obsFlags.metricsPromPath;

        service::Server server(config);
        g_server = &server;
        struct sigaction sa = {};
        sa.sa_handler = onSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        // Belt next to the MSG_NOSIGNAL suspenders in protocol.cpp.
        ::signal(SIGPIPE, SIG_IGN);

        server.start();
        std::cerr << "qsynd: serving " << config.socketPath << "\n";

        if (!metricsPromPath.empty() && statsInterval <= 0.0)
            statsInterval = 5.0;
        if (!metricsPromPath.empty()) {
            // Piggyback the metrics flush on the stop-wait loop.
            std::thread flusher([&] {
                obs::nameCurrentThread("qsynd-metrics");
                while (server.running()) {
                    std::string error;
                    obs::writePrometheusFile(sink.metrics(),
                                             metricsPromPath, &error);
                    for (double waited = 0.0;
                         waited < statsInterval && server.running();
                         waited += 0.2) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(200));
                    }
                }
            });
            server.waitForStopRequest();
            server.stop();
            flusher.join();
            std::string error;
            obs::writePrometheusFile(sink.metrics(), metricsPromPath,
                                     &error);
        } else {
            server.waitForStopRequest();
            server.stop();
        }
        g_server = nullptr;
        std::cerr << "qsynd: drained, bye\n";
        return 0;
    } catch (const UserError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const Error &e) {
        std::cerr << "internal failure: " << e.what() << "\n";
        return 2;
    }
}
