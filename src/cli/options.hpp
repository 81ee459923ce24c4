/**
 * @file
 * Command-line interface of the qsync compiler driver: argument
 * grammar, parsed options, and help text. Kept in the library (rather
 * than the tool's main.cpp) so it is unit-testable. Also home of what
 * every qsyn tool shares on its command line: the strict numeric
 * value parsers and the observability flags with their session.
 */

#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "obs/obs.hpp"

namespace qsyn::cli {

/** The observability flags qsync, qverify, qsim and qsynd share. */
struct ObsFlags
{
    /** --trace-json: Chrome trace-event JSON written at exit (empty =
     *  none); loadable in Perfetto / chrome://tracing. */
    std::string tracePath;
    /** --metrics-json: metrics snapshot JSON written at exit. */
    std::string metricsPath;
    /** --metrics-prom: Prometheus text exposition. */
    std::string metricsPromPath;
    /** --crash-dump: arm the flight-recorder crash handler; a crashing
     *  run dumps `qsyn-crash-<pid>.json` into this directory. */
    std::string crashDumpDir;
    /** --log-level override; unset = QSYN_LOG env (default quiet). */
    std::optional<obs::LogLevel> logLevel;

    /** The first export flag given, in the order --trace-json,
     *  --metrics-json, --metrics-prom; null when none was. */
    const char *exportFlag() const;
};

/**
 * When `args[*i]` is one of the shared observability flags, store its
 * value in `*flags`, leave `*i` on the value, and return true; return
 * false for any other argument. Throws UserError on a missing value or
 * an unknown log level.
 */
bool parseObsFlag(const std::vector<std::string> &args, size_t *i,
                  ObsFlags *flags);

/** The --help lines of the shared observability flags. */
const char *obsHelpText();

/**
 * RAII: one tool run's observability. The constructor sets the log
 * level, starts the flight recorder, arms the crash handler when
 * --crash-dump was given, installs a sink when an export was requested
 * (or `alwaysSink`: the daemon serves its metrics live), and names the
 * calling thread. The destructor uninstalls the sink.
 */
class ObsSession
{
  public:
    ObsSession(ObsFlags flags, const char *threadName,
               bool alwaysSink = false);
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    /** The installed sink, or null when none was installed. */
    obs::Sink *sink() { return installed_ ? &sink_ : nullptr; }

    /** Write the requested export files, announcing each as
     *  "wrote <path>" on `err`. Throws UserError when one cannot be
     *  written. */
    void writeFiles(std::ostream &err);

  private:
    ObsFlags flags_;
    obs::Sink sink_;
    bool installed_;
};

/** Fully parsed command line. */
struct CliOptions
{
    /**
     * Input circuit files (.qasm/.qc/.real) or PLAs (.pla). One input
     * compiles inline; several compile as a batch (see --jobs),
     * emitted strictly in input order.
     */
    std::vector<std::string> inputs;
    /** Batch worker threads (1 = sequential, 0 = hardware threads). */
    size_t jobs = 1;
    /** Share one concurrent QMDD package across batch workers'
     *  verifications (--no-share-manager turns it off). Output bytes
     *  are identical either way; sharing dedupes node universes. */
    bool shareManager = true;
    /** Output QASM path; empty = stdout. */
    std::string outputPath;
    /** Built-in device name, or empty when deviceFile is used. */
    std::string deviceName = "ibmqx4";
    /** Custom device description file (overrides deviceName). */
    std::string deviceFile;
    /** Simulator width (used when deviceName == "simulator"). */
    Qubit simulatorQubits = 32;

    CompileOptions compile;
    bool printStats = true;
    bool emitQasm = true;
    bool showHelp = false;
    bool listDevices = false;
    /** Print ASCII drawings of the input and compiled circuits. */
    bool drawCircuits = false;
    /** Print the compiled circuit's schedule summary: depth,
     *  parallelism, widest layer and idle wire-layers of its
     *  dependency DAG (the depth --analyze and reports give). */
    bool printSchedule = false;
    /** Run the static analyzer over the compiled circuit: DAG metrics
     *  plus lint findings to stderr, an "analysis" object in --report,
     *  and analysis.* obs counters. */
    bool analyze = false;
    /** Write a JSON compile report here (empty = none). */
    std::string reportPath;
    /** Periodic batch stats interval, seconds (0 = off). */
    double statsIntervalSeconds = 0.0;
    /** Hidden fault-injection flag (--test-crash): abort() after the
     *  compile so the crash-dump path has a deterministic test. */
    bool testCrash = false;
    /** --trace-json, --metrics-json, --metrics-prom, --crash-dump,
     *  --log-level. With --stats-interval, --metrics-prom is also
     *  rewritten periodically while a batch runs. */
    ObsFlags obs;
    /** Rebase the emitted circuit's two-qubit basis: "" (keep CNOT)
     *  or "cz" (emit CZ + Hadamards, for CZ-native platforms). */
    std::string rebase;

    /** Persistent compile-cache directory (--cache-dir); empty = the
     *  in-process tier only. */
    std::string cacheDir;
    /** Memoize compiles at all (--no-cache clears it). */
    bool useCache = true;
    /** On-disk cache budget in MiB (--cache-max-mb). */
    size_t cacheMaxMb = 256;

    /** Per-compile wall-time budget in seconds (--deadline; 0 = off).
     *  Cooperative: polled at the per-gate QMDD safe point, so an
     *  expired compile unwinds cleanly with a diagnosed error. */
    double deadlineSeconds = 0.0;
    /** Render --report with ReportOptions::deterministic(): no
     *  timings, no QMDD table counters. Byte-comparable across runs
     *  and against a `qsync --remote` report. */
    bool reportDeterministic = false;
    /** qsynd Unix socket (--remote); non-empty sends every compile to
     *  the daemon instead of compiling in-process. */
    std::string remoteSocket;
};

/**
 * Parse argv-style arguments (excluding argv[0]). Throws UserError on
 * malformed input.
 */
CliOptions parseCliArguments(const std::vector<std::string> &args);

/** @name Strict numeric flag-value parsers.
 * Shared by every qsyn tool so a value like "x" or "-2" for --jobs is
 * a diagnosed UserError everywhere, never an uncaught std::stoul
 * exception. `flag` names the offending option in the message.
 */
/// @{
double parseDoubleValue(const std::string &flag, const std::string &value);
size_t parseCountValue(const std::string &flag, const std::string &value);
/// @}

/** The --help text. */
std::string cliHelpText();

/**
 * Run the compiler per the options; returns the process exit code.
 * Output goes to `out`, diagnostics to `err`.
 */
int runCli(const CliOptions &options, std::ostream &out,
           std::ostream &err);

/**
 * `qsync --remote`: ship each input to a qsynd daemon and emit the
 * returned QASM/report bytes verbatim (they match what the same flags
 * would produce locally). Called by runCli; exposed for tests.
 */
int runRemote(const CliOptions &options, std::ostream &out,
              std::ostream &err);

} // namespace qsyn::cli
