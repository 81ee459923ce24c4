/**
 * @file
 * qsim: DD-based circuit simulation from the command line. Loads a
 * circuit, applies it to a computational basis state with the vector-
 * QMDD engine (scales far past dense simulation on structured
 * circuits — the 96-qubit compiled benchmarks simulate in
 * milliseconds), and prints the nonzero amplitudes or a probability
 * summary.
 *
 * usage: qsim [options] <circuit.{qasm,qc,real}>
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "common/errors.hpp"
#include "common/stopwatch.hpp"
#include "frontend/loader.hpp"
#include "obs/obs.hpp"
#include "qmdd/vector.hpp"

namespace {

void
printHelp()
{
    std::cout
        << "qsim - vector-QMDD circuit simulation\n\n"
           "usage: qsim [options] <circuit>\n\n"
           "options:\n"
           "      --input <bits>       initial basis state as a bit string\n"
           "                           (qubit 0 first; default all zeros)\n"
           "      --top <n>            print at most n amplitudes\n"
           "                           (default 16)\n"
           "      --threshold <p>      hide amplitudes with |a|^2 < p\n"
           "                           (default 1e-9)\n"
           "  -h, --help               this text\n\n"
        << qsyn::cli::obsHelpText();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsyn;
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string path;
    std::string input_bits;
    cli::ObsFlags obs_flags;
    size_t top = 16;
    double threshold = 1e-9;

    try {
        for (size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= args.size())
                    throw UserError("missing value for " + arg);
                return args[++i];
            };
            if (cli::parseObsFlag(args, &i, &obs_flags))
                continue;
            if (arg == "-h" || arg == "--help") {
                printHelp();
                return 0;
            } else if (arg == "--input") {
                input_bits = next();
            } else if (arg == "--top") {
                top = cli::parseCountValue(arg, next());
            } else if (arg == "--threshold") {
                threshold = cli::parseDoubleValue(arg, next());
            } else if (!arg.empty() && arg[0] == '-') {
                throw UserError("unknown option '" + arg + "'");
            } else if (path.empty()) {
                path = arg;
            } else {
                throw UserError("unexpected extra argument '" + arg +
                                "'");
            }
        }
        if (path.empty())
            throw UserError("no circuit file (try --help)");

        cli::ObsSession session(obs_flags, "qsim-main");

        Circuit circuit = frontend::loadCircuitFile(path);
        Qubit n = circuit.numQubits();
        std::cerr << path << ": " << n << " qubits, " << circuit.size()
                  << " gates\n";

        Stopwatch sw;
        dd::Package pkg;
        dd::VectorEngine engine(pkg);
        dd::Edge state = engine.makeBasisState(0, n);
        if (!input_bits.empty()) {
            if (input_bits.size() != n)
                throw UserError("--input needs exactly " +
                                std::to_string(n) + " bits");
            Circuit prep(n);
            for (Qubit q = 0; q < n; ++q) {
                if (input_bits[q] == '1')
                    prep.addX(q);
                else if (input_bits[q] != '0')
                    throw UserError("--input must be 0/1 bits");
            }
            state = engine.applyCircuit(prep, state);
        }
        {
            obs::Span span("qsim.simulate", "sim");
            span.arg("qubits", n);
            span.arg("gates", circuit.size());
            state = engine.applyCircuit(circuit, state);
        }
        std::cerr << "simulated in " << sw.seconds() << " s ("
                  << pkg.countNodes(state) << " state nodes)\n";
        if (session.sink() != nullptr)
            pkg.publishMetrics();
        session.writeFiles(std::cerr);

        if (n > 24) {
            std::cout << "norm^2 = "
                      << engine.normSquared(state, static_cast<int>(n))
                      << " (register too wide to enumerate amplitudes;"
                      << " use the library API for targeted queries)\n";
            return 0;
        }

        size_t printed = 0;
        for (std::uint64_t index = 0;
             index < (std::uint64_t{1} << n) && printed < top; ++index) {
            Cplx a = engine.amplitude(state, index,
                                      static_cast<int>(n));
            double p = std::norm(a);
            if (p < threshold)
                continue;
            std::cout << "|";
            for (Qubit q = 0; q < n; ++q)
                std::cout << ((index >> (n - 1 - q)) & 1);
            std::cout << ">  " << a.real()
                      << (a.imag() >= 0 ? "+" : "") << a.imag()
                      << "i   p=" << p << "\n";
            ++printed;
        }
        return 0;
    } catch (const UserError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const Error &e) {
        std::cerr << "internal failure: " << e.what() << "\n";
        return 2;
    }
}
