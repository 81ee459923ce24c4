#include "cache/serialize.hpp"

#include <mutex>
#include <set>

#include "common/errors.hpp"
#include "ir/gate_kind.hpp"

namespace qsyn::cache {

namespace {

[[noreturn]] void
malformed(const char *what)
{
    throw Error(std::string("cache: malformed artifact: ") + what);
}

/**
 * PassReport/PassSnapshot carry `const char *` names that normally
 * point at string literals inside the optimizer. Decoded names are
 * interned here so the pointers stay valid for the life of the
 * process, exactly like the literals they replace.
 */
const char *
internPassName(const std::string &name)
{
    static std::mutex mu;
    static std::set<std::string> names;
    std::lock_guard<std::mutex> lock(mu);
    return names.insert(name).first->c_str();
}

} // namespace

void
ByteWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
ByteWriter::str(std::string_view s)
{
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

std::uint8_t
ByteReader::u8()
{
    if (pos_ + 1 > bytes_.size())
        malformed("truncated");
    return bytes_[pos_++];
}

std::uint32_t
ByteReader::u32()
{
    if (pos_ + 4 > bytes_.size())
        malformed("truncated");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return v;
}

std::uint64_t
ByteReader::u64()
{
    if (pos_ + 8 > bytes_.size())
        malformed("truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return v;
}

double
ByteReader::f64()
{
    std::uint64_t bits = u64();
    double v = 0;
    __builtin_memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
ByteReader::str()
{
    std::uint64_t size = u64();
    if (size > bytes_.size() - pos_)
        malformed("truncated string");
    std::string s(bytes_.begin() + static_cast<long>(pos_),
                  bytes_.begin() + static_cast<long>(pos_ + size));
    pos_ += size;
    return s;
}

void
encodeCircuit(ByteWriter &w, const Circuit &circuit)
{
    w.str(circuit.name());
    w.u32(circuit.numQubits());
    w.u64(circuit.gates().size());
    for (const Gate &g : circuit.gates()) {
        w.u8(static_cast<std::uint8_t>(g.kind()));
        w.f64(g.param());
        w.u64(g.controls().size());
        for (Qubit q : g.controls())
            w.u32(q);
        w.u64(g.targets().size());
        for (Qubit q : g.targets())
            w.u32(q);
        w.u32(g.cbit());
    }
}

Circuit
decodeCircuit(ByteReader &r)
{
    std::string name = r.str();
    Qubit num_qubits = r.u32();
    std::uint64_t num_gates = r.u64();
    Circuit circuit(num_qubits, std::move(name));
    for (std::uint64_t i = 0; i < num_gates; ++i) {
        std::uint8_t kind_byte = r.u8();
        if (kind_byte >= kNumGateKinds)
            malformed("bad gate kind");
        auto kind = static_cast<GateKind>(kind_byte);
        double param = r.f64();
        std::uint64_t nc = r.u64();
        std::vector<Qubit> controls;
        controls.reserve(nc);
        for (std::uint64_t c = 0; c < nc; ++c)
            controls.push_back(r.u32());
        std::uint64_t nt = r.u64();
        std::vector<Qubit> targets;
        targets.reserve(nt);
        for (std::uint64_t t = 0; t < nt; ++t)
            targets.push_back(r.u32());
        Cbit cbit = r.u32();
        if (kind == GateKind::Measure) {
            if (nt != 1 || nc != 0)
                malformed("bad measure shape");
            circuit.add(Gate::measure(targets[0], cbit));
        } else if (kind == GateKind::Barrier) {
            circuit.add(Gate::barrier(std::move(targets)));
        } else {
            circuit.add(Gate(kind, std::move(controls),
                             std::move(targets), param));
        }
    }
    return circuit;
}

namespace {

void
encodeMetrics(ByteWriter &w, const StageMetrics &m)
{
    w.u64(m.tCount);
    w.u64(m.gates);
    w.f64(m.cost);
    w.u64(m.depth);
}

StageMetrics
decodeMetrics(ByteReader &r)
{
    StageMetrics m;
    m.tCount = r.u64();
    m.gates = r.u64();
    m.cost = r.f64();
    m.depth = r.u64();
    return m;
}

void
encodeQubitVec(ByteWriter &w, const std::vector<Qubit> &v)
{
    w.u64(v.size());
    for (Qubit q : v)
        w.u32(q);
}

std::vector<Qubit>
decodeQubitVec(ByteReader &r)
{
    std::uint64_t n = r.u64();
    std::vector<Qubit> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(r.u32());
    return v;
}

} // namespace

std::vector<std::uint8_t>
encodeCachedCompile(const CachedCompile &artifact)
{
    const CompileResult &res = artifact.result;
    ByteWriter w;
    encodeCircuit(w, res.input);
    encodeCircuit(w, res.decomposed);
    encodeCircuit(w, res.mapped);
    encodeCircuit(w, res.optimized);
    encodeQubitVec(w, res.placement);
    encodeQubitVec(w, res.ancillas);
    encodeMetrics(w, res.techIndependent);
    encodeMetrics(w, res.unoptimized);
    encodeMetrics(w, res.optimizedM);

    w.u64(res.routeStats.nativeCnots);
    w.u64(res.routeStats.reversedCnots);
    w.u64(res.routeStats.reroutedCnots);
    w.u64(res.routeStats.swapsInserted);
    w.u64(res.routeStats.hInserted);

    const opt::OptimizeReport &rep = res.optReport;
    w.f64(rep.initialCost);
    w.f64(rep.finalCost);
    w.u64(rep.initialGates);
    w.u64(rep.finalGates);
    w.u64(static_cast<std::uint64_t>(rep.rounds));
    w.u64(rep.passes.size());
    for (const opt::PassReport &p : rep.passes) {
        w.str(p.name);
        w.u64(static_cast<std::uint64_t>(p.invocations));
        w.u64(static_cast<std::uint64_t>(p.changedRounds));
        w.u64(p.gatesRemoved);
        w.f64(p.costDelta);
    }
    w.u64(rep.snapshots.size());
    for (const opt::PassSnapshot &s : rep.snapshots) {
        w.str(s.pass);
        w.u64(static_cast<std::uint64_t>(s.round));
        encodeCircuit(w, s.before);
        encodeCircuit(w, s.after);
    }

    const dd::PackageStats &st = res.ddStats;
    w.u64(st.uniqueLookups);
    w.u64(st.uniqueHits);
    w.u64(st.uniqueRehashes);
    w.u64(st.multiplies);
    w.u64(st.additions);
    w.u64(st.computeLookups);
    w.u64(st.computeHits);
    w.u64(st.mulEvictions);
    w.u64(st.addEvictions);
    w.u64(st.ctEvictions);
    w.u64(st.gcRuns);
    w.u64(st.peakNodes);
    w.u64(res.ddLiveNodes);

    w.u8(static_cast<std::uint8_t>(res.verification));
    w.u8(static_cast<std::uint8_t>(res.verifyMode));
    w.u8(static_cast<std::uint8_t>(res.miter.schedule));
    w.u64(res.miter.closingSwaps);

    w.f64(res.decomposeSeconds);
    w.f64(res.placeSeconds);
    w.f64(res.routeSeconds);
    w.f64(res.optimizeSeconds);
    w.f64(res.verifySeconds);
    w.f64(res.totalSeconds);

    // Resource accounting of the original (cold) compile. A cache hit
    // reports what the artifact *cost to produce*, not the lookup —
    // the lookup's own cost lands in the cache.* histograms.
    w.f64(res.resources.wallSeconds);
    w.f64(res.resources.userCpuSeconds);
    w.f64(res.resources.sysCpuSeconds);
    w.u64(static_cast<std::uint64_t>(res.resources.peakRssDeltaKb));
    w.u64(static_cast<std::uint64_t>(res.resources.peakRssKb));
    w.u64(res.resources.qmddPeakNodes);
    w.u64(res.resources.qmddArenaBytes);
    w.u8(res.resources.valid ? 1 : 0);

    w.str(artifact.qasm);
    return w.take();
}

CachedCompile
decodeCachedCompile(const std::vector<std::uint8_t> &bytes)
{
    ByteReader r(bytes);
    CachedCompile artifact;
    CompileResult &res = artifact.result;
    res.input = decodeCircuit(r);
    res.decomposed = decodeCircuit(r);
    res.mapped = decodeCircuit(r);
    res.optimized = decodeCircuit(r);
    res.placement = decodeQubitVec(r);
    res.ancillas = decodeQubitVec(r);
    res.techIndependent = decodeMetrics(r);
    res.unoptimized = decodeMetrics(r);
    res.optimizedM = decodeMetrics(r);

    res.routeStats.nativeCnots = r.u64();
    res.routeStats.reversedCnots = r.u64();
    res.routeStats.reroutedCnots = r.u64();
    res.routeStats.swapsInserted = r.u64();
    res.routeStats.hInserted = r.u64();

    opt::OptimizeReport &rep = res.optReport;
    rep.initialCost = r.f64();
    rep.finalCost = r.f64();
    rep.initialGates = r.u64();
    rep.finalGates = r.u64();
    rep.rounds = static_cast<int>(r.u64());
    std::uint64_t num_passes = r.u64();
    for (std::uint64_t i = 0; i < num_passes; ++i) {
        opt::PassReport p;
        p.name = internPassName(r.str());
        p.invocations = static_cast<int>(r.u64());
        p.changedRounds = static_cast<int>(r.u64());
        p.gatesRemoved = r.u64();
        p.costDelta = r.f64();
        rep.passes.push_back(p);
    }
    std::uint64_t num_snapshots = r.u64();
    for (std::uint64_t i = 0; i < num_snapshots; ++i) {
        opt::PassSnapshot s;
        s.pass = internPassName(r.str());
        s.round = static_cast<int>(r.u64());
        s.before = decodeCircuit(r);
        s.after = decodeCircuit(r);
        rep.snapshots.push_back(std::move(s));
    }

    dd::PackageStats &st = res.ddStats;
    st.uniqueLookups = r.u64();
    st.uniqueHits = r.u64();
    st.uniqueRehashes = r.u64();
    st.multiplies = r.u64();
    st.additions = r.u64();
    st.computeLookups = r.u64();
    st.computeHits = r.u64();
    st.mulEvictions = r.u64();
    st.addEvictions = r.u64();
    st.ctEvictions = r.u64();
    st.gcRuns = r.u64();
    st.peakNodes = r.u64();
    res.ddLiveNodes = r.u64();

    std::uint8_t verdict = r.u8();
    if (verdict > static_cast<std::uint8_t>(dd::Equivalence::Inconclusive))
        malformed("bad verification verdict");
    res.verification = static_cast<dd::Equivalence>(verdict);
    std::uint8_t mode = r.u8();
    if (mode > static_cast<std::uint8_t>(VerifyMode::Full))
        malformed("bad verify mode");
    res.verifyMode = static_cast<VerifyMode>(mode);
    std::uint8_t schedule = r.u8();
    if (schedule > static_cast<std::uint8_t>(dd::MiterSchedule::Hint))
        malformed("bad miter schedule");
    res.miter.schedule = static_cast<dd::MiterSchedule>(schedule);
    res.miter.closingSwaps = r.u64();

    res.decomposeSeconds = r.f64();
    res.placeSeconds = r.f64();
    res.routeSeconds = r.f64();
    res.optimizeSeconds = r.f64();
    res.verifySeconds = r.f64();
    res.totalSeconds = r.f64();

    res.resources.wallSeconds = r.f64();
    res.resources.userCpuSeconds = r.f64();
    res.resources.sysCpuSeconds = r.f64();
    res.resources.peakRssDeltaKb = static_cast<std::int64_t>(r.u64());
    res.resources.peakRssKb = static_cast<std::int64_t>(r.u64());
    res.resources.qmddPeakNodes = r.u64();
    res.resources.qmddArenaBytes = r.u64();
    res.resources.valid = r.u8() != 0;

    artifact.qasm = r.str();
    if (!r.atEnd())
        malformed("trailing bytes");
    return artifact;
}

} // namespace qsyn::cache
