#include "qmdd/equivalence.hpp"

#include <algorithm>
#include <cmath>

#include "common/deadline.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "qmdd/vector.hpp"

namespace qsyn::dd {

const char *
equivalenceName(Equivalence e)
{
    switch (e) {
      case Equivalence::Equivalent:
        return "equivalent";
      case Equivalence::EquivalentUpToPhase:
        return "equivalent up to global phase";
      case Equivalence::EquivalentApprox:
        return "equivalent (within tolerance)";
      case Equivalence::NotEquivalent:
        return "NOT equivalent";
      case Equivalence::Inconclusive:
        return "inconclusive (node budget exhausted)";
    }
    return "?";
}

const char *
miterScheduleName(MiterSchedule schedule)
{
    switch (schedule) {
      case MiterSchedule::Provenance:
        return "provenance";
      case MiterSchedule::Hint:
        return "hint";
      case MiterSchedule::Proportional:
        break;
    }
    return "proportional";
}

Equivalence
EquivalenceChecker::compareEdges(const Edge &a, const Edge &b,
                                 const EquivalenceOptions &opts)
{
    if (a == b)
        return Equivalence::Equivalent;
    if (a.node == b.node) {
        double ma = std::abs(*a.weight);
        double mb = std::abs(*b.weight);
        if (opts.upToGlobalPhase && approxEqual(ma, mb, kWeightEps))
            return Equivalence::EquivalentUpToPhase;
    }
    // Tolerant fallback: exact pointer canonicity can be lost to float
    // drift over very long gate products.
    if (pkg_.approxEqualEdges(a, b, opts.approxEps))
        return Equivalence::EquivalentApprox;
    if (opts.upToGlobalPhase && *b.weight != Cplx(0, 0)) {
        Cplx ratio = *a.weight / *b.weight;
        double mag = std::abs(ratio);
        if (approxEqual(mag, 1.0, 1e-6)) {
            Edge b_aligned = pkg_.scaled(b, ratio);
            if (pkg_.approxEqualEdges(a, b_aligned, opts.approxEps))
                return Equivalence::EquivalentApprox;
        }
    }
    return Equivalence::NotEquivalent;
}

namespace {

/**
 * Push random basis inputs (ancillas pinned to |0>) through both
 * circuits; true when a counterexample distinguishes them.
 */
bool
quickRefute(Package &pkg, const Circuit &a, const Circuit &b,
            const EquivalenceOptions &opts, size_t samples)
{
    Qubit width = std::max(a.numQubits(), b.numQubits());
    VectorEngine engine(pkg);
    Rng rng(0x5eedu);
    for (size_t trial = 0; trial < samples; ++trial) {
        deadline::check("quick-refute sampling");
        Circuit prep(width);
        for (Qubit q = 0; q < width; ++q) {
            bool is_ancilla =
                std::find(opts.ancillaWires.begin(),
                          opts.ancillaWires.end(),
                          q) != opts.ancillaWires.end();
            if (!is_ancilla && rng.chance(0.5))
                prep.addX(q);
        }
        Edge input = engine.applyCircuit(prep,
                                         engine.makeBasisState(0, width));
        Edge out_a = engine.applyCircuit(a, input);
        Edge out_b = engine.applyCircuit(b, input);
        double overlap = std::abs(engine.innerProduct(
            out_a, out_b, static_cast<int>(width)));
        if (std::abs(overlap - 1.0) > opts.approxEps)
            return true; // definite counterexample
    }
    return false;
}

/**
 * The reference R: the specification's gates, each keyed by its own
 * index. With a SWAP hint, every hinted SWAP precedes the gate of its
 * origin and later gates are relabelled through the running layout;
 * a closing SWAP network (keyed past the end) returns the layout to
 * the identity, so R's product is exactly the specification's.
 */
struct Reference
{
    std::vector<Gate> gates;
    std::vector<Origin> keys;
    size_t closingSwaps = 0;
};

/**
 * Merge positions: key k becomes k + r/n for the r-th of the n
 * elements with that key (keys clamped to `end`), so two streams keyed
 * by origin advance through a shared key in step.
 */
std::vector<double>
spread(const std::vector<Origin> &keys, size_t end)
{
    std::vector<size_t> count(end + 1, 0), seen(end + 1, 0);
    for (Origin k : keys)
        ++count[std::min<size_t>(k, end)];
    std::vector<double> at;
    at.reserve(keys.size());
    for (Origin k : keys) {
        size_t c = std::min<size_t>(k, end);
        at.push_back(static_cast<double>(c) +
                     static_cast<double>(seen[c]++) /
                         static_cast<double>(count[c]));
    }
    return at;
}

Reference
buildReference(const Circuit &spec, Qubit width,
               std::vector<OriginSwap> hint)
{
    Reference ref;
    const Origin end = static_cast<Origin>(spec.size());
    // Keep the router's order (the permutation is a product of the
    // SWAPs in that order); an entry whose origin exceeds a later
    // entry's (routers run commuting gates early) goes with the later.
    for (size_t j = hint.size(); j-- > 1;)
        hint[j - 1].origin = std::min(hint[j - 1].origin, hint[j].origin);
    // pos[w]: wire now holding the spec's wire w; inv is its inverse.
    std::vector<Qubit> pos(width), inv(width);
    for (Qubit q = 0; q < width; ++q)
        pos[q] = inv[q] = q;
    auto swap = [&](Qubit p, Qubit q, Origin key) {
        if (p == q || p >= width || q >= width)
            return false; // malformed hint entry: skipping it is sound
        ref.gates.push_back(Gate::swap(p, q));
        ref.keys.push_back(key);
        Qubit vp = inv[p], vq = inv[q];
        std::swap(inv[p], inv[q]);
        pos[vp] = q;
        pos[vq] = p;
        return true;
    };
    size_t h = 0;
    for (Origin i = 0; i < end; ++i) {
        for (; h < hint.size() && hint[h].origin <= i; ++h)
            swap(hint[h].a, hint[h].b, i);
        const Gate &g = spec[i];
        std::vector<Qubit> controls, targets;
        for (Qubit c : g.controls())
            controls.push_back(pos[c]);
        for (Qubit t : g.targets())
            targets.push_back(pos[t]);
        ref.gates.emplace_back(g.kind(), std::move(controls),
                               std::move(targets), g.param());
        ref.keys.push_back(i);
    }
    for (; h < hint.size(); ++h)
        swap(hint[h].a, hint[h].b, end);
    for (Qubit x = 0; x < width; ++x) {
        if (inv[x] != x && swap(x, pos[x], end))
            ++ref.closingSwaps;
    }
    return ref;
}

} // namespace

Equivalence
EquivalenceChecker::check(const Circuit &a, const Circuit &b,
                          const EquivalenceOptions &opts)
{
    if (!a.isUnitary() || !b.isUnitary()) {
        throw UserError(
            "equivalence checking requires measurement-free circuits");
    }
    obs::Span span("qmdd.equivalence_check");
    span.arg("gates_a", static_cast<double>(a.size()));
    span.arg("gates_b", static_cast<double>(b.size()));
    // Hold a mutator session for the whole check so edges that span
    // phases (the projector, the compare temporaries) can never be
    // swept by a GC another worker triggers on a shared package;
    // sessions nest, so the inner safe points still park.
    Package::Session session(pkg_);
    if (opts.quickRefuteSamples > 0) {
        obs::Span refute_span("qmdd.quick_refute");
        if (quickRefute(pkg_, a, b, opts, opts.quickRefuteSamples))
            return Equivalence::NotEquivalent;
    }

    obs::Span miter_span("qmdd.miter");
    const Qubit width = std::max(a.numQubits(), b.numQubits());
    const Reference ref = buildReference(a, width, opts.swapHint);
    // Origins index the specification only when it has none itself
    // (two compiled outputs share origins but not gate indices).
    const std::vector<Origin> out_keys =
        a.hasOrigins() ? std::vector<Origin>{} : effectiveOrigins(b);
    const bool aligned = !out_keys.empty();
    std::vector<double> out_at, ref_at;
    if (aligned) {
        // Non-decreasing from the right: an output gate a router ran
        // early must not pull the reference ahead of the rest.
        out_at = spread(out_keys, a.size());
        for (size_t j = out_at.size(); j-- > 1;)
            out_at[j - 1] = std::min(out_at[j - 1], out_at[j]);
        ref_at = spread(ref.keys, a.size());
    }
    stats_ = MiterStats{};
    stats_.schedule = !aligned ? MiterSchedule::Proportional
                      : opts.swapHint.empty() ? MiterSchedule::Provenance
                                              : MiterSchedule::Hint;
    stats_.closingSwaps = ref.closingSwaps;
    const size_t gc_before = pkg_.stats().gcRuns;

    const Edge start = opts.ancillaWires.empty()
                           ? pkg_.identityEdge()
                           : pkg_.makeProjector(opts.ancillaWires);
    Edge m = start;
    size_t ir = 0, ib = 0;
    const size_t nr = ref.gates.size(), nb = b.size();
    Equivalence verdict = Equivalence::Inconclusive;
    bool exhausted = false;
    while (ir < nr || ib < nb) {
        bool advance_b;
        if (ib >= nb)
            advance_b = false;
        else if (ir >= nr)
            advance_b = true;
        else if (aligned)
            advance_b = out_at[ib] < ref_at[ir];
        else // progress fractions ib/nb vs ir/nr, without division
            advance_b = ib * nr <= ir * nb;
        const Gate &g = advance_b ? b[ib++] : ref.gates[ir++];
        if (g.kind() == GateKind::Barrier)
            continue;
        m = advance_b ? pkg_.multiply(pkg_.gateDD(g), m)
                      : pkg_.multiply(m, pkg_.gateDD(g.inverse()));
        // The per-gate safe point doubles as the cancellation poll:
        // a runaway verification dies here, with all invariants intact.
        deadline::check("qmdd equivalence check");
        if (pkg_.activeNodes() > pkg_.gcThreshold())
            pkg_.requestGc();
        if (pkg_.gcPending())
            pkg_.safePoint({m, start});
        if (opts.nodeBudget != 0 && pkg_.activeNodes() > opts.nodeBudget) {
            exhausted = true;
            break;
        }
    }
    if (!exhausted)
        verdict = compareEdges(m, start, opts);
    const PackageStats after = pkg_.stats();
    miter_span.arg("schedule", miterScheduleName(stats_.schedule));
    miter_span.arg("peak_nodes", after.peakNodes);
    miter_span.arg("gc_runs", after.gcRuns - gc_before);
    miter_span.arg("closing_swaps", stats_.closingSwaps);
    return verdict;
}

} // namespace qsyn::dd
