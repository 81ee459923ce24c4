/**
 * @file
 * Identity-window elimination — the literal reading of optimization
 * step 5: "removing partitions of gates that equal the identity
 * function". A window is a run of gates confined to a small wire set
 * (gates on disjoint wires may interleave and are untouched); the
 * window's unitary is accumulated as a small dense matrix, and the
 * first prefix multiplying to the exact identity is deleted. Verdicts
 * are memoised on the window's relabelled contents (WindowMemo), so an
 * unchanged region costs a lookup rather than a dense product, and a
 * circuit nothing edited since the last call costs one comparison.
 */

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ir/matrix.hpp"
#include "opt/passes.hpp"

namespace qsyn::opt {

namespace {

/** Gates members of a window must be unitary and control-count-simple
 *  enough for DenseMatrix::applyGate. */
bool
isWindowable(const Gate &g)
{
    return g.isUnitary() && g.kind() != GateKind::I;
}

/**
 * A window starting at some gate: member gate indices whose wires stay
 * inside a growing set of at most `max_qubits` wires. Gates fully
 * disjoint from the set are skipped over; expansion past a skipped
 * gate's wires is refused (that gate might not commute). `skipped` and
 * `fresh` are scratch, kept here so one Window serves a whole scan
 * without reallocating.
 */
struct Window
{
    std::vector<size_t> members;
    std::vector<Qubit> wires;
    std::vector<Qubit> skipped;
    std::vector<Qubit> fresh;
};

bool
contains(const std::vector<Qubit> &set, Qubit q)
{
    return std::find(set.begin(), set.end(), q) != set.end();
}

void
collectWindow(const Circuit &circuit, size_t start, int max_qubits,
              size_t max_gates, Window &win)
{
    win.members.clear();
    win.wires.clear();
    win.skipped.clear();

    for (size_t j = start;
         j < circuit.size() && win.members.size() < max_gates; ++j) {
        const Gate &g = circuit[j];
        if (!isWindowable(g)) {
            // Barriers / measures end the window for safety.
            bool touches = std::any_of(
                win.wires.begin(), win.wires.end(),
                [&](Qubit q) { return g.usesQubit(q); });
            if (touches || g.kind() == GateKind::Barrier)
                break;
            continue;
        }
        win.fresh.clear();
        bool overlaps = false;
        auto classify = [&](Qubit q) {
            if (contains(win.wires, q))
                overlaps = true;
            else
                win.fresh.push_back(q);
        };
        for (Qubit q : g.controls())
            classify(q);
        for (Qubit q : g.targets())
            classify(q);
        if (win.fresh.empty()) {
            win.members.push_back(j);
            continue;
        }
        if (!overlaps && !win.members.empty()) {
            // Fully disjoint: skip over, but remember its wires so we
            // never expand onto them later.
            win.skipped.insert(win.skipped.end(), win.fresh.begin(),
                               win.fresh.end());
            continue;
        }
        // Overlapping (or the very first gate): try to expand.
        bool blocked = std::any_of(
            win.fresh.begin(), win.fresh.end(),
            [&](Qubit q) { return contains(win.skipped, q); });
        if (blocked ||
            win.wires.size() + win.fresh.size() >
                static_cast<size_t>(max_qubits))
            break;
        win.wires.insert(win.wires.end(), win.fresh.begin(),
                         win.fresh.end());
        win.members.push_back(j);
    }
}

/** Index of wire `q` in the window's wire list. */
int
localWire(const Window &win, Qubit q)
{
    auto it = std::find(win.wires.begin(), win.wires.end(), q);
    return static_cast<int>(it - win.wires.begin());
}

/**
 * Longest prefix of the window whose product is the identity; 0 when
 * none (prefixes of length < 2 do not count).
 */
size_t
identityPrefix(const Circuit &circuit, const Window &win)
{
    DenseMatrix m(static_cast<int>(win.wires.size()));
    size_t best = 0;
    std::vector<int> controls;
    for (size_t k = 0; k < win.members.size(); ++k) {
        const Gate &g = circuit[win.members[k]];
        controls.clear();
        for (Qubit c : g.controls())
            controls.push_back(localWire(win, c));
        if (g.kind() == GateKind::Swap) {
            m.applySwap(controls, localWire(win, g.targets()[0]),
                        localWire(win, g.targets()[1]));
        } else {
            m.applyGate(g.baseMatrix(), controls,
                        localWire(win, g.target()));
        }
        if (k >= 1 && m.isIdentity())
            best = k + 1;
    }
    return best;
}

/**
 * The memo key of a window: everything identityPrefix reads. Width,
 * then per member its kind, control and target counts, local wire
 * indices, and the angle's bytes. Every field is fixed-width or
 * count-prefixed, so distinct windows never share a key.
 */
void
windowKey(const Circuit &circuit, const Window &win, std::string &key)
{
    key.clear();
    key.push_back(static_cast<char>(win.wires.size()));
    for (size_t i : win.members) {
        const Gate &g = circuit[i];
        key.push_back(static_cast<char>(g.kind()));
        key.push_back(static_cast<char>(g.controls().size()));
        key.push_back(static_cast<char>(g.targets().size()));
        for (Qubit c : g.controls())
            key.push_back(static_cast<char>(localWire(win, c)));
        for (Qubit t : g.targets())
            key.push_back(static_cast<char>(localWire(win, t)));
        double param = g.param();
        char bytes[sizeof param];
        std::memcpy(bytes, &param, sizeof param);
        key.append(bytes, sizeof param);
    }
}

/** Exact identity: kind, wire lists in order, and the angle's bits. */
bool
sameGate(const Gate &a, const Gate &b)
{
    double pa = a.param(), pb = b.param();
    return a.kind() == b.kind() && a.controls() == b.controls() &&
           a.targets() == b.targets() &&
           std::memcmp(&pa, &pb, sizeof pa) == 0;
}

} // namespace

bool
removeIdentityWindows(Circuit &circuit, int max_qubits, size_t max_gates,
                      WindowMemo *memo)
{
    WindowMemo own_memo;
    WindowMemo &known = memo != nullptr ? *memo : own_memo;
    // The circuit this pass last returned holds no identity window; an
    // exact copy of it (the optimizer's confirming round) needs no scan.
    const std::vector<Gate> &gates = circuit.gates();
    const std::pair limits{max_qubits, max_gates};
    if (known.cleanLimits == limits &&
        std::equal(gates.begin(), gates.end(), known.clean.begin(),
                   known.clean.end(), sameGate))
        return false;

    Window win;
    std::string key;
    bool any = false;
    bool changed = true;

    while (changed) {
        changed = false;
        std::vector<size_t> dead;
        std::vector<bool> used(circuit.size(), false);

        for (size_t start = 0; start < circuit.size(); ++start) {
            if (used[start] || !isWindowable(circuit[start]))
                continue;
            collectWindow(circuit, start, max_qubits, max_gates, win);
            if (win.members.size() < 2)
                continue;
            if (std::any_of(win.members.begin(), win.members.end(),
                            [&](size_t i) { return used[i]; }))
                continue;
            windowKey(circuit, win, key);
            auto [it, fresh] = known.prefixes.try_emplace(key, 0);
            if (fresh)
                it->second = identityPrefix(circuit, win);
            else
                ++known.hits;
            size_t prefix = it->second;
            if (prefix < 2)
                continue;
            for (size_t k = 0; k < prefix; ++k) {
                dead.push_back(win.members[k]);
                used[win.members[k]] = true;
            }
        }

        if (!dead.empty()) {
            std::sort(dead.begin(), dead.end());
            circuit.eraseMany(dead);
            changed = true;
            any = true;
        }
    }
    known.clean = gates;
    known.cleanLimits = limits;
    return any;
}

} // namespace qsyn::opt
