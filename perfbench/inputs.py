"""Input generation for the benchmark's workloads.

Every input the program compiles is written here, from the paper's
benchmark tables, the repository's sample circuits and a seeded random
generator. The program receives only these files and request sources.
"""

import os
import random

# The paper's five IBM devices (Tables 3-6).
IBM_DEVICES = ("ibmqx2", "ibmqx3", "ibmqx4", "ibmqx5", "ibmq_16")
DEVICE_QUBITS = {"ibmqx2": 5, "ibmqx3": 16, "ibmqx4": 5, "ibmqx5": 16,
                 "ibmq_16": 14}

# Table 3: single-target gates, named by the hex truth table of their
# control function.
TABLE3 = ("1", "3", "01", "03", "07", "0f", "17", "0001", "0003", "0007",
          "000f", "0017", "001f", "003f", "007f", "00ff", "0117", "011f",
          "013f", "017f", "033f", "0356", "0357", "035f")

# Table 5: NCT cascades (name, largest gate, RevLib gate lines).
TABLE5 = (
    ("3_17_14", "toffoli", "abc",
     ["t3 a b c", "t2 c b", "t1 a", "t3 b c a", "t2 a c", "t1 b"]),
    ("fred6", "toffoli", "cab", ["t3 c a b", "t3 c b a", "t3 c a b"]),
    ("4_49_17", "toffoli", "abcd",
     ["t3 a b c", "t2 c d", "t3 b d a", "t1 c", "t2 a b", "t3 c d b",
      "t2 b a", "t3 a c d", "t1 d", "t2 d c", "t3 b c a", "t1 b"]),
    ("4gt12-v0_88", "T5", "abcde",
     ["t5 a b c d e", "t4 a b c d", "t1 e", "t4 b c d e", "t2 d e"]),
    ("4gt13-v1_93", "T4", "abcde",
     ["t4 b c d e", "t3 a b d", "t2 d a", "t1 e"]),
)

# The repository's sample circuits, one per input format.
DATA_CIRCUITS = ("toffoli.qasm", "adder.pla", "mod5_cascade.real",
                 "clifford_t.qc")

# Table 7: the 96-qubit cascades kept by the wide96 workload.
TABLE7_KEPT = (6, 7)


def table3_function(hex_digits):
    """(num_vars, on-set rows) of a Table 3 control function: the hex
    digits read right to left, four truth-table rows per digit."""
    rows = 4 * len(hex_digits)
    num_vars = 2
    while (1 << num_vars) < rows:
        num_vars += 1
    on = []
    for pos, digit in enumerate(reversed(hex_digits)):
        value = int(digit, 16)
        for bit in range(4):
            if value >> bit & 1:
                on.append(4 * pos + bit)
    return num_vars, on


def table3_pla(hex_digits):
    """The function as an ESOP PLA of its minterms (disjoint cubes),
    with one output: the single-target gate's target wire."""
    num_vars, on = table3_function(hex_digits)
    lines = ["# Table 3 single-target gate #" + hex_digits,
             ".i %d" % num_vars, ".o 1", ".type esop"]
    for row in on:
        cube = "".join("1" if row >> i & 1 else "0" for i in range(num_vars))
        lines.append(cube + " 1")
    lines.append(".e")
    return "\n".join(lines) + "\n", num_vars + 1


def real_source(variables, gates, comment):
    lines = ["# " + comment, ".version 1.0", ".numvars %d" % len(variables),
             ".variables " + " ".join(variables), ".begin"]
    lines += gates
    lines.append(".end")
    return "\n".join(lines) + "\n"


def table5_real(entry):
    name, _, variables, gates = entry
    return real_source(list(variables), gates, "Table 5 cascade " + name)


def table7_real(n):
    """T<n>_b: four n-qubit Toffolis on 96 wires; gate g has controls
    20g+1 .. 20g+n-1 and target 20g+25."""
    names = ["x%d" % i for i in range(96)]
    gates = []
    for g in range(4):
        wires = [20 * g + i for i in range(1, n)] + [20 * g + 25]
        gates.append("t%d " % n + " ".join(names[w] for w in wires))
    return real_source(names, gates, "Table 7 cascade T%d_b" % n)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def paper_corpus(root, directory, tag):
    """Write the cli_small corpus, file names prefixed with `tag`;
    returns [(file, width, largest)] in table order."""
    os.makedirs(directory, exist_ok=True)
    files = []
    for hex_digits in TABLE3:
        text, width = table3_pla(hex_digits)
        path = os.path.join(directory, "%s_t3_%s.pla" % (tag, hex_digits))
        write(path, text)
        files.append((path, width, None))
    for entry in TABLE5:
        path = os.path.join(directory, "%s_t5_%s.real" % (tag, entry[0]))
        write(path, table5_real(entry))
        files.append((path, len(entry[2]), entry[1]))
    for name in DATA_CIRCUITS:
        with open(os.path.join(root, "data", "circuits", name)) as f:
            text = f.read()
        path = os.path.join(directory, "%s_%s" % (tag, name))
        write(path, text)
        width = {"toffoli.qasm": 3, "adder.pla": 5, "mod5_cascade.real": 4,
                 "clifford_t.qc": 3}[name]
        files.append((path, width, None))
    return files


def not_applicable(width, largest, device):
    """The paper's N/A rule: the device is narrower than the circuit,
    or a 5-qubit device would have to host a T5 gate's ancillas."""
    qubits = DEVICE_QUBITS[device]
    return width > qubits or (largest == "T5" and qubits < 6)


def cli_pairs(root, directory, seed):
    """(input, device) pairs of cli_small and cli_batch, plus the pairs
    left out as N/A. The order is the paper's: table by table, each
    input on every device in turn. The seed only names the files, so
    every seed compiles the same work and the figures of different
    seeds compare directly."""
    tag = "".join(random.Random(seed).choice("abcdefghjkmnpqrstuvwxyz")
                  for _ in range(6))
    pairs, skipped = [], []
    for path, width, largest in paper_corpus(root, directory, tag):
        for device in IBM_DEVICES:
            target = skipped if not_applicable(width, largest, device) else pairs
            target.append((path, device))
    return pairs, skipped


def random_qasm(rng, name):
    """A small random Clifford+T+Toffoli circuit as OpenQASM 2.0."""
    width = rng.randint(3, 5)
    lines = ["// %s" % name, "OPENQASM 2.0;", 'include "qelib1.inc";',
             "qreg q[%d];" % width]
    for _ in range(rng.randint(8, 20)):
        roll = rng.random()
        if roll < 0.45:
            gate = rng.choice(("h", "x", "t", "tdg", "s"))
            lines.append("%s q[%d];" % (gate, rng.randrange(width)))
        elif roll < 0.85:
            a, b = rng.sample(range(width), 2)
            lines.append("cx q[%d],q[%d];" % (a, b))
        else:
            a, b, c = rng.sample(range(width), 3)
            lines.append("ccx q[%d],q[%d],q[%d];" % (a, b, c))
    return "\n".join(lines) + "\n"


def daemon_pool(root):
    """The fixed pool of repeated daemon sources: the Table 5 cascades,
    the sample circuits and the Table 3 gates, 33 sources, each under
    one of four fixed (device, router, placement) settings in turn. It
    is half the 64 entries of qsynd's in-memory cache, so a primed pool
    stays cached while a few fresh compiles come and go."""
    sources = []
    for entry in TABLE5:
        sources.append((entry[0], "real", table5_real(entry)))
    for name in DATA_CIRCUITS:
        with open(os.path.join(root, "data", "circuits", name)) as f:
            sources.append((name, name.rsplit(".", 1)[1], f.read()))
    for hex_digits in TABLE3:
        sources.append(("t3_" + hex_digits, "pla", table3_pla(hex_digits)[0]))
    settings = (("ibmqx5", "ctr", "identity"), ("ibmq_16", "sabre", "greedy"),
                ("ibmqx3", "sabre", "identity"), ("ibmq_16", "ctr", "greedy"))
    pool = []
    for i, (name, fmt, text) in enumerate(sources):
        device, router, placement = settings[i % len(settings)]
        pool.append({"name": name, "format": fmt, "source": text,
                     "device": device, "router": router,
                     "placement": placement})
    return pool


def fresh_source(rng, index):
    """A never-repeated daemon source (a guaranteed cache miss), with
    the ctr/sabre and identity/greedy split drawn per request."""
    name = "fresh%d" % index
    return {"name": name, "format": "qasm", "source": random_qasm(rng, name),
            "device": rng.choice(IBM_DEVICES),
            "router": rng.choice(("ctr", "sabre")),
            "placement": rng.choice(("identity", "greedy"))}


def skewed_picker(rng, n, exponent=1.1):
    """Zipf-like choice over n items in a seeded popularity order."""
    order = list(range(n))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    return lambda: order[rng.choices(range(n), weights)[0]]
