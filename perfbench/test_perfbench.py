"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The statistics tests are pure. The replay and check tests build qsync
and the harness first (as run.py does), then compile one input of each
workload, which takes a few seconds once the build exists.
"""

import json
import os
import random
import shutil
import sys
import unittest

sys.dont_write_bytecode = True  # keep perfbench/ free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail([1.0] * 19))

    def test_twenty_samples_give_the_median(self):
        pct, value, n = stats.tail([float(i) for i in range(1, 21)])
        self.assertEqual((pct, value, n), (50.0, 10.0, 20))

    def test_highest_percentile_with_ten_beyond(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.tail(values), (90.0, 90.0, 100))
        values = [float(i) for i in range(1, 1001)]
        pct, value, n = stats.tail(values)
        self.assertEqual((pct, value, n), (99.0, 990.0, 1000))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [float((i * 37) % 101) for i in range(101)]
        pct, value, _ = stats.tail(values)
        self.assertEqual(pct, 90.0)
        self.assertGreaterEqual(sum(v > value for v in values), 10)


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        records = {"due": [0.0, 10.0, 20.0], "claim": [0.0, 15.0, 5.0],
                   "sent": [0.5, 15.25, 20.0], "done": [3.0, 18.0, 21.0]}
        latency, wait, lag = stats.open_loop(records)
        # Request 1 waited 5 ms for a free connection: its latency
        # counts that wait, the generator lag does not.
        self.assertEqual(latency, [3.0, 8.0, 1.0])
        self.assertEqual(wait, [0.0, 5.0, 0.0])
        self.assertEqual(lag, [0.5, 0.25, 0.0])

    def test_fixed_count_arrivals_and_mix(self):
        fresh = []
        reqs = run.daemon_requests(random.Random(3), lambda: 0, fresh,
                                   [None] * 4, 200.0, 2.0)
        self.assertEqual(len(reqs), 400)
        self.assertEqual(sorted(r[0] for r in reqs), [r[0] for r in reqs])
        self.assertTrue(all(0.0 <= r[0] < 2.0 for r in reqs))
        misses = [r for r in reqs if r[1] == run.KIND["miss"]]
        self.assertEqual(len(misses), round(0.10 * 400))
        self.assertEqual(sorted(r[2] for r in misses), list(range(len(fresh))))

    def test_saturation_phase_is_all_fresh_compiles(self):
        fresh = []
        reqs = run.daemon_requests(random.Random(5), lambda: 0, fresh, [],
                                   1000.0, 0.1, (("miss", 1.0),))
        self.assertEqual([r[1] for r in reqs], [run.KIND["miss"]] * 100)
        self.assertEqual(len(fresh), 100)

    def test_latency_is_split_by_kind(self):
        phase = {"kind": [0, 1, 0, 2]}
        self.assertEqual(run.of_kind(phase, [1.0, 9.0, 2.0, 5.0], "hit"),
                         [1.0, 2.0])
        self.assertEqual(run.of_kind(phase, [1.0, 9.0, 2.0, 5.0], "miss"),
                         [9.0])


class Inputs(unittest.TestCase):
    def test_table3_hex_reads_right_to_left(self):
        self.assertEqual(inputs.table3_function("1"), (2, [0]))
        self.assertEqual(inputs.table3_function("01"), (3, [0]))
        self.assertEqual(inputs.table3_function("3"), (2, [0, 1]))
        self.assertEqual(inputs.table3_function("10"), (3, [4]))

    def test_not_applicable_pairs_follow_the_paper(self):
        self.assertTrue(inputs.not_applicable(6, None, "ibmqx4"))
        self.assertTrue(inputs.not_applicable(5, "T5", "ibmqx2"))
        self.assertFalse(inputs.not_applicable(5, "T4", "ibmqx2"))
        self.assertFalse(inputs.not_applicable(6, None, "ibmq_16"))

    def test_batch_stream_splits_per_input(self):
        text = ("// qsyn: a.real mapped to ibmqx4\nOPENQASM 2.0;\nx q[0];\n"
                "// qsyn: b c.pla mapped to ibmqx4\nOPENQASM 2.0;\n")
        chunks = run.split_batch(text)
        self.assertEqual(sorted(chunks), ["a.real", "b c.pla"])
        self.assertTrue(chunks["a.real"].endswith("x q[0];\n"))


class BatchLayers(unittest.TestCase):
    """Per-layer totals of a traced `qsync --jobs` run, from the spans
    and metrics files the program writes."""

    def test_spans_and_counters_become_layer_totals(self):
        work = os.path.join(run.BUILD, "work", "selftest-batch-layers")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        source = os.path.join(work, "a.qasm")
        inputs.write(source, "x" * 500)
        span = lambda name, dur, **args: {  # noqa: E731
            "name": name, "ph": "X", "dur": dur * 1e3, "args": args}
        events = [span("frontend.parse", 2, path=source),
                  span("compile", 100), span("compile.decompose", 30,
                                             gates_out=7),
                  span("compile.ti_optimize", 20), span("compile.place", 1),
                  span("compile.route", 4), span("compile.optimize", 40),
                  span("compile.verify", 20), span("opt.round", 5),
                  span("opt.round", 5), span("qmdd.equivalence_check", 18),
                  span("qmdd.build_reference", 3),
                  span("qmdd.build_candidate", 11)]
        metrics = {"counters": {"route.swaps_inserted": 6,
                                "opt.cancellation.gates_removed": 4},
                   "gauges": {"qmdd.peak_nodes": 50, "qmdd.mul_evictions": 2,
                              "qmdd.ct_evictions": 1}}
        tpath, mpath = os.path.join(work, "t.json"), os.path.join(work, "m.json")
        inputs.write(tpath, json.dumps({"traceEvents": events}))
        inputs.write(mpath, json.dumps(metrics))
        totals = {}
        run.batch_layers(totals, mpath, tpath)
        run.batch_layers(totals, mpath, tpath)
        self.assertEqual(totals["frontend.bytes"], 1000)
        self.assertAlmostEqual(totals["decompose.ms"], 20.0)
        self.assertEqual(totals["decompose.gates_out"], 14)
        self.assertEqual(totals["opt.rounds"], 4)
        self.assertAlmostEqual(totals["qmdd.fixed_ms"], 8.0)
        self.assertAlmostEqual(totals["trace.compile_ms"], 200.0)
        self.assertAlmostEqual(totals["trace.staged_ms"], 190.0)
        self.assertEqual(totals["route.swaps"], 12)
        self.assertEqual(totals["opt.cancellation.gates_removed"], 8)
        self.assertEqual(totals["qmdd.evictions"], 6)
        self.assertEqual(totals["qmdd.peak_nodes"], 50)


class Harness(unittest.TestCase):
    """Byte equality of the staged replay on one input per workload, and
    the output check on a good and a corrupted output."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.work = os.path.join(run.BUILD, "work", "selftest")
        shutil.rmtree(cls.work, ignore_errors=True)
        os.makedirs(cls.work)

    def write(self, name, text):
        path = os.path.join(self.work, name)
        inputs.write(path, text)
        return path

    def replay(self, jobs, service=False):
        result = run.harness("replay", {"seconds": 0, "jobs": jobs,
                                        "service_options": service},
                             self.work, "replay")
        self.assertEqual(result["failures"], [])
        self.assertEqual(result["passes"][0]["replay.identical"], len(jobs))
        return result

    def test_replay_matches_compile_cli_small_and_batch(self):
        text, _ = inputs.table3_pla("0356")
        pla = self.write("t3_0356.pla", text)
        real = self.write("t5.real", inputs.table5_real(inputs.TABLE5[4]))
        self.replay([{"id": "pla", "input": pla, "device": "ibmqx5"},
                     {"id": "real", "input": real, "device": "ibmqx2"}])

    def test_replay_matches_compile_daemon_mix(self):
        pool = inputs.daemon_pool(run.ROOT)
        s = next(p for p in pool if p["router"] == "sabre"
                 and p["placement"] == "greedy")
        path = self.write("pool." + s["format"], s["source"])
        self.replay([{"id": "pool", "input": path, "device": s["device"],
                      "router": s["router"], "placement": s["placement"]}],
                    service=True)

    def test_replay_matches_compile_wide96(self):
        path = self.write("T6_b.real", inputs.table7_real(6))
        self.replay([{"id": "T6_b", "input": path,
                      "device": "proposed_96"}])

    def test_traced_batch_matches_untraced_and_the_replay_counts(self):
        text, _ = inputs.table3_pla("0356")
        paths = [self.write("b_0356.pla", text),
                 self.write("b_t5.real", inputs.table5_real(inputs.TABLE5[4]))]
        out = [os.path.join(self.work, "batch%d.qasm" % i) for i in range(2)]
        mpath = os.path.join(self.work, "m.json")
        tpath = os.path.join(self.work, "t.json")
        argv = [run.QSYNC, "--jobs", "2", "-d", "ibmqx5"]
        code, _, _ = run.spawn(argv + paths, out[0], os.devnull)
        self.assertEqual(code, 0)
        code, _, _ = run.spawn(argv + ["--metrics-json", mpath,
                                       "--trace-json", tpath] + paths,
                               out[1], os.devnull)
        self.assertEqual(code, 0)
        self.assertEqual(run.read_bytes(out[0]), run.read_bytes(out[1]))
        totals = {}
        run.batch_layers(totals, mpath, tpath)
        replay = self.replay([{"id": str(i), "input": p, "device": "ibmqx5"}
                              for i, p in enumerate(paths)])["passes"][0]
        for key in ("opt.rounds", "route.swaps", "route.reversed_cnots",
                    "opt.cancellation.gates_removed"):
            self.assertEqual(totals[key], replay[key], key)
        self.assertGreater(totals["qmdd.peak_nodes"], 0)

    def test_check_accepts_the_output_and_rejects_a_corruption(self):
        path = self.write("toffoli.qasm", "OPENQASM 2.0;\n"
                          'include "qelib1.inc";\nqreg q[3];\n'
                          "ccx q[0],q[1],q[2];\n")
        good = os.path.join(self.work, "good.qasm")
        code, _, _ = run.spawn([run.QSYNC, path, "-d", "ibmqx4", "-o", good],
                               os.devnull, os.devnull)
        self.assertEqual(code, 0)
        with open(good) as f:
            lines = f.read().splitlines(True)
        t_line = next(i for i, l in enumerate(lines) if l.startswith("t "))
        lines[t_line] = "tdg" + lines[t_line][1:]
        bad = self.write("bad.qasm", "".join(lines))
        result = run.harness("check", {"seed": 1, "jobs": [
            {"id": "good", "input": path, "device": "ibmqx4",
             "output": good},
            {"id": "bad", "input": path, "device": "ibmqx4",
             "output": bad}]}, self.work, "check")
        self.assertTrue(result["jobs"]["good"]["ok"])
        self.assertFalse(result["jobs"]["bad"]["ok"])
        self.assertIn("statevector", result["jobs"]["bad"]["error"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
