"""Self-tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from pb import bulk, common, loadgen, report, spans, stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n in (1, 5, 19, 20, 50, 99, 100, 199, 200, 500, 999, 1000, 5000):
            pct = stats.tail_percentile(n)
            if n < 20:
                self.assertEqual(pct, 50.0)
                self.assertTrue(all(stats.samples_beyond(n, p) < 10
                                    for p in stats.TAIL_PERCENTILES))
                continue
            self.assertGreaterEqual(stats.samples_beyond(n, pct), 10)
            higher = [p for p in stats.TAIL_PERCENTILES if p > pct]
            self.assertTrue(all(stats.samples_beyond(n, p) < 10 for p in higher))

    def test_p99_needs_about_a_thousand_samples(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(500), 95.0)
        self.assertEqual(stats.tail_percentile(10), 50.0)

    def test_beyond_count_matches_data(self):
        for n in (20, 200, 1000):
            values = list(range(n))
            pct, value = stats.tail(values)
            self.assertEqual(sum(v > value for v in values), stats.samples_beyond(n, pct))
            self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([7], 99), 7.0)


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time_and_reports_lateness(self):
        # One sender; the first request stalls 200 ms, so the two requests
        # due during the stall wait for it. Their latency must include that
        # wait, and the generator must report them late.
        def send(index):
            time.sleep(0.2 if index == 0 else 0.001)
            return True, 200, "", "r%d" % index

        outcomes = loadgen.open_loop([0.0, 0.05, 0.1], send, senders=1)
        first, second, third = outcomes
        self.assertGreaterEqual(first.latency_ms, 195)
        self.assertGreaterEqual(second.late_ms, 130)
        self.assertGreaterEqual(second.latency_ms, second.late_ms)
        self.assertGreaterEqual(third.late_ms, 80)
        self.assertLess(first.late_ms, 20)

    def test_transport_failure_is_a_failed_request(self):
        def send(index):
            raise OSError("connection refused")

        outcome = loadgen.open_loop([0.0], send, senders=1)[0]
        self.assertFalse(outcome.ok)
        self.assertIn("refused", outcome.detail)


class Mix(unittest.TestCase):
    def test_deck_has_exact_proportions_in_seeded_order(self):
        import random
        from pb import serve_small
        mix = (("fpga", 0.40), ("epr", 0.30), ("rrr", 0.25), ("sampled", 0.05))
        a = serve_small._deck(random.Random(1), 1000, mix)
        b = serve_small._deck(random.Random(1), 1000, mix)
        self.assertEqual(a, b)
        self.assertEqual({e: a.count(e) for e, _ in mix},
                         {"fpga": 400, "epr": 300, "rrr": 250, "sampled": 50})
        odd = serve_small._deck(random.Random(2), 7, (("x", 0.5), ("y", 0.5)))
        self.assertEqual(len(odd), 7)
        self.assertEqual(sorted(set(odd)), ["x", "y"])


class SelfTime(unittest.TestCase):
    def test_union_of_overlapping_children(self):
        self.assertEqual(spans.union_length([(1, 4), (3, 6), (8, 12)], 0, 10), 7)
        self.assertEqual(spans.union_length([], 0, 10), 0)
        self.assertEqual(spans.union_length([(5, 5)], 0, 10), 0)

    def test_self_time_subtracts_union_not_sum(self):
        tree = [spans.Span(1, 0, "root", "app", 0, 10),
                spans.Span(2, 1, "a", "jobs", 1, 3),
                spans.Span(3, 1, "b", "jobs", 3, 3),  # overlaps a by 1 ms
                spans.Span(4, 1, "c", "jobs", 8, 4)]  # runs past the parent
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[1], 3.0)
        self.assertAlmostEqual(selfs[2], 3.0)

    def test_modeled_spans_stay_out_of_wall_time(self):
        tree = [spans.Span(1, 0, "map_records", "mapper", 0, 10),
                spans.Span(2, 1, "search", "fpga", 0, 500, modeled=True)]
        self.assertAlmostEqual(spans.self_times(tree)[1], 10.0)
        self.assertNotIn(2, spans.self_times(tree))

    def test_graft_marks_fpga_subtree_modeled(self):
        rec = spans.Recorder(True)
        parent = rec.add("http", "app", 0.0, 20.0)
        rec.graft([{"id": 1, "parent": 0, "name": "job:map", "start_ms": 0, "dur_ms": 10},
                   {"id": 2, "parent": 1, "name": "search", "start_ms": 1, "dur_ms": 300},
                   {"id": 3, "parent": 2, "name": "fpga:kernel", "start_ms": 1, "dur_ms": 3}],
                  parent, 0.0, 20.0, "r1", modeled_names=("search",))
        modeled = {s.name: s.modeled for s in rec.spans}
        self.assertEqual(modeled, {"http": False, "job:map": False, "search": True,
                                   "fpga:kernel": True})
        events = json.loads(rec.chrome())["traceEvents"]
        self.assertEqual(len(events), 4)


def _trace(stages, engine_search=2.0):
    spans_ = [{"id": 1, "parent": 0, "name": "job:map", "start_ms": 0, "dur_ms": stages["job"]},
              {"id": 2, "parent": 1, "name": "queue_wait", "start_ms": 0, "dur_ms": stages["qw"]},
              {"id": 3, "parent": 1, "name": "run", "start_ms": 1, "dur_ms": stages["run"]},
              {"id": 4, "parent": 3, "name": "map_records", "start_ms": 1, "dur_ms": stages["map"]}]
    for i, name in enumerate(("seed", "search", "locate", "sam")):
        spans_.append({"id": 5 + i, "parent": 4, "name": name, "start_ms": -1,
                       "dur_ms": engine_search if name == "search" else 1.0})
    return spans_


class Unattributed(unittest.TestCase):
    def test_map_records_minus_stages(self):
        self.assertEqual(spans.unattributed_ms(10.0, [3.0, 4.0]), 3.0)
        self.assertEqual(spans.unattributed_ms(5.0, [3.0, 4.0]), 0.0)

    def test_software_request_adds_up_to_its_latency(self):
        trace = _trace({"job": 40.0, "qw": 2.0, "run": 37.0, "map": 36.0})
        split = common.request_breakdown(50.0, 1.0, trace, "epr")
        # map_records 36 = seed 1 + search 2 + locate 1 + sam 1 + 31 unexplained
        self.assertAlmostEqual(split["unattributed"], 31.0)
        self.assertAlmostEqual(split["fmindex"], 2.0)
        self.assertAlmostEqual(split["store"], 1.0)
        self.assertAlmostEqual(sum(split.values()), 50.0)

    def test_fpga_request_keeps_modeled_time_apart(self):
        trace = _trace({"job": 20.0, "qw": 1.0, "run": 18.0, "map": 17.0}, engine_search=180.0)
        split = common.request_breakdown(25.0, 0.0, trace, "fpga")
        self.assertAlmostEqual(split["fpga_modeled"], 180.0)
        self.assertAlmostEqual(split["fpga"], 14.0)  # 17 - seed - locate - sam
        wall = sum(v for k, v in split.items() if k != "fpga_modeled")
        self.assertAlmostEqual(wall, 25.0)


class BulkProfile(unittest.TestCase):
    @staticmethod
    def _sharded():
        # map_records 0..100 ms; two overlapping shards cover 2..62. Of the
        # 40 ms outside them the SAM (25 ms, after the last shard) is
        # mapper's, and 2 ms before the first shard plus 13 ms of merging
        # stay unexplained.
        trace = [{"id": 1, "parent": 0, "name": "map_records", "start_ms": 0.0, "dur_ms": 100.0},
                 {"id": 2, "parent": 1, "name": "shard", "start_ms": 2.0, "dur_ms": 40.0},
                 {"id": 3, "parent": 1, "name": "shard", "start_ms": 30.0, "dur_ms": 32.0}]
        stages = {"seed_ms": 10.0, "search_ms": 60.0, "locate_ms": 30.0, "sam_ms": 25.0}
        return {"trace": {"spans": trace}, "stages": stages, "reads": 1000}

    def test_sharded_run_keeps_sam_out_of_unattributed(self):
        out = bulk.layers_from_profiles([(130.0, self._sharded())])
        layers = out["layer_ms"]
        self.assertAlmostEqual(out["mapper.unattributed_ms"], 15.0)
        # The 60 ms the shards cover split by seed+locate : search = 40 : 60.
        self.assertAlmostEqual(layers["fmindex"], 36.0)
        self.assertAlmostEqual(layers["mapper"], 24.0 + 25.0)
        self.assertAlmostEqual(layers["proc"], 30.0)
        self.assertAlmostEqual(sum(layers.values()), 130.0)
        self.assertAlmostEqual(out["mapper.sam_ms_per_kread"], 25.0)


class _FakeCtx:
    def __init__(self, out):
        self.out = out

    def cli(self, args, tag, check=True, **_):
        class R:
            pass
        r = R()
        r.out = self.out
        r.code = 1
        return r


class EngineRows(unittest.TestCase):
    def test_engines_come_from_the_registry_message(self):
        ctx = _FakeCtx("bwaver: error: unknown engine: ? (fpga|rrr|sampled|epr)\n")
        self.assertEqual(common.registry_engines(ctx, "store"),
                         ["fpga", "rrr", "sampled", "epr"])

    def test_deleted_engine_drops_its_row(self):
        metrics = {"fmindex.rank_mops.rrr": 3.0, "fmindex.rank_mops.fpga": 5.0,
                   "failed_ratio": 0.0}
        out = report.contract(metrics, trace=True)
        self.assertIn("fmindex.rank_mops.rrr", out)
        self.assertNotIn("fmindex.rank_mops.sampled", out)
        self.assertEqual(out["fmindex.rank_mops.rrr"]["unit"], "Mrank/s")

    def test_oracle_engine_differs_from_the_timed_one(self):
        self.assertEqual(common.pick_oracle_engine(["fpga", "rrr", "epr"], ("rrr",)), "epr")
        self.assertEqual(common.pick_oracle_engine(["fpga", "rrr"], ("rrr",)), "fpga")
        mix = ("fpga", "epr", "rrr", "sampled")
        self.assertEqual(common.pick_oracle_engine(
            ["plain", "vector", "fpga", "rrr", "epr", "sampled"], mix), "plain")
        self.assertEqual(common.pick_oracle_engine(["fpga", "rrr", "epr", "sampled"], mix),
                         "fpga")


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogs(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as handle:
            doc = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(report.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         list(report.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in doc["workloads"]),
                         ["bulk", "fleet", "serve_small"])


if __name__ == "__main__":
    unittest.main()
