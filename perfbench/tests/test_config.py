"""Check BENCHMARK.json's shape and that perfbench/workloads.json covers it.

src/report.rs checks its own metric tables against BENCHMARK.json
(`cargo test`).

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class ConfigTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.map = json.loads((HERE / "workloads.json").read_text())

    def test_benchmark_json_has_the_contract_shape(self):
        b = self.bench
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [w["name"] for w in b["workloads"]] + [
            m["name"] for m in b["end_to_end"] + b["per_layer"]
        ]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for n in names:
            self.assertRegex(n, NAME)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertRegex(m["unit"], UNIT)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(len(json.dumps(b)), 64 * 1024)

    def test_workloads_json_covers_every_workload_and_layer(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(self.map["workloads"]), sorted(names))
        for w, info in self.map["workloads"].items():
            self.assertNotEqual(info["default_seed"], info["held_out_seed"], w)
            self.assertEqual(
                set(info["e2e_meaning"]),
                {m["name"] for m in self.bench["end_to_end"]} - {"setup_s", "peak_rss_mb"},
                w,
            )
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(set(self.map["per_layer"]), {m["name"] for m in self.bench["per_layer"]})
        for name, row in self.map["per_layer"].items():
            self.assertTrue(set(row["moves"]) <= e2e, name)
            self.assertTrue(set(row["on"]) <= set(names), name)
            self.assertTrue(set(row["not_on"]) <= set(names), name)
            self.assertFalse(set(row["on"]) & set(row["not_on"]), name)


if __name__ == "__main__":
    unittest.main()
