"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

Asserts that
- BENCHMARK.json names the workloads of spec.py and exactly the per-layer
  metrics of spec.LAYER_MAP;
- two traced runs of every workload emit every per-layer metric, agree on
  every count, and pass the in-run checks (reference reports and the
  zero/non-zero pattern of spec.NONZERO_ON);
- the frame-cache regime depends on the point count, not on the seed: at a
  second seed optic-sweep still builds 700 frames and optic-suite still
  fits the cache.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import spec
from run import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OTHER_SEED = 8


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], f"{workload} seed {seed}: {out.stderr}"
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec.per_layer_names()
    assert [m["name"] for m in bench["per_layer"]] == names
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: wl["why"] for name, wl in spec.WORKLOADS.items()}

    counted = [n for n in names if unit_of(n) != "s"]
    for workload in spec.WORKLOADS:
        seed = spec.default_seed(workload)
        first, second = traced(workload, seed), traced(workload, seed)
        assert sorted(first) == sorted(names), workload
        diff = {n: (first[n], second[n]) for n in counted if first[n] != second[n]}
        assert not diff, f"{workload}: counts differ between runs: {diff}"
        print(f"{workload}: {len(first)} metrics, counts repeat; "
              f"frame builds {first['geometry.frame.builds']}, "
              f"hit ratio {first['geometry.frame.hit_ratio']:.2f}")

    sweep = traced("optic-sweep", OTHER_SEED)
    suite = traced("optic-suite", OTHER_SEED)
    assert sweep["geometry.frame.builds"] == 700, sweep["geometry.frame.builds"]
    assert suite["geometry.frame.builds"] == 36, suite["geometry.frame.builds"]
    print(f"seed {OTHER_SEED}: optic-sweep builds 700 frames, optic-suite 36")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
