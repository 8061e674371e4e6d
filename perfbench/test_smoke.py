#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, untraced and
traced, must print a correct result whose metrics are exactly the ones
BENCHMARK.json declares; and a directory holding only the benchmark
must fail without printing a result.

    python3 perfbench/test_smoke.py      (from the root of a checkout)
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, spec.keys()
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "names must be unique"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in spec["end_to_end"])


def run(args, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def main():
    spec = json.load(open("BENCHMARK.json"))
    check_spec(spec)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            p = run(["--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"])
            assert p.returncode == 0, (w["name"], trace, p.stderr[-2000:])
            result = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], (w["name"], trace, set(got) ^ set(declared[trace]))
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
                if trace == 0:
                    assert v["value"] > 0, (w["name"], k, v)
            print(f"ok  {w['name']:16s} trace={trace}")
    bare = os.path.join("_perfbench", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path))
        p = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare)
        assert p.returncode != 0 and not p.stdout.strip(), (p.returncode, p.stdout[-500:])
        print("ok  benchmark alone fails without a result")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    main()
