#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the byte-identity criterion's tiny
configuration (40 records, hidden 8, ffn 12, max_len 32, 2 epochs).

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it makes one timed and one traced run and checks that
every metric BENCHMARK.json lists is emitted with its unit, that the traced
run puts every wrapped attribute back, that the timed and traced runs
produce byte-identical artifacts, and that every output check passes. It
also checks that a missing wrap target resolves as absent instead of
raising.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.prepare()
    from tracing import TARGETS, resolve
    from workloads import TINY, WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bindings = [b for _, group, _ in TARGETS for b in group]
    originals = {b: resolve(b) for b in bindings}
    problems = []
    for missing in ("numerics:no_such_function", "no_such_module:f", "distill:LogitStore.nope"):
        if resolve(missing) is not None:
            problems.append(f"{missing} should resolve as absent")

    for name in WORKLOADS:
        digests = {}
        for trace in (False, True):
            outcome = run.run(name, seed=5, seconds=1, trace=trace, shape=TINY,
                              work=run.WORK / "smoke" / name)
            line = run.result_line(outcome, spec, trace)
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in listed:
                emitted = line["metrics"].get(metric["name"])
                if emitted is None or emitted["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} not emitted with its unit")
            if not line["correct"] or line["failed"]:
                problems.append(f"{name}: failed checks {outcome['report']['failed_checks']}")
            digests[trace] = outcome["report"]["artifact_sha256"]
            if not outcome["report"]["artifacts_identical"]:
                problems.append(f"{name}: iterations of one run wrote different artifacts")
        if digests[False] != digests[True]:
            problems.append(f"{name}: timed and traced runs wrote different artifacts")
        for binding, before in originals.items():
            after = resolve(binding)
            if (before is None) != (after is None) or (before and before[2] is not after[2]):
                problems.append(f"{name}: {binding} not restored after the traced run")
        print(f"smoke {name}: done")

    run.shutil.rmtree(run.WORK / "smoke", ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
