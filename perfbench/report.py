"""Print every benchmark metric, for each workload and seed.

    python3 perfbench/report.py [--seeds 0 1] [--seconds 20]

Each workload runs in a fresh process per seed, once untraced (end-to-end
metrics) and once traced (per-layer metrics and the tracing overhead).
Exits 1 if any run fails or any job's output is wrong (error_rate > 0).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            print(f"== {workload} seed={seed}")
            for trace in (0, 1):
                result, notes = run(workload, seed, args.seconds, trace)
                if result is None:
                    print(f"   run failed (trace={trace})")
                    ok = False
                    continue
                for line in notes:
                    if line.startswith(("# meta", "# machine", "# digest", "# FAIL")):
                        print("  ", line)
                error_rate = result["failed"] / result["attempted"]
                ok &= error_rate == 0
                rows = dict(result["metrics"])
                if not trace:
                    rows["error_rate"] = {"value": error_rate, "unit": "fraction"}
                for name, m in rows.items():
                    print(f"   {name:<52} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
