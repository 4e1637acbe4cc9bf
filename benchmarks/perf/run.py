"""The repo's repeatable serving benchmark.

One workload, as the benchmark driver runs it::

    python3 benchmarks/perf/run.py --workload warm_page --seed 7 --seconds 12 --trace 0

Every workload, end to end and traced, as a table (``--aa`` runs the
end-to-end set twice and compares the two against the bounds)::

    python3 benchmarks/perf/run.py --seed 2007

Each serving topology boots in a child process through the public Python
entry points, is driven over loopback sockets by this process, and every
answer is checked against an in-process oracle.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"run.py: no serving code under {ROOT / 'src'}; nothing to benchmark")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import OUT, SPEC, WINDOW_S, measure  # noqa: E402
from layers import traced_run  # noqa: E402


# ------------------------------------------------------------------- output
def check_names(result: dict, section: str) -> None:
    want = {m["name"] for m in SPEC[section]}
    got = set(result["metrics"])
    if want != got:
        raise SystemExit(
            f"run.py: metrics differ from BENCHMARK.json {section}: "
            f"missing {sorted(want - got)}, extra {sorted(got - want)}"
        )


def emit(result: dict) -> None:
    public = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(public), flush=True)


def print_table(name: str, result: dict) -> None:
    spread = result.get("detail", {}).get("spread", {})
    for metric, entry in result["metrics"].items():
        extra = ""
        if metric in spread:
            s = spread[metric]
            extra = f"  (window median {s['median']:.4g}, opposite quartile {s['opposite']:.4g})"
        print(f"{name:16s} {metric:44s} {entry['value']:14.4f} {entry['unit']}{extra}")
    detail = result.get("detail", {})
    if "latency_p95_ms" in detail:
        print(f"{name:16s} {'latency_p95_ms (pooled, not gated)':44s} "
              f"{detail['latency_p95_ms']:14.4f} ms  ({detail['latency_samples']} samples)")
    if detail.get("write_p50_ms") is not None:
        print(f"{name:16s} {'write_p50_ms':44s} {detail['write_p50_ms']:14.4f} ms"
              f"  ({detail['writes']} writes)")
    for problem in detail.get("problems", []):
        print(f"{name:16s} PROBLEM {problem}")
    print(f"{name:16s} attempted {result['attempted']} failed {result['failed']}", flush=True)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def full_set(seed: int, seconds: float, window_s: float, traced: bool) -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        out[name] = {"end_to_end": measure(name, seed, seconds, window_s)}
        check_names(out[name]["end_to_end"], "end_to_end")
        print_table(name, out[name]["end_to_end"])
        if traced:
            out[name]["per_layer"] = traced_run(name, seed, seconds, window_s)
            check_names(out[name]["per_layer"], "per_layer")
            print_table(name, out[name]["per_layer"])
    return out


def compare_sets(first: dict, second: dict) -> bool:
    """Print |b-a|/a per metric x workload against its bound; False on a breach."""
    ok = True
    for metric in SPEC["end_to_end"]:
        for name in workloads.WORKLOADS:
            a = first[name]["end_to_end"]["metrics"][metric["name"]]["value"]
            b = second[name]["end_to_end"]["metrics"][metric["name"]]["value"]
            diff = abs(b - a) / a if a else float("inf")
            verdict = "ok" if diff <= metric["bound"] else "BREACH"
            ok = ok and verdict == "ok"
            print(f"A/A {name:16s} {metric['name']:24s} {a:12.4f} {b:12.4f} "
                  f"diff {diff:6.1%} bound {metric['bound']:.0%} {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--aa", action="store_true",
                        help="run the end-to-end set twice and compare against the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="2 windows x 0.5 s per workload: exercises every path, measures nothing")
    args = parser.parse_args(argv)
    seconds, window_s = (1.0, 0.5) if args.smoke else (args.seconds, WINDOW_S)
    OUT.mkdir(exist_ok=True)
    harness.stop_servers_on_exit()

    if args.workload is not None:
        result = (traced_run if args.trace else measure)(args.workload, args.seed, seconds, window_s)
        check_names(result, "per_layer" if args.trace else "end_to_end")
        print_table(args.workload, result)
        emit(result)
        return 0

    report = {"seed": args.seed, "seconds": seconds, "environment": environment()}
    report["sets"] = [full_set(args.seed, seconds, window_s, traced=args.trace != 0)]
    clean = all(
        part["failed"] == 0 for entry in report["sets"][0].values() for part in entry.values()
    )
    if args.aa:
        report["sets"].append(full_set(args.seed, seconds, window_s, traced=False))
        clean = compare_sets(*report["sets"]) and clean
    (OUT / f"results-{args.seed}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
