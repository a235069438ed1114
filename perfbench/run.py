"""Benchmark for the noncat package: seeded workloads, per-command latency,
checked outputs, and an outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload families --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

Each workload is a fixed, seeded list of commands, issued by one caller in
a closed loop: the next command starts when the previous output has
arrived. A *pass* runs the whole list once in a fresh worker process, so
nothing cached in memory carries from one pass to the next; passes repeat
until `--seconds` have elapsed. Each command's latency is its mean over
the passes, and the percentiles and throughput are taken over these
means. Set-up is measured in at least nine fresh
processes and reported as their median.

With `--trace 1` the run makes one untraced pass and one traced pass and
prints the per-layer metrics instead; spans are written to
`.bench_trace/<workload>-seed<seed>.tsv.gz`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when a
result was printed, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
import workloads
from tracer import PROBE, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_cmd_per_s": "1/s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


class MissingPackage(Exception):
    pass


def require_source():
    if not (SRC / "noncat" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'noncat'}")


def import_noncat():
    require_source()
    sys.path.insert(0, str(SRC))
    import noncat
    if SRC not in Path(noncat.__file__).resolve().parents:
        raise MissingPackage(f"imported noncat from {noncat.__file__}, "
                             f"not from {SRC}")
    return noncat


# -- worker: one pass in a fresh process --

def _prepare(items):
    """Parse each script, or build each library ring, before timing."""
    from noncat.dsl import parse_script
    from noncat.poly import (FieldDescriptor, Polynomial, RingPresentation,
                             VariableContext)
    rationals = FieldDescriptor(0)
    for item in items:
        if item.text is not None:
            item.script = parse_script(item.text)
        else:
            names, gens = item.ring
            ctx = VariableContext(names)
            item.presentation = RingPresentation(
                rationals, ctx,
                tuple(Polynomial(rationals, ctx, ((1, e),)) for e in gens))
    return items


def _parse_output(item, out):
    if item.text is None:
        return out.to_json_dict()
    return json.loads(out) if item.fmt == "json" else out


def _run_commands(items, tracer):
    """The closed loop. Returns one record per command,
    (latency_s, ok, produces_report, decided), and the problems found."""
    from noncat.analyzer import AnalysisConfig, analyze
    from noncat.cli import run_script
    config = AnalysisConfig()
    records, problems = [], []
    for item in items:
        if item.text is None:
            outputs, span_name = None, "lib.command"
        else:
            outputs = run_script(item.script, config, item.fmt)
            span_name = "cli.command"
        for k, (is_report, check) in enumerate(item.checks):
            if outputs is None:
                call = functools.partial(analyze, item.presentation, config)
            else:
                call = functools.partial(next, outputs)
            t0 = time.perf_counter()
            try:
                out = (tracer.run_command(span_name, len(records), call)
                       if tracer else call())
            except Exception as exc:  # a failed command is counted, not fatal
                records.append((time.perf_counter() - t0, False, is_report,
                                False))
                problems.append(f"{item.label}: {type(exc).__name__}: {exc}")
                for is_rep, _ in item.checks[k + 1:]:
                    records.append((0.0, False, is_rep, False))
                break
            latency = time.perf_counter() - t0
            try:
                parsed = _parse_output(item, out)
                found = check(parsed)
                decided = is_report and ref.is_decided(parsed)
            except Exception as exc:  # malformed output
                found, decided = [f"check raised {exc!r}"], False
            problems += [f"{item.label}: {p}" for p in found]
            records.append((latency, not found, is_report, decided))
    return records, problems


def _run_probe(tracer):
    """The known-defect rung, outside the counted commands."""
    from noncat.analyzer import AnalysisConfig
    from noncat.cli import run_script
    from noncat.dsl import parse_script
    from noncat.families import FamilySpec, expected_mismatches, instantiate

    def call():
        return next(run_script(parse_script(workloads.PROBE),
                               AnalysisConfig(), "json"))

    t0 = time.perf_counter()
    try:
        out = tracer.run_command("cli.command", PROBE, call) if tracer \
            else call()
    except Exception as exc:  # the outcome is what the probe reports
        outcome = f"{type(exc).__name__}: {exc}"
    else:
        _, expected = instantiate(FamilySpec("example_ufd", (8, 8)))
        bad = expected_mismatches(json.loads(out), expected)
        outcome = "ok" if not bad else f"wrong report: {bad}"
    return {"command": workloads.PROBE, "outcome": outcome,
            "seconds": time.perf_counter() - t0}


def worker(args):
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    import_noncat()
    if tracer:
        tracer.install()
    items = _prepare(workloads.BUILDERS[args.workload](args.seed))
    setup_s = time.perf_counter() - t0
    if args.worker == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    records, problems = _run_commands(items, tracer)
    result = {"setup_s": setup_s, "records": records, "problems": problems}
    if args.probe and args.workload == "families":
        result["probe"] = _run_probe(tracer)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        layers, bases, self_s = layer_metrics(tracer)
        result.update(layers=layers, bases=bases, self_s=self_s)
        result["failures"] = [
            [tracer.names[tracer.span_name[sid]], kind]
            for sid, kind in tracer.failures if tracer.command[sid] == PROBE]
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        result["spans"] = [len(tracer.span_name), str(path.relative_to(ROOT))]
    print(json.dumps(result))
    return 0


# -- orchestrator --

def _spawn(args, mode, trace=0, probe=False):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--trace", str(trace),
           "--worker", mode]
    if probe:
        cmd.append("--probe")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def pass_stats(records):
    """Per-pass latency percentiles, throughput and shares. A failed
    command ranks as slower than every success."""
    ranked = sorted(records, key=lambda r: (not r[1], r[0]))
    lat = [r[0] for r in ranked]
    n = len(lat)
    mid = (lat[(n - 1) // 2] + lat[n // 2]) / 2
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 100
    tail_index = math.ceil(pct * n / 100) - 1
    reports = [r for r in records if r[2]]
    wall = sum(lat)
    return {
        "commands": n,
        "failed": sum(1 for r in records if not r[1]),
        "wall_s": wall,
        "latency_p50_ms": mid * 1e3,
        "latency_tail_ms": lat[tail_index] * 1e3,
        "tail_percentile": pct,
        "throughput_cmd_per_s": sum(1 for r in records if r[1]) / wall,
        "reports": len(reports),
        "decided": sum(1 for r in reports if r[3]),
        "decided_share": (sum(1 for r in reports if r[3]) / len(reports)
                          if reports else 1.0),
    }


def _print_probe(probe):
    print(f"probe {probe['command']}: {probe['outcome']} "
          f"({probe['seconds']:.3f} s; not counted)")


def measure(args):
    """Untraced run: passes until --seconds have elapsed."""
    deadline = time.monotonic() + args.seconds
    passes = []
    while not passes or time.monotonic() < deadline:
        passes.append(_spawn(args, "pass", probe=not passes))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(args, "setup")["setup_s"])
    # Each command's latency is its mean over the passes, taken before
    # ranking: a per-pass percentile jumps between neighbouring commands
    # whose latencies differ by up to 20% when their order flips.
    merged = [(statistics.fmean(r[0] for r in rows), all(r[1] for r in rows),
               rows[0][2], all(r[3] for r in rows))
              for rows in zip(*(p["records"] for p in passes))]
    stats = pass_stats(merged)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": stats["latency_p50_ms"],
        "latency_tail_ms": stats["latency_tail_ms"],
        "throughput_cmd_per_s": stats["throughput_cmd_per_s"],
        "decided_share": stats["decided_share"],
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    attempted = len(passes) * stats["commands"]
    failed = sum(1 for p in passes for r in p["records"] if not r[1])
    print(f"workload {args.workload}  seed {args.seed}  {len(passes)} pass(es)"
          f" of {stats['commands']} commands, one caller, closed loop")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_p50_ms": f"{stats['commands']} commands, each the mean "
                          "over the passes",
        "latency_tail_ms": f"p{stats['tail_percentile']}",
        "decided_share": f"{stats['decided']} of {stats['reports']} reports",
        "peak_rss_mb": "largest ru_maxrss of the pass processes",
    }
    for name, value in metrics.items():
        if name == "decided_share":
            print(f"  {'failed_share':22s} {failed / attempted:<12.6g} ratio"
                  f"  ({failed} of {attempted} commands)")
        print(f"  {name:22s} {value:<12.6g} {END_TO_END_UNITS[name]:5s}"
              f"  {notes.get(name, '')}")
    print(f"  timed wall {stats['wall_s']:.4f} s per pass")
    for p in passes:
        for problem in p["problems"][:20]:
            print(f"  FAILED {problem}")
    if "probe" in passes[0]:
        _print_probe(passes[0]["probe"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
    }


def trace(args):
    """Traced run: one untraced and one traced pass of the same list."""
    plain = _spawn(args, "pass")
    traced = _spawn(args, "pass", trace=1, probe=True)
    plain_wall = pass_stats(plain["records"])["wall_s"]
    traced_stats = pass_stats(traced["records"])
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced_stats["wall_s"] - plain_wall
    print(f"workload {args.workload}  seed {args.seed}  traced pass of "
          f"{traced_stats['commands']} commands, {traced['spans'][0]} spans "
          f"in {traced['spans'][1]}")
    for name, value in layers.items():
        print(f"  {name:44s} {value:.6g}")
    for name, basis in traced["bases"].items():
        print(f"  basis of {name}: {basis}")
    by_layer = {}
    for name, secs in traced["self_s"].items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + secs
    total = sum(by_layer.values()) or 1.0
    print("  self-time split: " + ", ".join(
        f"{k} {100 * v / total:.1f}%"
        for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    if "probe" in traced:
        _print_probe(traced["probe"])
        for span, kind in traced["failures"][:1]:
            print(f"  probe failure {kind} attributed to {span}")
    problems = plain["problems"] + traced["problems"]
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    attempted = len(plain["records"]) + len(traced["records"])
    failed = sum(1 for p in (plain, traced) for r in p["records"] if not r[1])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)}
                    for k, v in layers.items()},
    }


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one pass (or only the set-up) in this process
    parser.add_argument("--worker", choices=("pass", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.worker:
            return worker(args)
        require_source()
        names = workloads.WORKLOADS if args.workload == "all" else \
            (args.workload,)
        for name in names:
            args.workload = name
            result = trace(args) if args.trace else measure(args)
            print(json.dumps(result))
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
