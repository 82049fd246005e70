"""End-to-end benchmark of the EMM/BMC verification stack.

Run from the repository root::

    python3 perfbench/run.py --workload soc_bmc3 --seed 1 --seconds 22 --trace 0

One client sends requests in a closed loop (the next request starts when
the previous one has returned) for about ``--seconds``; every request
is verified end to end and each property verdict is checked against the
committed expected-verdict table (``expected.json``).  The inputs come
from ``--seed`` alone.

``--trace 0`` prints the end-to-end metrics (``request_s``, ``setup_s``,
``peak_rss_mb``; ``failed_frac`` is printed and carried by the result's
``attempted``/``failed`` counts).  ``--trace 1`` alternates untraced and
traced requests and prints the per-layer split of the traced ones (see
``tracing.py``) plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the machine, ``nproc``, the
Python version, the source revision and the exact command.

Workloads, their reasons and the metric each layer figure should move
are documented in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("soc_bmc3", "img_bmc2", "qs_pba", "soc_service")
#: Extra set-ups, each in a fresh interpreter, so ``setup_s`` (which
#: includes importing ``repro``) is a median rather than one sample.
#: They run between requests, spread over the run: the host's speed
#: drifts over tens of seconds, and a median of set-ups taken all at
#: once would sample only one stretch of it.
SETUP_PROBES = 15
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Stated tolerance of the traced split: the layer spans must cover at
#: least this share of a traced request's wall time.
MIN_ATTRIBUTED = 0.99
#: Lowest self time a span may have.  Below it, children overlap each
#: other or reach outside their parent: the span tree is wrong.
MIN_SELF_S = -1e-9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up in a fresh interpreter (see SETUP_PROBES).
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_source_tree() -> None:
    """Import ``repro`` from ``./src`` of the checkout, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'repro'} not found; run from the "
                         "repository root")
    sys.path.insert(0, str(SRC))
    # find_spec locates the package without importing it: the import is
    # part of the timed set-up.
    spec = importlib.util.find_spec("repro")
    if not Path(spec.origin).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: repro resolves to {spec.origin}, "
                         f"not to {SRC}")


def timed_setup(name: str, seed: int):
    """Import ``repro``, build the expected table and the design."""
    t0 = time.perf_counter()
    import workloads  # imports repro
    wl = workloads.draw(name, seed)
    t1 = time.perf_counter()
    wl.build()
    t2 = time.perf_counter()
    return wl, t2 - t0, t2 - t1


def probe_setup(args) -> tuple[float, float]:
    """One timed set-up in a fresh interpreter: (setup_s, build_s)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["setup_s"], rec["build_s"]


def environment(argv) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "command": shlex.join([Path(sys.executable).name,
                               "perfbench/run.py", *argv]),
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """Content hash of ``src/``: identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tail_percentile(samples: list[float]):
    """Highest percentile with at least TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return None
    return 100.0 * (n - TAIL_SAMPLES) / n, sorted(samples)[n - TAIL_SAMPLES - 1]


def run(args) -> dict:
    wl, setup_s, build_s = timed_setup(args.workload, args.seed)
    import workloads
    from repro.perf import peak_rss_mb

    probes = [(setup_s, build_s)]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    plain_s, traced_s, layer_samples = [], [], []
    outcomes, problems = [], []
    attempted = failed = 0
    probing = 0.0  # seconds spent in set-up probes since the loop began
    start = time.perf_counter()
    deadline = start + args.seconds
    n = 0
    while True:
        # The traced run alternates untraced and traced requests, so the
        # overhead compares like with like.
        traced = tracer is not None and n % 2 == 1
        try:
            if traced:
                with tracer.request() as root:
                    outcome = wl.request(traced=True)
                dt = root.end - root.start
            else:
                t0 = time.perf_counter()
                outcome = wl.request(traced=False)
                dt = time.perf_counter() - t0
        except Exception:  # a crashed request counts as all-missing
            traceback.print_exc()
            outcome = workloads.Outcome({}, {})
            dt = None
        bad = workloads.check(wl, outcome)
        attempted += len(wl.expected)
        failed += len(bad)
        problems.extend(f"{name}: {why}" for name, why in bad.items())
        outcomes.append(outcome)
        if dt is not None:
            (traced_s if traced else plain_s).append(dt)
            if traced:
                spans = tracer.requests[-1]
                overlapping = sorted({
                    span.name for span, own
                    in zip(spans, tracing.self_times(spans))
                    if own < MIN_SELF_S})
                if overlapping:
                    problems.append("trace: negative self time (children "
                                    "overlap or outlast their parent) in "
                                    + ", ".join(overlapping))
                layers = tracing.layer_metrics(
                    spans, tracer.sessions, outcome, tracer.arrivals,
                    workloads.SERVICE_JOBS)
                if layers["trace.attributed_frac"] < MIN_ATTRIBUTED:
                    problems.append("trace: spans cover only "
                                    f"{layers['trace.attributed_frac']:.4f} "
                                    "of the request's wall time")
                layer_samples.append(layers)
        n += 1
        # Run the set-up probes due by now, in proportion to the request
        # time spent, and move the deadline by the time they take.
        t0 = time.perf_counter()
        share = (min(1.0, (t0 - start - probing) / args.seconds)
                 if args.seconds > 0 else 1.0)
        while len(probes) < 1 + int(SETUP_PROBES * share):
            probes.append(probe_setup(args))
        now = time.perf_counter()
        probing += now - t0
        deadline += now - t0
        if plain_s and (tracer is None or traced_s):
            # Stop once another request would end further past the
            # deadline than it starts before it, so a run lasts about
            # --seconds however long its requests are.
            if now + statistics.median(plain_s + traced_s) / 2 >= deadline:
                break
        elif now >= deadline and n >= 4:
            break
    if not plain_s or (tracer is not None and not traced_s):
        raise SystemExit("error: no request completed; see the tracebacks")
    while len(probes) < 1 + SETUP_PROBES:
        probes.append(probe_setup(args))
    setups = [p[0] for p in probes]
    builds = [p[1] for p in probes]

    # Every request sends the same inputs, so the deterministic counters
    # must repeat exactly, traced or not (tracing only observes), and so
    # must the counted layer figures of every traced request.
    repeats = {"counters": [o.counters for o in outcomes if o.counters]}
    if tracer is not None:
        repeats["traced layer counts"] = [
            {name: layers[name] for name in tracing.COUNT_METRICS}
            for layers in layer_samples]
    for what, seen in repeats.items():
        distinct = {json.dumps(c, sort_keys=True) for c in seen}
        if len(distinct) > 1:
            problems.append(f"{what} differ between requests: {distinct}")

    job_rss = max((o.job_peak_rss_mb for o in outcomes), default=0.0)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "setups": setups,
        "builds": builds,
        "peak_rss_mb": max(peak_rss_mb(), job_rss),
        "problems": problems,
        "counters": outcomes[0].counters,
    }
    if tracer is not None:
        layers = tracing.median_metrics(layer_samples)
        layers["design.build_s"] = statistics.median(builds)
        layers["trace.overhead_s"] = (statistics.median(traced_s)
                                      - statistics.median(plain_s))
        result["layers"] = layers
        write_spans(args, tracer)
    return result


def write_spans(args, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with path.open("w") as f:
        json.dump([[s.to_list() for s in spans] for spans in tracer.requests],
                  f)


def report(args, res: dict) -> dict:
    """Print the human-readable block; return the metrics object."""
    plain = res["plain_s"]
    req = statistics.median(plain)
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{len(plain)} untraced + {len(res['traced_s'])} traced requests")
    tail = tail_percentile(plain)
    tail_txt = ("n/a (needs more than "
                f"{TAIL_SAMPLES} samples)" if tail is None
                else f"p{tail[0]:.1f} = {tail[1]:.4f} s")
    print(f"  request_s    {req:10.4f} s   median of {len(plain)}; "
          f"tail {tail_txt}")
    print("  request samples (s): "
          + " ".join(f"{x:.4f}" for x in plain))
    print(f"  setup_s      {statistics.median(res['setups']):10.4f} s   "
          f"median of {len(res['setups'])} set-ups")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:10.2f} MB")
    frac = res["failed"] / res["attempted"]
    print(f"  failed_frac  {frac:10.4f} frac  ({res['failed']} of "
          f"{res['attempted']} property verdicts)")
    for msg in res["problems"][:20]:
        print(f"  problem: {msg}")
    if "layers" not in res:
        return {
            "request_s": {"value": req, "unit": "s"},
            "setup_s": {"value": statistics.median(res["setups"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    with open(ROOT / "BENCHMARK.json") as f:
        units = {m["name"]: m["unit"]
                 for m in json.load(f)["per_layer"]}
    metrics = {}
    for name, unit in units.items():
        value = res["layers"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:14.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    use_source_tree()
    if args.setup_probe:
        _wl, setup_s, build_s = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "build_s": build_s}))
        return 0
    res = run(args)
    metrics = report(args, res)
    print(json.dumps({"environment": environment(argv),
                      "counters": res["counters"]}))
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
