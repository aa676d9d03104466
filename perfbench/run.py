"""The seqlatin benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload square_zipf --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/`.  One client issues one request at a time and sends the next when
the previous one returns (a closed loop).  It issues whole rounds of the
workload's requests until at least --seconds seconds of requests have
been measured.  Every answer is then checked by code that shares nothing
with the construction (see checks.py); wrong answers and failed
requests count against ok_ratio.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every request
twice, untraced and with spans around the package's public functions,
in alternating order, and reports the per-layer metrics from the
traced runs plus the tracing overhead.  Both print a row per pass and the
input mix, and write them with the spans to .perfbench_out/.  The last
line of stdout is one JSON object for the driver.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, per_layer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = (
    "errors",
    "numtheory",
    "pipelines",
    "template",
    "harmonious",
    "graceful",
    "rotational",
    "latin",
    "oracle",
    "groups",
    "cli",
)
# Every request starts at this stack depth.  Some searches run several
# times slower when entered from a shallow stack (cause not known), so
# the depth is pinned rather than left to the caller.
ISSUE_DEPTH = 40
SETUP_SAMPLES = 5
# The checks run after the timed part, so they may use both cores.
CHECK_JOBS = 2
_to_check = None  # (sl, wl, outcomes) that forked check workers inherit


class Deadline(BaseException):
    """A request ran past its workload's latency limit."""


def _on_alarm(signum, frame):
    raise Deadline()


def _depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def _descend(k, call, sl):
    return _descend(k - 1, call, sl) if k > 0 else call(sl)


def issue(call, sl):
    """Run one request with its first frame at the same depth for every caller."""
    pad = ISSUE_DEPTH - _depth()
    if pad < 0:
        raise RuntimeError(f"driver stack is deeper than ISSUE_DEPTH={ISSUE_DEPTH}")
    return _descend(pad, call, sl)


@dataclass
class Outcome:
    req: object
    latency: float
    fail: str | None  # why the request raised, if it did
    kept: object  # what the checks need from the answer
    round: int  # index of the round the request belongs to
    reject: str | None = None  # why the checks refused the answer


def load_package():
    sys.path.insert(0, str(ROOT / "src"))
    modules = {m: importlib.import_module(f"seqlatin.{m}") for m in PACKAGE_MODULES}
    return types.SimpleNamespace(**modules)


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs; returns (sl, wl, seconds)."""
    t0 = time.perf_counter()
    sl = load_package()
    wl = WORKLOADS[workload](sl, seed, str(workdir))
    return sl, wl, time.perf_counter() - t0


def probe_setup(args, workdir: Path) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(
        cmd + ["--setup-probe", str(workdir)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def serve(sl, wl, req):
    """Issue one request under the workload's latency limit: (latency, failure, result)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, wl.limit_s)
        try:
            result = issue(req.call, sl)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0, None, result
    except Deadline:
        return time.perf_counter() - t0, "deadline", None
    except (sl.errors.NotFound, sl.errors.ConstructionFailed) as exc:
        return time.perf_counter() - t0, type(exc).__name__, None
    except Exception as exc:
        latency = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return latency, f"unexpected {type(exc).__name__}", None


def closed_loop(sl, wl, rounds, seconds: float, tracer=None) -> dict[str, list[Outcome]]:
    """Issue whole rounds until the untraced requests have taken `seconds`.

    With a tracer every request runs twice, untraced and traced, the
    order alternating from one request to the next, so warm-up and drift
    in machine speed fall on both sides alike.
    """
    passes: dict[str, list[Outcome]] = {"untraced": []}
    if tracer is not None:
        passes["traced"] = []
    busy = 0.0
    for r, batch in enumerate(rounds):
        for req in batch:
            labels = list(passes) if len(passes["untraced"]) % 2 == 0 else list(passes)[::-1]
            for label in labels:
                if label == "traced":
                    tracer.begin(len(passes["traced"]))
                    tracer.install()
                try:
                    latency, fail, result = serve(sl, wl, req)
                finally:
                    if label == "traced":
                        tracer.uninstall()
                kept = wl.keep(sl, req, result) if fail is None else None
                passes[label].append(Outcome(req, latency, fail, kept, r))
                if label == "untraced":
                    busy += latency
        if busy >= seconds:
            break
    return passes


def _check_input(indices):
    sl, wl, outcomes = _to_check
    rejects = []
    for i in indices:
        o = outcomes[i]
        try:
            rejects.append((i, wl.check(sl, o.req, o.kept)))
        except Exception as exc:
            rejects.append((i, f"checker raised {type(exc).__name__}: {exc}"))
    return rejects


def check_all(sl, wl, outcomes):
    """Check every answer, after the timed part, in CHECK_JOBS forked workers.

    One task holds every answer to one input, so a workload's per-input
    check caches fill once; the costliest inputs go first.
    """
    global _to_check
    by_input = defaultdict(list)
    for i, o in enumerate(outcomes):
        if o.fail is None:
            by_input[(o.req.kind, o.req.key)].append(i)
    tasks = sorted(by_input.values(), key=lambda ix: -sum(outcomes[i].latency for i in ix))
    _to_check = (sl, wl, outcomes)
    pool = multiprocessing.get_context("fork").Pool(CHECK_JOBS)
    try:
        for rejects in pool.imap_unordered(_check_input, tasks):
            for i, reject in rejects:
                outcomes[i].reject = reject
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()
        _to_check = None


def failed(outcomes) -> int:
    return sum(o.fail is not None or o.reject is not None for o in outcomes)


def end_to_end(outcomes, setup_s: float, peak_rss_mb: float) -> dict:
    lat = [o.latency for o in outcomes]
    return {
        "setup_s": (setup_s, "s"),
        "req_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * statistics.quantiles(lat, n=10)[-1], "ms"),
        "ok_ratio": (1 - failed(outcomes) / len(lat), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def describe(wl, outcomes) -> dict:
    """Input mix and the measures that only some workloads have."""
    n = len(outcomes)
    labels = Counter(wl.label(o.req, o.kept) for o in outcomes)
    reasons = Counter(
        f"{o.fail or o.reject} [{o.req.kind} {o.req.key}]" for o in outcomes if o.fail or o.reject
    )
    busy: Counter = Counter()
    for o in outcomes:
        busy[f"{o.req.kind} {o.req.key}"] += o.latency
    return {
        "samples": n,
        "fail_ratio": failed(outcomes) / n,
        "failures": dict(sorted(reasons.items())),
        "share": {k: v / n for k, v in sorted(labels.items())},
        "busy_s_by_input": dict(sorted(busy.items())),
        **wl.extra(outcomes),
    }


def row(workload: str, label: str, metrics: dict, info: dict) -> str:
    cells = [f"{k}={v:.6g} {unit}" for k, (v, unit) in metrics.items()]
    cells += [f"{k}={v:.6g}" for k, v in info.items() if isinstance(v, (int, float))]
    return f"{workload} [{label}] " + "  ".join(cells)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "seqlatin" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'seqlatin'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, wl, seconds = setup(args.workload, args.seed, Path(args.setup_probe))
        wl.close()
        print(seconds)
        return 0

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    sl, wl, first = setup(args.workload, args.seed, out / "inputs")
    try:
        return measure(args, out, sl, wl, first)
    finally:
        wl.close()
        shutil.rmtree(out / "inputs", ignore_errors=True)


def measure(args, out: Path, sl, wl, first_setup_s: float) -> int:
    """Time the workload, check its answers and report; returns the exit code."""
    setup_samples = [first_setup_s]
    for i in range(1, SETUP_SAMPLES):
        setup_samples.append(probe_setup(args, out / f"probe{i}"))
        shutil.rmtree(out / f"probe{i}", ignore_errors=True)
    setup_s = statistics.median(setup_samples)

    signal.signal(signal.SIGALRM, _on_alarm)
    # Freeze what set-up made (sympy and the package included), as a
    # long-running server would after start-up: full collections during
    # requests then scan only what requests keep alive, instead of
    # charging a random request for scanning the imports.
    gc.collect()
    gc.freeze()
    tracer = Tracer(sl) if args.trace else None
    passes = closed_loop(sl, wl, wl.rounds(), args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_all(sl, wl, [o for outcomes in passes.values() for o in outcomes])
    rejected = [o for ps in passes.values() for o in ps if o.reject]
    unexpected = [o for ps in passes.values() for o in ps if (o.fail or "").startswith("unexpected")]
    for o in rejected:
        print(f"rejected {o.req.kind} {o.req.key}: {o.reject}", file=sys.stderr)

    results = {"python": sys.version, "workload": args.workload, "seed": args.seed}
    print(f"# python {sys.version.split()[0]}  setup samples {[round(s, 4) for s in setup_samples]}")
    for label, outcomes in passes.items():
        metrics = end_to_end(outcomes, setup_s, peak_rss_mb)
        info = describe(wl, outcomes)
        print(row(args.workload, label, metrics, info))
        print(f"{args.workload} [{label}] mix {json.dumps(info['share'])} failures {json.dumps(info['failures'])}")
        log = [[o.round, o.req.kind, o.req.key, o.latency, o.fail or o.reject] for o in outcomes]
        results[label] = {"metrics": metrics, **info, "requests": log}
    if tracer is not None:
        busy = {k: sum(o.latency for o in v) for k, v in passes.items()}
        metrics = per_layer(tracer.spans, busy["untraced"], busy["traced"])
        results["per_layer"] = metrics
        tracer.dump(str(out / "spans.jsonl"))
    else:
        metrics = results["untraced"]["metrics"]
    with open(out / "result.json", "w") as fh:
        json.dump(results, fh, indent=1)

    correct = not rejected and not unexpected
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(len(v) for v in passes.values()),
                "failed": sum(failed(v) for v in passes.values()),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
