"""The quiverskew benchmark.

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                 # every workload, untraced then traced

One run builds its workload's inputs from the seed, then runs cases one at a
time (a closed loop) for ``--seconds``, checks every output against the
independent checks in ``checks.py``, and prints as its last line of stdout
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Untraced
runs report the end-to-end metrics; traced runs (``--trace 1``) report the
per-layer metrics from spans around each call into quiverskew.  Times are
scaled to a reference speed (see ``Reference``).  Details and reference
figures are in bench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "bench", "results")
NAMES = ("reconstruct", "invariants", "identify", "cli")
E2E_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_p50_ms": "ms",
             "case_tail_ms": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3


def import_program():
    """Import quiverskew from this checkout's src/, and nothing else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import quiverskew
        import quiverskew.cli  # noqa: F401  (a broken cli fails every workload)
    except ImportError as exc:
        sys.exit(f"bench: cannot import quiverskew from {src}: {exc}")
    if not os.path.abspath(quiverskew.__file__).startswith(src + os.sep):
        sys.exit(f"bench: quiverskew came from {quiverskew.__file__}, not {src}")


# The CPU speed of a shared host drifts: the same work took twice as long
# twenty minutes apart on the machine of bench/README.md, and by up to 15%
# from one second to the next.  So every run times a fixed piece of work that
# uses no quiverskew code (building a relabelled skew product and its action
# document with gen.py, the kind of dict and string work quiverskew does)
# every REF_EVERY_S, and reports its times at the speed at which that work
# takes REF_MS: scaled by REF_MS over the run's median reference time.
REF_MS = 1.5
REF_EVERY_S = 0.05


class Reference:
    """Timings of the fixed reference work over one run."""

    def __init__(self):
        import gen
        rng = random.Random(0)
        self._gen = gen
        self._group = gen.symmetric(3)
        self._base = gen.random_base(rng, 8, 16)
        self._kmap = gen.random_cocycle(rng, self._base, self._group)
        self.times = []

    def sample(self):
        t = time.perf_counter()
        rel = self._gen.Relabelled(random.Random(0), self._base, self._kmap, self._group)
        rel.translation_action_doc()
        self.times.append(time.perf_counter() - t)

    def scale(self):
        """Factor from wall time to time at the reference speed."""
        return REF_MS / 1000 / statistics.median(self.times)


class Measured:
    """What ``run_cases`` saw: the wall time of each completed case, the
    failed cases, the time spent in checks, the first check error, and the
    peak resident memory (KiB) up to the first failed case.

    A case stopped by its time limit has grown its memory for as long as the
    CPU let it in that time, so memory is not counted once a case has failed;
    every later completed case repeats an input seen before the failure.
    """

    def __init__(self):
        self.times, self.failures, self.check_s, self.error = [], [], 0.0, None
        self.peak_kib = 0


def run_cases(wl, items, tr, refs, seconds=None):
    """Run cases over ``items`` until ``seconds`` have passed (or one pass),
    timing the reference work into ``refs`` every REF_EVERY_S."""
    from workloads import CaseTimeout, time_limit
    m = Measured()
    start = last_ref = time.perf_counter()
    n = 0
    while True:
        for it in items:
            tr.case = f"{wl.name}:{n}"
            n += 1
            try:
                with time_limit(wl.limit_s):
                    t = time.perf_counter()
                    with tr.span("case"):
                        out = wl.case(tr, it)
                    t = time.perf_counter() - t
            except CaseTimeout:
                m.failures.append((tr.case, f"over the {wl.limit_s} s limit"))
                continue
            except Exception as exc:  # a program fault on a valid input
                m.failures.append((tr.case, f"{type(exc).__name__}: {exc}"))
                continue
            m.times.append(t)
            if not m.failures:
                m.peak_kib = wl.peak_kib()
            c = time.perf_counter()
            try:
                wl.check(it, out)
            except Exception as exc:  # a wrong or malformed output
                m.error = m.error or f"{tr.case}: {type(exc).__name__}: {exc}"
            m.check_s += time.perf_counter() - c
            if tr.enabled:
                wl.traced_extra(tr, it, out)
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.sample()
                last_ref = time.perf_counter()
            if seconds is not None and not wl.whole_rounds \
                    and time.perf_counter() - start >= seconds:
                break
        else:
            if seconds is not None and time.perf_counter() - start < seconds:
                continue
        return m


def end_to_end(wl, m, setup_s, scale=1.0):
    """The end-to-end metrics of a measured run, times multiplied by ``scale``."""
    times = [t * scale for t in m.times]
    cut = statistics.quantiles(times, n=100)[wl.tail_pct - 1] if len(times) > 1 else times[0]
    vals = {"setup_s": setup_s * scale,
            "cases_per_s": len(times) / sum(times),
            "case_p50_ms": statistics.median(times) * 1000,
            "case_tail_ms": cut * 1000,
            "peak_rss_mb": m.peak_kib / 1024}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in vals.items()}


def run_one(args):
    import_program()
    import_s = time.perf_counter() - T0
    import spans
    import workloads

    tr = spans.Tracer() if args.trace else spans.NullTracer()
    refs = Reference()
    cls, pool, _ = workloads.WORKLOADS[args.workload]
    wl = cls(ROOT, args.seed, pool)
    try:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            items = None  # one pool in memory at a time: setup must not set the peak
            gc.collect()
            t = time.perf_counter()
            items = wl.setup(tr)
            gen_s.append(time.perf_counter() - t)
            for _ in range(5):
                refs.sample()
        setup_s = import_s + statistics.median(gen_s)
        gc.collect()
        m = run_cases(wl, items, tr, refs, args.seconds)
        times, failures, error = m.times, m.failures, m.error
        digests = {wl.name: wl.digest_of(items)}
        left_out = getattr(wl, "left_out", 0)
        metrics = end_to_end(wl, m, setup_s, refs.scale()) if times else {}
        wall = end_to_end(wl, m, setup_s) if times else {}
        e2e = dict(metrics)
        if args.trace:
            # Every per-layer metric is reported: a few cases of each other
            # workload are traced too (read each metric from its own workload).
            for name in NAMES:
                if name == wl.name:
                    continue
                ocls, _, sample = workloads.WORKLOADS[name]
                other = ocls(ROOT, args.seed, sample)
                try:
                    kw = {"reproducer": False} if name == "invariants" else {}
                    oitems = other.setup(tr, **kw)
                    digests[name] = other.digest_of(oitems)
                    om = run_cases(other, oitems, tr, Reference())
                    failures += om.failures
                    error = error or om.error
                finally:
                    other.close()
            metrics = tr.layer_metrics({c for c, _ in failures}, refs.scale())
    finally:
        wl.close()

    attempted = len(times) + sum(1 for c, _ in failures if c.startswith(wl.name + ":"))
    result = {"correct": error is None and bool(times), "attempted": attempted,
              "failed": attempted - len(times), "metrics": metrics}
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "cores": os.cpu_count(), "input_digests": digests,
            "end_to_end": e2e, "wall_time": wall, "reference_ms": statistics.median(refs.times) * 1000,
            "reference_samples": len(refs.times), "inputs_left_out": left_out, "check_s": m.check_s, "cases": len(times),
            "tail_percentile": wl.tail_pct, "failures": failures[:20], "error": error}
    log(info, result)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**info, "result": result}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tr.dump(), fh)
    print(json.dumps(result))
    return 0


def log(info, result):
    err = sys.stderr
    print(f"python {info['python']}, {info['cores']} cores; workload {info['workload']}, "
          f"seed {info['seed']}, inputs {info['input_digests']}", file=err)
    print(f"cases {info['cases']} completed, {result['failed']} failed of "
          f"{result['attempted']}; checks took {info['check_s']:.2f} s; "
          f"tail = p{info['tail_percentile']}", file=err)
    for case, why in info["failures"][:3]:
        print(f"failed {case}: {why}", file=err)
    if info["error"]:
        print(f"CHECK FAILED {info['error']}", file=err)
    for k, m in result["metrics"].items():
        print(f"  {k:36s} {m['value']:12.4f} {m['unit']}", file=err)


def run_all(args):
    """Every workload, untraced and then traced, each in its own process."""
    table = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(r.stderr)
            if r.returncode:
                print(f"bench: {name} exited {r.returncode}", file=sys.stderr)
                return r.returncode
            table[(name, trace)] = json.loads(r.stdout.strip().splitlines()[-1])
    for name in NAMES:
        plain = table[(name, 0)]
        with open(os.path.join(RESULTS, f"{name}-seed{args.seed}-trace1.json")) as fh:
            traced = json.load(fh)["end_to_end"]
        print(f"{name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct']}")
        for k, m in plain["metrics"].items():
            over = traced[k]["value"] / m["value"] - 1 if k in traced else float("nan")
            print(f"  {k:14s} {m['value']:12.4f} {m['unit']:5s} traced {over:+7.1%}")
    for name in NAMES:
        print(f"{name} (traced):")
        for k, m in table[(name, 1)]["metrics"].items():
            print(f"  {k:36s} {m['value']:12.4f} {m['unit']}")
    print(json.dumps({n: table[(n, 0)] for n in NAMES}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description="Run the quiverskew benchmark.")
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
