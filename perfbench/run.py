"""Benchmark driver: one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/``.  Set-up (imports, config parsing, base domains) is timed from the
process start.  Then whole passes over the workload's cases run, as many
as fit in ``--seconds`` at the workload's nominal pass time and at least
two; ``wall_s`` is the median pass time.
Every pass is checked.  With ``--trace 1`` one more, traced pass follows and
the per-layer metrics are printed instead of the end-to-end ones.  The last
line of standard output is one JSON object with the result.
"""

import os
import time

_T0 = time.perf_counter()


def _process_age():
    """Seconds since this process started, from /proc (0 where unknown)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE0 = _process_age()

# One thread for the numerical libraries: pass times then vary with the
# host's speed only, not with scheduling.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _setup_seconds():
    return _AGE0 + time.perf_counter() - _T0


def parse_args(names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def run_pass(studies, probe=True, controls=None):
    """One pass over every case.  Returns (timed seconds, outputs by study
    and level, failed cases).  Only the calls of ``Study.run_case`` are
    timed; sample-point probes and control solutions are computed after
    each case's clock stops."""
    from workloads import perturbed

    elapsed = 0.0
    results = {st.name: {} for st in studies}
    failed = set()
    for st in studies:
        for s in st.segments:
            t0 = time.perf_counter()
            try:
                sol, out = st.run_case(s)
            except Exception:  # a failed solve is counted, the pass goes on
                traceback.print_exc()
                failed.add((st.name, s))
                continue
            finally:
                elapsed += time.perf_counter() - t0
            if probe and st.points:
                out["images"] = st.images(sol, s)
            for kind in (controls or {}).get((st.name, s), ()):
                bad = perturbed(sol, kind)
                ctrl = st.measure(bad)
                if st.points:
                    ctrl["images"] = st.images(bad, s)
                controls[(st.name, s)][kind] = ctrl
            results[st.name][s] = out
            del sol
            gc.collect()
    return elapsed, results, failed


def same_outputs(a, b, rtol=1e-10):
    """Whether two passes agree on the outputs both hold."""
    for name in a:
        for s in set(a[name]) & set(b[name]):
            for key in set(a[name][s]) & set(b[name][s]):
                if not np.allclose(a[name][s][key], b[name][s][key], rtol=rtol, atol=0.0):
                    return False
    return True


def main():
    if not (SRC / "sbiga" / "__init__.py").is_file():
        print("run.py: no package source at %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import sbiga

    if pathlib.Path(sbiga.__file__).resolve().parent != SRC / "sbiga":
        print("run.py: imported sbiga from %s, not %s" % (sbiga.__file__, SRC), file=sys.stderr)
        return 2

    args = parse_args(sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    studies = [workloads.Study(*a) for a in workload.studies]
    checks = workload.checks
    setup_s = _setup_seconds()

    rng = np.random.default_rng(args.seed)
    for st in studies:
        if st.sample_points:
            st.points = workloads.disk_sample_points(rng, st.sample_points)
    by_name = {st.name: st for st in studies}
    cases_per_pass = sum(len(st.segments) for st in studies)

    # controls: (study, level) -> {perturbation kind: outputs}, first pass only
    controls = {}
    for chk in checks:
        for lvl in chk.levels:
            controls.setdefault((chk.study, lvl), {})[chk.kind] = None

    # The pass count depends on --seconds and the workload only, never on
    # the host's speed, so every run of a workload does the same work.
    n_passes = max(2, int(args.seconds // workload.pass_seconds))
    passes = []  # (seconds, results, failed)
    for k in range(n_passes):
        passes.append(run_pass(studies, controls=None if k else controls))
        print("pass %d: %.4f s" % (k + 1, passes[-1][0]))
    wall_s = statistics.median(p[0] for p in passes)

    correct = True
    failed_total = 0
    reference = passes[0][1]
    for k, (_, results, failed) in enumerate(passes):
        bad = set(failed)
        for chk in checks:
            if any((chk.study, s) in failed for s in by_name[chk.study].segments):
                continue
            for name, ok, detail in chk.func(results[chk.study]):
                if k == 0:
                    print("check %-20s %s  %s" % (name, "PASS" if ok else "FAIL", detail))
                if not ok:
                    correct = False
                    bad.update((chk.study, s) for s in by_name[chk.study].segments)
        if k and not same_outputs(results, reference):
            print("check determinism FAIL  pass %d differs from pass 1" % (k + 1))
            correct = False
        failed_total += len(bad)

    for chk in checks:
        ctrl = [controls[(chk.study, lvl)][chk.kind] for lvl in chk.levels]
        if any(c is None for c in ctrl):
            continue  # the case failed; counted above
        res = dict(reference[chk.study])
        res.update(zip(chk.levels, ctrl))
        lines = chk.func(res)
        caught = not any(ok for _, ok, _ in lines)
        print("control %-15s %-5s s=%-8s %s %s" % (
            chk.study, chk.kind, chk.levels, "rejected" if caught else "NOT REJECTED",
            "; ".join(d for _, _, d in lines)))
        correct &= caught

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # The traced pass skips the untimed probes so that every span it
        # records lies inside a case's timed interval.
        from tracer import BUILD_SPANS, TOP_LEVEL_SPANS, Tracer

        with Tracer() as tr:
            traced_s, traced_res, traced_failed = run_pass(studies, probe=False)
        print("traced pass: %.4f s" % traced_s)
        metrics = tr.metrics()
        stage_sum = sum(metrics[n][0] for n in TOP_LEVEL_SPANS)
        build_s = metrics["coupling.build_s"][0]
        build_sum = sum(metrics[n][0] for n in BUILD_SPANS)
        ok_sum = stage_sum <= traced_s and build_sum <= build_s
        ok_n6 = tr.n6_per_case == tr.a_rows_per_case
        ok_same = not traced_failed and same_outputs(traced_res, reference)
        print("check stage-sum           %s  stages %.4f <= pass %.4f s; build parts %.4f <= %.4f s"
              % ("PASS" if ok_sum else "FAIL", stage_sum, traced_s, build_sum, build_s))
        print("check n6-equals-A-rows    %s  n6 %s, rows(A) %s"
              % ("PASS" if ok_n6 else "FAIL", tr.n6_per_case, tr.a_rows_per_case))
        print("check traced-outputs      %s  traced pass equals untraced pass 1" % ("PASS" if ok_same else "FAIL"))
        correct &= ok_sum and ok_n6 and ok_same
        failed_total += len(traced_failed)
        metrics["trace.overhead_s"] = (traced_s - wall_s, "s")

    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": cases_per_pass * (len(passes) + args.trace),
        "failed": failed_total,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
