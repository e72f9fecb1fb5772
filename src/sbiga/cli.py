"""Command-line front: run, verify, export.

``run`` solves the configured study and writes its CSV; ``--segments``
replaces the config's ``study.segments`` for one run and is checked like it.
Exit codes: 0 success, 2 config/schema errors, 1 any other failure.
A run repeats bitwise, also across BLAS thread counts (1 and 2 threads
give the same CSV on the bundled configs): the null-space basis comes from
one small QR per interface, combined by sparse products.
Gauss orders and the null-space cutoff are config keys
(``discretization.quad_order``, ``discretization.tol_null``).
"""

import argparse
import sys

from .errors import SbigaError
from .harness import CaseConfig, convergence_table, run_case, segment_list, verify_case, export_case


def make_parser():
    ap = argparse.ArgumentParser(prog="sbiga")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, hlp in (
        ("run", "run the configured study and write CSV"),
        ("verify", "geometry/space verification checks"),
        ("export", "solve and export fields (legacy VTK)"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("config", help="path to a JSON case config")
        if name == "run":
            p.add_argument("--csv", default=None)
            p.add_argument("--segments", type=int, nargs="+",
                           help="refinement levels in place of study.segments")
        if name == "verify":
            p.add_argument(
                "--checks", default="all",
                help="comma list of asg1,c1-jump,reproduction,all",
            )
        if name == "export":
            p.add_argument("--out", required=True)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = CaseConfig.from_file(args.config)
        if args.command == "run":
            if args.segments:
                cfg.segments = segment_list(args.segments, "--segments")
            rows, _ = run_case(
                cfg,
                csv_path=args.csv,
                progress=lambda row: print(
                    "h=%-10g N6=%-8d center=%r" % (row.h, row.N6, row.center_deflection)
                ),
            )
            order = lambda v: "-" if v is None else "%.2f" % v
            for e in convergence_table(rows):
                if e["h2_semi"] is not None:
                    print("h=%-10g H2=%-12.5g (order %s)  L2=%-12.5g (order %s)" % (
                        e["h"], e["h2_semi"], order(e["h2_semi_order"]), e["l2"], order(e["l2_order"])))
            return 0
        if args.command == "verify":
            ok, lines = verify_case(cfg, args.checks.split(","))
            for kind, what, val, tol, good in lines:
                print("%-12s %-40s %.3e (tol %.0e) %s" % (kind, what, val, tol, "ok" if good else "FAIL"))
            return 0 if ok else 1
        if args.command == "export":
            for path in export_case(cfg, args.out):
                print(path)
            return 0
    except SbigaError as exc:
        if exc.tag == "config-error":
            print("config error: %s" % exc, file=sys.stderr)
            return 2
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
