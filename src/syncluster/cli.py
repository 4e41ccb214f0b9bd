"""Command-line entry points.

Subcommands: sweep (run a configured study; a mode = runtime config runs
the runtime bench), generate (write a random instance to disk), solve (run
the pipeline on a serialized instance).

Exit codes: 0 on success, 1 on any library error (bad input, a parse
failure, no convergence), 2 on an I/O error. Everything chatty goes to
stdout as key=value lines so runs are easy to grep; errors go to stderr.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .eigensolver import SolverConfig
from .errors import ParseError, SynclusterError, ValidationError
from .harness import (
    REFINE_CHOICES,
    load_config,
    load_model_config,
    run_pipeline,
    run_runtime_bench,
    run_sweep,
)
from .metrics import exact_recovery, snr_ratio, sync_error
from .model import generate_instance, load_ground_truth, load_matrix, save_ground_truth, save_labeling, save_matrix


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems as ParseError.

    Default argparse exits with status 2 on bad flags, which this tool
    reserves for I/O failures; routing through ParseError lands them on
    exit status 1 with the other validation problems.
    """

    def error(self, message):
        raise ParseError(message)


def _add_common(sub):
    sub.add_argument("--config", required=True, metavar="PATH",
                     help="key=value configuration file")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")
    sub.add_argument("--out", required=True, metavar="PATH", help="output path")


def build_parser():
    parser = _Parser(prog="syncluster", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sweep = commands.add_parser("sweep", help="run the study a config describes")
    _add_common(sweep)
    sweep.add_argument("--trials", type=int, default=None, help="trials per cell override")
    sweep.add_argument("--refine", choices=REFINE_CHOICES, default=None,
                       help="refinement stage override")
    sweep.add_argument("--workers", type=int, default=None, help="parallel worker override")
    sweep.set_defaults(handler=_cmd_sweep)

    generate = commands.add_parser("generate", help="write a random instance to disk")
    _add_common(generate)
    generate.set_defaults(handler=_cmd_generate)

    solve = commands.add_parser("solve", help="run the pipeline on a stored instance")
    solve.add_argument("matrix", metavar="MATRIX", help="matrix archive path")
    solve.add_argument("--truth", metavar="PATH", default=None,
                       help="ground-truth archive for scoring")
    solve.add_argument("--refine", choices=REFINE_CHOICES, default="none")
    solve.add_argument("--out", metavar="PATH", default=None,
                       help="write estimated labels and transforms here")
    solve.add_argument("--seed", type=int, default=0, help="eigensolver seed")
    solve.set_defaults(handler=_cmd_solve)
    return parser


def _print_cell_means(summaries):
    for values in summaries:
        bits = [f"n={values['n']}", f"K={values['K']}", f"d={values['d']}"]
        if values["alpha"] is not None:
            bits.append(f"alpha={values['alpha']:.4g}")
        if values["beta"] is not None:
            bits.append(f"beta={values['beta']:.4g}")
        bits.append(f"sigma={values['sigma']:.4g}")
        bits.append(f"eta={values['eta']:.4g}")
        bits.append(f"success={values['exact']:.3f}")
        if values["sync_error_log"] is not None:
            bits.append(f"sync_error_log={values['sync_error_log']:.3f}")
        if values["snr_min"] is not None:
            bits.append(f"snr_min={values['snr_min']:.4g}")
        print(" ".join(bits))


def _cmd_sweep(args):
    overrides = {name: getattr(args, name) for name in ("seed", "trials", "refine", "workers")}
    spec = load_config(args.config, overrides)
    if spec.mode == "runtime":
        rows, slopes = run_runtime_bench(spec, args.out)
        by_n = {}
        for n, phase, ms in rows:
            by_n.setdefault(n, {})[phase] = ms
        for n, phases in by_n.items():
            print(f"n={n} eigen_ms={phases['eigen']:.3f} excl_eigen_ms={phases['excl_eigen']:.3f} "
                  f"total_ms={phases['total']:.3f}")
        print(f"slope_excl_eigen={slopes['excl_eigen']:.4f}")
        print(f"slope_total={slopes['total']:.4f}")
    else:
        _, summaries = run_sweep(spec, args.out)
        _print_cell_means(summaries)
    print(f"wrote={args.out}")
    return 0


def _cmd_generate(args):
    params = load_model_config(args.config, {"seed": args.seed})
    gt, a = generate_instance(params)
    save_matrix(args.out, a, params.K)
    truth_path = f"{args.out}.truth"
    save_ground_truth(truth_path, gt)
    print(f"n={params.n} K={params.K} d={params.d} pairs={a.pair_count}")
    print(f"wrote={args.out}")
    print(f"wrote={truth_path}")
    return 0


def _cmd_solve(args):
    a, big_k = load_matrix(args.matrix)
    cfg = SolverConfig(seed=args.seed)
    factors, result, timings, flags = run_pipeline(a, big_k, a.d, cfg, args.refine)
    counts = np.bincount(result.labels, minlength=big_k + 1)[1:]
    print(f"n={a.n} K={big_k} d={a.d}")
    print(f"cluster_sizes={';'.join(str(int(c)) for c in counts)}")
    print(f"flags={';'.join(flags)}")
    for phase, ms in timings.items():
        print(f"{phase}={ms:.3f}")
    if args.truth is not None:
        gt = load_ground_truth(args.truth)
        if (gt.n, gt.K, gt.d) != (a.n, big_k, a.d):
            raise ValidationError("ground truth shape does not match the matrix")
        print(f"exact={int(exact_recovery(result.labels, gt.labels, big_k))}")
        print(f"sync_error_log={sync_error(result.transforms, gt)!r}")
        if big_k == 2:
            print(f"snr_min={snr_ratio(factors, gt.labels)!r}")
    if args.out is not None:
        save_labeling(args.out, big_k, result.labels, result.transforms)
        print(f"wrote={args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except SynclusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
