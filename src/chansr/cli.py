"""Command-line front end: dataset generation, training stages, evaluation.

Subcommands: gen, train, fisher, train-cl, train-multitask, eval,
report-forgetting. Every command takes --config, --seed and --out; every
command but gen, which runs no autodiff op, takes --precision {f32,f64}; only
gen takes --force. train-multitask is another name for train, and train-cl is
train that requires --checkpoint and --fisher; one body, `cmd_train`, serves
all three. A repeated --data means the union of the sets, in flag order, on
every command that takes it.

`main` alone maps a failure to an exit code: 0 success, 1 usage error (bad
flags or settings, `UsageError`), 2 data error (any `OSError` or `ValueError`
a command raises: a missing, corrupt or empty input), 3 numerical failure
(`FloatingPointError`: a non-finite training loss, Fisher estimate or NMSE).
Commands call the library directly; `_load` only adds the file's path to the
message of a load error. A --data set with no samples, or whose grid or pilot
sizes differ from the run's settings, is such an error. On glibc, `main`
first sets the heap thresholds once per process (`_keep_heap`).

Each command resolves its settings once (`config.load_config`): defaults,
then the --config file, then the flags whose argparse dest is a RunConfig
field. Every run directory receives that resolved config (config.ini), which
reruns the run when passed back through --config, and a provenance file
(seed, precision, git describe, argv, numpy version, BLAS name and version,
the *_NUM_THREADS environment variables, os.cpu_count()). A rerun with the
same config and seed reproduces the outputs bit-for-bit on the same
numpy/BLAS build at the same BLAS thread count. Output files carry no
timestamps; only default directory names do.
"""

import argparse
import ctypes
import datetime
import functools
import os
import platform
import subprocess
import sys
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from .config import RunConfig, load_config, parse_floats
from .dataset import (DOMAIN_TEST, DOMAIN_TRAIN, DOMAIN_VAL, concat_datasets, generate_dataset,
                      load_dataset, save_dataset)
from .evaluate import forgetting_report, ls_bilinear_estimator, model_estimator, sweep, write_report_csv
from .fio import atomic_write_text
from .model import init_params, init_rng, load_params, save_params
from .training import estimate_fisher, load_fisher, save_fisher, train_task, write_loss_csv

_DOMAINS = {"train": DOMAIN_TRAIN, "val": DOMAIN_VAL, "test": DOMAIN_TEST}


# glibc's mallopt parameter numbers (malloc.h) and the values set for them. Every
# benchmark workload's heap stays below 160 MB, so a trim threshold of 256 MiB never
# trims it; 1 GiB gave the same peak RSS and faults, and the lower value bounds what
# a larger run holds back. The largest array a default run frees is about 30 MB
# (an LS estimate of 512 grids). A 32 MiB mmap threshold gave the same train and
# eval peak but leaves that array no headroom; 64 MiB keeps arrays twice as large
# in the heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 256 << 20, 64 << 20


class UsageError(Exception):
    pass


@functools.cache
def _keep_heap() -> bool:
    """Keep freed memory in glibc's heap for reuse; True when both settings were accepted.

    A training step frees its autodiff graph, about 30 MB, and the next step
    allocates it again. With glibc's default thresholds the free trims the top
    of the heap or unmaps the large blocks, and the next step faults every
    page back in. Which blocks get unmapped also follows glibc's dynamic mmap
    threshold, so peak memory depended on allocation history. The settings
    decide where memory comes from, never a computed value. Set once per
    process, and only on glibc: elsewhere this returns False without loading
    the C library.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    accepted = [mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES), mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)]
    return accepted == [1, 1]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_global_flags(p: argparse.ArgumentParser, autodiff: bool = True) -> None:
    p.add_argument("--config", help="INI config file; flags override file values")
    p.add_argument("--seed", type=int, help="global seed override")
    p.add_argument("--out", help="output file or run directory (default: timestamped under runs/)")
    if autodiff:
        p.add_argument("--precision", choices=("f32", "f64"), help="tensor precision (f64: verification mode)")


def build_parser() -> _Parser:
    root = _Parser(prog="chansr", description="Pilot-aided channel estimation lab")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a CHDS dataset file")
    _add_global_flags(p, autodiff=False)
    p.add_argument("--force", action="store_true", help="overwrite an existing dataset file")
    p.add_argument("--profile", required=True, help="tdl-a, tdl-d, or a tap-table path")
    p.add_argument("--snr", dest="train_snr_db", type=float,
                   help="pilot SNR in dB (inf for noiseless; default: [train] train_snr_db)")
    p.add_argument("--n", required=True, type=int, help="sample count")
    p.add_argument("--split", choices=sorted(_DOMAINS), default="train", help="seed domain")

    p = sub.add_parser("train", aliases=["train-multitask"],
                       help="train from random init on the shuffled union of datasets")
    _add_global_flags(p)
    p.add_argument("--data", required=True, action="append", help="CHDS dataset; repeat for a union")
    p.set_defaults(checkpoint=None, fisher=None)
    _add_train_overrides(p)

    p = sub.add_parser("fisher", help="estimate the Fisher diagonal at a checkpoint")
    _add_global_flags(p)
    p.add_argument("--data", required=True, action="append", help="CHDS dataset of the trained task; repeat for a union")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint (.dasr)")
    p.add_argument("--task-label", default="", help="label stored in the Fisher file")
    p.add_argument("--batch-size", type=int, help="batch size override")

    p = sub.add_parser("train-cl", help="sequential training with the anchor penalty")
    _add_global_flags(p)
    p.add_argument("--data", required=True, action="append", help="CHDS dataset of the new task; repeat for a union")
    p.add_argument("--checkpoint", required=True, help="checkpoint to continue from")
    p.add_argument("--fisher", required=True, help="Fisher file from the previous task")
    p.add_argument("--lambda", dest="lam", type=float, help="EWC importance override")
    _add_train_overrides(p)

    p = sub.add_parser("eval", help="NMSE sweep over SNR for one scheme")
    _add_global_flags(p)
    p.add_argument("--scheme", required=True, choices=("ls", "model", "model-noattn"))
    p.add_argument("--checkpoint", help="checkpoint for model schemes")
    p.add_argument("--profile", required=True, nargs="+", action="extend",
                   help="profile name(s); two or more give a mixed test set")
    p.add_argument("--mc", type=int, help="total trial count override")
    p.add_argument("--snr-list", help="comma-separated SNR grid override")

    p = sub.add_parser("report-forgetting", help="NMSE matrix across the four scheme checkpoints")
    _add_global_flags(p)
    p.add_argument("--post1", required=True, help="post-task-I checkpoint")
    p.add_argument("--naive", required=True, help="naive sequential checkpoint")
    p.add_argument("--cl", required=True, help="anchor-penalty checkpoint")
    p.add_argument("--multitask", required=True, help="multi-task checkpoint")
    p.add_argument("--mc", type=int, help="per-profile trial count override")

    return root


def _add_train_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, help="epoch count override")
    p.add_argument("--batch-size", type=int, help="batch size override")
    p.add_argument("--lr", type=float, help="learning rate override")


def _setup(args) -> RunConfig:
    # a flag sets the RunConfig field its argparse dest names
    over = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if over["snr_list"] is not None:
        try:
            over["snr_list"] = parse_floats(over["snr_list"]) or None  # an empty list keeps the configured one
        except ValueError as e:
            raise UsageError(f"bad --snr-list: {e}") from e
    if args.command == "eval" and args.mc is not None:
        # eval's --mc counts trials over all profiles; the setting counts them per profile
        n = len(args.profile)
        if args.mc < 1 or args.mc % n:
            raise UsageError(f"--mc {args.mc} must be a positive multiple of the profile count {n}")
        over["mc"] = args.mc // n
    try:
        cfg = load_config(args.config, **over)
    except ValueError as e:
        raise UsageError(str(e)) from e
    ad.set_default_dtype(cfg.precision)
    return cfg


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _run_dir(args, prefix: str) -> str:
    if args.out:
        path = args.out
    else:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%d-%H%M%S")
        path = os.path.join("runs", f"{prefix}-{stamp}")
    os.makedirs(path, exist_ok=True)
    return path


def _blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict form of its build config
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".rstrip()


def _write_provenance(run_dir: str, cfg: RunConfig, argv) -> None:
    atomic_write_text(os.path.join(run_dir, "config.ini"), cfg.echo())
    threads = " ".join(f"{k}={v}" for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS"))
    lines = [
        f"seed = {cfg.seed}",
        f"precision = {cfg.precision}",
        f"git = {_git_describe()}",
        f"argv = {' '.join(argv)}",
        f"numpy = {np.__version__}",
        f"blas = {_blas_build()}",
        f"thread_env = {threads or '(none set)'}",
        f"cpu_count = {os.cpu_count()}",
    ]
    atomic_write_text(os.path.join(run_dir, "provenance.txt"), "\n".join(lines) + "\n")


def _load(load, path: str):
    """load(path), with the path in the message of any error it raises."""
    try:
        return load(path)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot load {path}: {e}") from e


def _checked_dataset(cfg: RunConfig, path: str):
    # refused here, where the path is known, so that no task of a union goes missing
    # unremarked; the file records pilot counts, not positions, so only sizes are compared
    ds = load_dataset(path)
    if len(ds) == 0:
        raise ValueError("empty dataset")
    pattern = cfg.pattern()
    sizes = (ds.h_ls.shape[1:], ds.h_true.shape[1:])
    want = ((pattern.n_fp, pattern.n_tp), (cfg.n_f, cfg.n_t))
    if sizes != want:
        raise ValueError(f"(pilot, full) grid sizes {sizes} differ from the run's settings {want}")
    return ds


def _load_data(args, cfg: RunConfig):
    """The union of the --data sets, in flag order; a single set as loaded, without a copy."""
    parts = [_load(functools.partial(_checked_dataset, cfg), path) for path in args.data]
    return parts[0] if len(parts) == 1 else concat_datasets(parts)


def cmd_gen(args, cfg: RunConfig, argv) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    snr = cfg.train_snr_db
    out = args.out or f"{os.path.basename(args.profile)}_snr{snr:g}_{args.split}.chds"
    if os.path.exists(out) and not args.force:
        raise UsageError(f"{out} exists; pass --force to overwrite")
    profile = cfg.profile(args.profile)
    ds = generate_dataset(profile, cfg.ofdm(), cfg.pattern(), snr, args.n, cfg.seed, _DOMAINS[args.split])
    save_dataset(ds, out)
    print(f"wrote {out}: {args.n} samples, profile {profile.name}, snr {snr:g} dB, split {args.split}")
    return 0


def cmd_train(args, cfg: RunConfig, argv) -> int:
    """train, train-multitask and train-cl: one training on the union of the --data sets,
    from --checkpoint or a fresh init, under the anchor penalty when --fisher is given."""
    if args.fisher is not None and not os.path.exists(args.fisher):
        raise ValueError(f"Fisher file not found: {args.fisher}; run the 'fisher' stage on the "
                         f"previous task's data and checkpoint first")
    ds = _load_data(args, cfg)
    params = init_params(init_rng(cfg.seed)) if args.checkpoint is None else _load(load_params, args.checkpoint)
    fd = None if args.fisher is None else _load(load_fisher, args.fisher)
    trace = train_task(params, ds, cfg, fd)
    # made only once training has succeeded, so a failed run leaves no directory behind
    run_dir = _run_dir(args, args.command)
    save_params(params, os.path.join(run_dir, "checkpoint.dasr"))
    write_loss_csv(os.path.join(run_dir, "loss.csv"), trace)
    _write_provenance(run_dir, cfg, argv)
    penalty = "" if fd is None else f" under the anchor penalty (lambda {cfg.lam:g})"
    print(f"trained {cfg.epochs} epochs on {len(ds)} samples{penalty}; final loss {trace[-1]['loss']:.6e}; "
          f"run dir {run_dir}")
    return 0


def cmd_fisher(args, cfg: RunConfig, argv) -> int:
    ds = _load_data(args, cfg)
    params = _load(load_params, args.checkpoint)
    fd = estimate_fisher(params, ds, cfg, task=args.task_label)
    run_dir = _run_dir(args, "fisher")
    save_fisher(fd, os.path.join(run_dir, "fisher.fish"))
    _write_provenance(run_dir, cfg, argv)
    print(f"estimated Fisher diagonal over {len(ds)} samples; run dir {run_dir}")
    return 0


def _estimator_for(args, cfg: RunConfig):
    if args.scheme == "ls":
        return ls_bilinear_estimator(cfg.pattern(), cfg.ofdm())
    if not args.checkpoint:
        raise UsageError(f"scheme {args.scheme} needs --checkpoint")
    params = _load(load_params, args.checkpoint)
    return model_estimator(params, cfg.ofdm(), bypass_attention=args.scheme == "model-noattn")


def cmd_eval(args, cfg: RunConfig, argv) -> int:
    estimator = _estimator_for(args, cfg)
    profiles = [cfg.profile(p) for p in args.profile]
    report = sweep(estimator, args.scheme, profiles, cfg.snr_list, cfg.mc * len(profiles), cfg.seed,
                   cfg.ofdm(), cfg.pattern())
    run_dir = _run_dir(args, "eval")
    write_report_csv(os.path.join(run_dir, "report.csv"), list(report.rows()))
    _write_provenance(run_dir, cfg, argv)
    print(f"evaluated {args.scheme} at {len(cfg.snr_list)} SNR points (M_c {report.mc}); run dir {run_dir}")
    return 0


def cmd_report_forgetting(args, cfg: RunConfig, argv) -> int:
    schemes = {
        "post_task1": model_estimator(_load(load_params, args.post1), cfg.ofdm()),
        "naive_seq": model_estimator(_load(load_params, args.naive), cfg.ofdm()),
        "cl": model_estimator(_load(load_params, args.cl), cfg.ofdm()),
        "multitask": model_estimator(_load(load_params, args.multitask), cfg.ofdm()),
    }
    rows = forgetting_report(schemes, cfg.profile(cfg.profile_1), cfg.profile(cfg.profile_2),
                             cfg.snr_list, cfg.mc, cfg.seed, cfg.ofdm(), cfg.pattern())
    run_dir = _run_dir(args, "forgetting")
    write_report_csv(os.path.join(run_dir, "forgetting.csv"), rows)
    _write_provenance(run_dir, cfg, argv)
    print(f"forgetting report over {len(rows)} rows; run dir {run_dir}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "fisher": cmd_fisher,
    "train-cl": cmd_train,
    "train-multitask": cmd_train,
    "eval": cmd_eval,
    "report-forgetting": cmd_report_forgetting,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _keep_heap()
    try:
        args = build_parser().parse_args(argv)
        cfg = _setup(args)
        return _COMMANDS[args.command](args, cfg, argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
