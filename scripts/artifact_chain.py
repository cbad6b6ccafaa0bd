"""Run the chansr command chain once and print the sha256 of every artifact it writes.

The chain, through the `chansr` command line at default settings and seeds:
gen tdl-a (--n-a samples), tdl-d (--n-d) and a 7-sample tdl-a test set at
5 dB -> train (tdl-a, 2 epochs) -> fisher -> train-cl (tdl-d, 2 epochs) at
the default lambda and at lambda 0 -> train-multitask (both, 2 epochs) and
train on the same two --data sets, which must give the same bytes ->
eval ls on tdl-a (mc 64) and on both profiles (mc 128), eval model on tdl-a
(mc 64) and on both profiles (mc 154: 77 per profile, one partial
evaluation chunk each), eval model-noattn on tdl-a (mc 64) ->
report-forgetting (post-task-I, naive = lambda 0, cl, multi-task; mc 77 per
profile).

It prints one `sha256  relpath` line per .chds, .dasr, .fish, loss.csv,
report.csv, forgetting.csv and config.ini under OUT_DIR, sorted by path.
provenance.txt is left out: it holds the argv and the git revision. Two
source trees keep every artifact's bytes when the outputs of one run against
each are equal:

    PYTHONPATH=tree_a/src python3 scripts/artifact_chain.py out_a > a.txt
    PYTHONPATH=tree_b/src python3 scripts/artifact_chain.py out_b > b.txt
    diff a.txt b.txt

BLAS runs one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.
With --n-d 512 the train, fisher and train-cl (default lambda) artifacts are
those of the default-seed chain.
"""

import argparse
import hashlib
import os
import sys

KINDS = (".chds", ".dasr", ".fish", "loss.csv", "report.csv", "forgetting.csv", "config.ini")


def run_chain(out: str, n_a: int, n_d: int) -> None:
    from chansr.cli import main as chansr

    def run(*argv, dest):
        rc = chansr([*argv, "--out", os.path.join(out, dest)])
        if rc != 0:
            raise SystemExit(f"chansr {' '.join(argv)} exited {rc}")

    def ckpt(name):
        return os.path.join(out, name, "checkpoint.dasr")

    a, d = os.path.join(out, "a.chds"), os.path.join(out, "d.chds")
    train = ("--epochs", "2")
    run("gen", "--profile", "tdl-a", "--n", str(n_a), dest="a.chds")
    run("gen", "--profile", "tdl-d", "--n", str(n_d), dest="d.chds")
    run("gen", "--profile", "tdl-a", "--n", "7", "--snr", "5", "--split", "test", dest="small.chds")
    run("train", "--data", a, *train, dest="train")
    run("fisher", "--data", a, "--checkpoint", ckpt("train"), dest="fisher")
    fisher = os.path.join(out, "fisher", "fisher.fish")
    run("train-cl", "--data", d, "--checkpoint", ckpt("train"), "--fisher", fisher, *train,
        dest="train-cl")
    run("train-cl", "--data", d, "--checkpoint", ckpt("train"), "--fisher", fisher, "--lambda", "0",
        *train, dest="train-cl-lam0")
    run("train-multitask", "--data", a, "--data", d, *train, dest="multitask")
    run("train", "--data", a, "--data", d, *train, dest="train-union")
    run("eval", "--scheme", "ls", "--profile", "tdl-a", "--mc", "64", dest="eval-ls-a")
    run("eval", "--scheme", "ls", "--profile", "tdl-a", "tdl-d", "--mc", "128", dest="eval-ls-ad")
    run("eval", "--scheme", "model", "--checkpoint", ckpt("train"), "--profile", "tdl-a", "--mc", "64",
        dest="eval-model-a")
    run("eval", "--scheme", "model", "--checkpoint", ckpt("train"), "--profile", "tdl-a", "tdl-d", "--mc", "154",
        dest="eval-model-ad")
    run("eval", "--scheme", "model-noattn", "--checkpoint", ckpt("train"), "--profile", "tdl-a", "--mc", "64",
        dest="eval-noattn-a")
    run("report-forgetting", "--post1", ckpt("train"), "--naive", ckpt("train-cl-lam0"), "--cl", ckpt("train-cl"),
        "--multitask", ckpt("multitask"), "--mc", "77", dest="forgetting")


def digests(out: str):
    """(sha256, path relative to out) of every artifact under out, sorted by path."""
    found = []
    for root, _, files in os.walk(out):
        for name in files:
            if name.endswith(KINDS):
                path = os.path.join(root, name)
                with open(path, "rb") as f:
                    found.append((hashlib.sha256(f.read()).hexdigest(), os.path.relpath(path, out)))
    return sorted(found, key=lambda d: d[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", metavar="OUT_DIR", help="an empty or new directory for the chain's outputs")
    ap.add_argument("--n-a", type=int, default=512, help="tdl-a training samples")
    ap.add_argument("--n-d", type=int, default=300, help="tdl-d training samples")
    args = ap.parse_args(argv)
    if os.path.exists(args.out) and os.listdir(args.out):
        ap.error(f"{args.out} is not empty")
    # the commands' own messages would land between the digest lines
    stdout, sys.stdout = sys.stdout, sys.stderr
    try:
        run_chain(args.out, args.n_a, args.n_d)
    finally:
        sys.stdout = stdout
    for digest, rel in digests(args.out):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(_var, "1")  # read by BLAS when numpy loads, which run_chain imports
    sys.exit(main())
