"""Grid search for the anchor-penalty weight (lambda) on the two-task protocol.

Trains the network on TDL-A, estimates the Fisher diagonal, then retrains on
TDL-D once per candidate lambda, the penalty's one weight. Each candidate is
scored on the 50/50 mixed validation set at the training SNR; the script
prints the full table plus the naive (lambda 0) and multi-task references and
reports the winner. The winner is pinned as DEFAULT_EWC_LAMBDA in
chansr.training. Every other setting is a `RunConfig` default.

Run from the repository root:  python3 scripts/grid_search_lambda.py
"""

import argparse
import time
from dataclasses import replace

from chansr.config import RunConfig
from chansr.dataset import DOMAIN_TRAIN, DOMAIN_VAL, ChannelDataset, concat_datasets, generate_dataset
from chansr.evaluate import model_estimator, nmse, to_db
from chansr.model import init_params, init_rng
from chansr.training import estimate_fisher, train_task


def _val_nmse(params, cfg, datasets):
    est = model_estimator(params, cfg)
    return {name: to_db(nmse(ds.h_true, est(ds.h_ls))) for name, ds in datasets.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--train-n", type=int, default=4000)
    ap.add_argument("--val-n", type=int, default=500)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--snr", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", default="1,10,100,1000,10000")
    args = ap.parse_args(argv)

    tc = RunConfig(epochs=args.epochs, seed=args.seed)  # batch 128, Adam at 1e-3
    cfg, pat = tc.ofdm(), tc.pattern()
    prof_a, prof_d = tc.profile(tc.profile_1), tc.profile(tc.profile_2)

    t0 = time.time()
    train_a = generate_dataset(prof_a, cfg, pat, args.snr, args.train_n, args.seed, DOMAIN_TRAIN)
    train_d = generate_dataset(prof_d, cfg, pat, args.snr, args.train_n, args.seed, DOMAIN_TRAIN)
    half = args.val_n // 2
    val = {
        "task1": generate_dataset(prof_a, cfg, pat, args.snr, args.val_n, args.seed, DOMAIN_VAL),
        "task2": generate_dataset(prof_d, cfg, pat, args.snr, args.val_n, args.seed, DOMAIN_VAL),
    }
    val["mixed"] = concat_datasets([ChannelDataset(v.h_ls[:half], v.h_true[:half])
                                    for v in (val["task1"], val["task2"])])
    print(f"datasets ready ({time.time() - t0:.0f}s)")

    base = init_params(init_rng(args.seed))
    post1 = base.copy()
    train_task(post1, train_a, tc)
    fisher = estimate_fisher(post1, train_a, tc, task="tdl-a")
    ref1 = _val_nmse(post1, cfg, val)
    print(f"post-task-I   task1 {ref1['task1']:7.2f}  task2 {ref1['task2']:7.2f}  "
          f"mixed {ref1['mixed']:7.2f} dB  ({time.time() - t0:.0f}s)")

    rows = []
    for lam in [0.0] + [float(v) for v in args.grid.split(",")]:
        p = post1.copy()
        train_task(p, train_d, replace(tc, lam=lam), fisher)
        r = _val_nmse(p, cfg, val)
        rows.append((lam, r))
        print(f"lambda {lam:>8g}  task1 {r['task1']:7.2f}  task2 {r['task2']:7.2f}  "
              f"mixed {r['mixed']:7.2f} dB  ({time.time() - t0:.0f}s)")

    multi = base.copy()
    train_task(multi, concat_datasets([train_a, train_d]), tc)
    rm = _val_nmse(multi, cfg, val)
    print(f"multi-task    task1 {rm['task1']:7.2f}  task2 {rm['task2']:7.2f}  "
          f"mixed {rm['mixed']:7.2f} dB  ({time.time() - t0:.0f}s)")

    naive = rows[0][1]
    best_lam, best = min(rows[1:], key=lambda r: r[1]["mixed"])
    print(f"\nnaive forgetting on task1: {naive['task1'] - ref1['task1']:.2f} dB")
    print(f"winner lambda = {best_lam:g}")
    print(f"  mixed: naive {naive['mixed']:.2f}  cl {best['mixed']:.2f}  "
          f"multitask {rm['mixed']:.2f} dB")
    print(f"  cl separation from naive (mixed): {naive['mixed'] - best['mixed']:.2f} dB")
    print(f"  cl task1 degradation: {best['task1'] - ref1['task1']:.2f} dB")


if __name__ == "__main__":
    main()
