"""Training: one mini-batch Adam loop, Fisher estimation, the EWC anchor penalty.

One loop serves plain training on one task, sequential training on the next
task with the anchor penalty, and the multi-task bound (plain training on the
union of the tasks' datasets). Its settings are the run's `RunConfig`.

The reconstruction loss is the batch mean of per-sample squared Frobenius
error between predicted and true 2-plane grids. Sequential training adds the
quadratic anchor penalty sum_i (lambda/2) * F_i * (theta_i - anchor_i)^2,
scaled by alpha; only the product lambda * alpha matters, and when it is 0
the code path is exactly the plain loop (bit-identical results under a
shared seed).

The Fisher diagonal is the mean over fixed-order batches of the squared
batch-loss gradient. Re-partitioning the dataset (different batch size or
order) changes the estimate; the batch size is the run's `batch_size`.

Fisher files mirror the checkpoint record format with magic "FISH": one
record per parameter holding F, one "anchor.<name>" record per parameter
holding the anchor value, and a zero-length "task.<label>" record.
"""

import csv
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import ChannelDataset, planes_from_complex
from .fio import atomic_write_text
from .model import ModelParams, forward, read_records, write_records
from .optim import Adam, clip_global_norm

if TYPE_CHECKING:  # config imports this module for DEFAULT_EWC_LAMBDA
    from .config import RunConfig

FISH_MAGIC = b"FISH"
_SHUFFLE_TAG = 0x53484C  # distinguishes shuffle streams from sample streams

# pinned by scripts/grid_search_lambda.py (see README): lowest mixed-set
# validation NMSE over the {1, 10, 100, 1000, 10000} grid at alpha = 1
DEFAULT_EWC_LAMBDA = 10000.0


@dataclass
class FisherDiag:
    """Per-parameter importance weights plus the anchor parameter copy."""

    fisher: dict
    anchor: dict
    task: str = ""

    def __post_init__(self):
        if set(self.fisher) != set(self.anchor):
            raise ValueError("fisher and anchor must cover the same parameters")
        for name, f in self.fisher.items():
            if np.any(f < 0):
                raise ValueError(f"{name}: negative Fisher entry")
            if f.shape != self.anchor[name].shape:
                raise ValueError(f"{name}: fisher/anchor shape mismatch")


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_SHUFFLE_TAG, epoch)))


def _batch_slices(n: int, batch_size: int):
    return [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]


def _dataset_planes(ds: ChannelDataset):
    dt = ad.default_dtype()
    return planes_from_complex(ds.h_ls, dtype=dt), planes_from_complex(ds.h_true, dtype=dt)


def ewc_loss(params_now: ModelParams, fisher: FisherDiag, lam: float) -> Tensor:
    """Quadratic anchor penalty sum_i (lam/2) * F_i * (theta_i - anchor_i)^2."""
    names = params_now.names()
    if set(fisher.fisher) != set(names):
        raise ValueError("Fisher parameter set does not match the model")
    total = None
    for name in names:
        p = params_now[name]
        dt = p.data.dtype
        if fisher.anchor[name].shape != p.data.shape:
            raise ValueError(f"{name}: anchor shape {fisher.anchor[name].shape} != {p.data.shape}")
        anchor = Tensor(fisher.anchor[name].astype(dt))
        f = Tensor(fisher.fisher[name].astype(dt))
        d = p - anchor
        term = ad.tensor_sum(ad.mul_elementwise(f, ad.mul_elementwise(d, d)))
        total = term if total is None else ad.add(total, term)
    half_lam = Tensor(np.asarray(lam / 2.0, dtype=total.data.dtype))
    return ad.mul_elementwise(half_lam, total)


def train_task(params: ModelParams, ds: ChannelDataset, cfg: "RunConfig",
               fisher: FisherDiag | None = None):
    """Mini-batch Adam on the reconstruction loss, plus alpha times the anchor penalty
    when a previous task's Fisher is given and lam * alpha > 0.

    Reads batch_size, epochs, lr, lam, alpha, seed and clip_norm from cfg. Returns the
    per-epoch trace: mean loss, and with the penalty also ewc_loss and total_loss.
    """
    if len(ds) < 1:
        raise ValueError("empty dataset")
    x_all, y_all = _dataset_planes(ds)
    target = (y_all.shape[-2], y_all.shape[-1])
    tensors = params.tensors()
    opt = Adam(tensors, lr=cfg.lr)
    use_ewc = fisher is not None and cfg.lam * cfg.alpha > 0
    trace = []
    for epoch in range(cfg.epochs):
        perm = _epoch_rng(cfg.seed, epoch).permutation(len(ds))
        h_sum = ewc_sum = 0.0
        slices = _batch_slices(len(ds), cfg.batch_size)
        for s, e in slices:
            idx = perm[s:e]
            x = Tensor(x_all[idx], dtype=x_all.dtype)
            y = Tensor(y_all[idx], dtype=y_all.dtype)
            loss_h = ad.mse_loss(forward(x, params, target), y)
            if use_ewc:
                penalty = ewc_loss(params, fisher, cfg.lam)
                alpha = Tensor(np.asarray(cfg.alpha, dtype=penalty.data.dtype))
                loss = ad.add(loss_h, ad.mul_elementwise(alpha, penalty))
                ewc_sum += penalty.item()
                del penalty, alpha
            else:
                loss = loss_h
            value = loss.item()
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite training loss {value} at epoch {epoch}, batch {s // cfg.batch_size}")
            ad.backward(loss)
            if cfg.clip_norm:
                clip_global_norm(tensors, cfg.clip_norm)
            opt.step()
            h_sum += loss_h.item()
            del loss, loss_h  # free this step's graph before the next forward builds one
        n_b = len(slices)
        row = {"epoch": epoch, "loss": h_sum / n_b}
        if use_ewc:
            row["ewc_loss"] = ewc_sum / n_b
            row["total_loss"] = (h_sum + ewc_sum * cfg.alpha) / n_b
        trace.append(row)
    return trace


def fisher_diagonal(tensors, batch_losses):
    """Mean of squared gradients over batches.

    tensors: parameter Tensors; batch_losses: iterable of callables, each
    returning the scalar loss of one batch. Returns float64 arrays.
    """
    acc = [np.zeros(t.data.shape, np.float64) for t in tensors]
    count = 0
    for make_loss in batch_losses:
        for t in tensors:
            t.zero_grad()
        ad.backward(make_loss())  # the batch's graph is freed when backward returns
        for a, t in zip(acc, tensors):
            g = t.grad.astype(np.float64)
            a += g * g
        count += 1
    if count == 0:
        raise ValueError("fisher_diagonal needs at least one batch")
    return [a / count for a in acc]


def estimate_fisher(params: ModelParams, ds: ChannelDataset, cfg: "RunConfig",
                    task: str = "") -> FisherDiag:
    """Empirical Fisher diagonal over the dataset in fixed batch order."""
    if len(ds) < 1:
        raise ValueError("empty dataset")
    x_all, y_all = _dataset_planes(ds)
    target = (y_all.shape[-2], y_all.shape[-1])

    def make(s, e):
        def batch_loss():
            x = Tensor(x_all[s:e], dtype=x_all.dtype)
            y = Tensor(y_all[s:e], dtype=y_all.dtype)
            return ad.mse_loss(forward(x, params, target), y)

        return batch_loss

    losses = [make(s, e) for s, e in _batch_slices(len(ds), cfg.batch_size)]
    tensors = params.tensors()
    diag = fisher_diagonal(tensors, losses)
    for t in tensors:
        t.zero_grad()
    dt = ad.default_dtype()
    names = params.names()
    return FisherDiag(
        fisher={n: d.astype(dt) for n, d in zip(names, diag)},
        anchor={n: params[n].data.copy() for n in names},
        task=task,
    )


def save_fisher(fd: FisherDiag, path: str) -> None:
    records = [(n, fd.fisher[n]) for n in sorted(fd.fisher)]
    records += [("anchor." + n, fd.anchor[n]) for n in sorted(fd.anchor)]
    records.append(("task." + fd.task, np.zeros(0, np.float32)))
    write_records(path, records, FISH_MAGIC)


def load_fisher(path: str) -> FisherDiag:
    fisher, anchor, task = {}, {}, ""
    for name, arr in read_records(path, FISH_MAGIC):
        if name.startswith("anchor."):
            anchor[name[len("anchor."):]] = arr
        elif name.startswith("task."):
            task = name[len("task."):]
        else:
            fisher[name] = arr
    return FisherDiag(fisher=fisher, anchor=anchor, task=task)


def write_loss_csv(path: str, trace) -> None:
    """Loss trace rows to CSV: epoch,loss[,ewc_loss,total_loss]."""
    if not trace:
        raise ValueError("empty loss trace")
    fields = ["epoch", "loss"] + (["ewc_loss", "total_loss"] if "ewc_loss" in trace[0] else [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in trace:
        writer.writerow([row["epoch"]] + [f"{row[k]:.10e}" for k in fields[1:]])
    atomic_write_text(path, buf.getvalue())
