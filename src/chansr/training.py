"""Training: one mini-batch Adam loop, Fisher estimation, the EWC anchor penalty.

One loop serves plain training on one task, sequential training on the next
task with the anchor penalty, and the multi-task bound (plain training on the
union of the tasks' datasets). Its settings are the run's `RunConfig`. Each
batch's 2-plane input and target are formed from the dataset's complex64
arrays inside its step, so training and the Fisher pass hold no whole-set copy.

The reconstruction loss is the batch mean of per-sample squared Frobenius
error between predicted and true 2-plane grids. Sequential training adds the
quadratic anchor penalty sum_i (lambda/2) * F_i * (theta_i - anchor_i)^2,
whose one weight is lambda, as in EWC (Kirkpatrick et al., 2017); at
lambda = 0 the code path is exactly the plain loop (bit-identical results
under a shared seed). The penalty stays outside the autodiff graph: its
value and its gradient are vector ops on `ModelParams.flat`, the gradient
added after the reconstruction loss's backward pass.

The Fisher diagonal is the mean over fixed-order batches of the squared
batch-loss gradient. Re-partitioning the dataset (different batch size or
order) changes the estimate; the batch size is the run's `batch_size`.

Fisher files mirror the checkpoint record format with magic "FISH": one
record per parameter holding F, one "anchor.<name>" record per parameter
holding the anchor value, and a zero-length "task.<label>" record. Both
record sets must match the model's PARAM_SPECS, finite, with F >= 0.
"""

import csv
import io
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import ChannelDataset, planes_from_complex
from .fio import atomic_write_text
from .model import ModelParams, check_registry, forward, join_flat, read_records, split_flat, write_records
from .optim import Adam, clip_global_norm

if TYPE_CHECKING:  # config imports this module for DEFAULT_EWC_LAMBDA
    from .config import RunConfig

FISH_MAGIC = b"FISH"
_SHUFFLE_TAG = 0x53484C  # distinguishes shuffle streams from sample streams

# pinned by scripts/grid_search_lambda.py (see README): lowest mixed-set
# validation NMSE over the {1, 10, 100, 1000, 10000} grid
DEFAULT_EWC_LAMBDA = 10000.0


@dataclass
class FisherDiag:
    """Per-parameter importance weights plus the anchor parameter copy."""

    fisher: dict
    anchor: dict
    task: str = ""

    def __post_init__(self):
        check_registry(self.fisher, "Fisher")
        check_registry(self.anchor, "anchor")
        for name, f in self.fisher.items():
            if np.any(f < 0):
                raise ValueError(f"{name}: negative Fisher entry")


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_SHUFFLE_TAG, epoch)))


def _batch_slices(n: int, batch_size: int):
    return [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]


def _batch_loss(params: ModelParams, ds: ChannelDataset, idx) -> Tensor:
    """Reconstruction loss of the samples `idx`, their planes formed from the complex64 arrays here."""
    dt = ad.default_dtype()
    x = Tensor(planes_from_complex(ds.h_ls[idx], dtype=dt), dtype=dt)
    y = Tensor(planes_from_complex(ds.h_true[idx], dtype=dt), dtype=dt)
    return ad.mse_loss(forward(x, params, ds.h_true.shape[1:]), y)


def ewc_loss(params: ModelParams, fisher: FisherDiag, lam: float) -> np.ndarray:
    """Quadratic anchor penalty sum_i (lam/2) * F_i * (theta_i - anchor_i)^2, a 0-d
    array of the parameter dtype, summed per parameter in registry order."""
    dt = params.flat.data.dtype
    d = params.flat.data - join_flat(fisher.anchor, dt)
    per_param = split_flat(join_flat(fisher.fisher, dt) * (d * d))
    return np.asarray(dt.type(lam / 2.0) * sum(v.sum(dtype=dt) for v in per_param.values()))


def train_task(params: ModelParams, ds: ChannelDataset, cfg: "RunConfig",
               fisher: FisherDiag | None = None):
    """Mini-batch Adam on the reconstruction loss, plus the anchor penalty when a
    previous task's Fisher is given and lam > 0.

    Reads batch_size, epochs, lr, lam, seed and clip_norm from cfg. Returns the
    per-epoch trace: mean loss, and with the penalty also ewc_loss and total_loss.
    """
    if len(ds) < 1:
        raise ValueError("empty dataset")
    flat = params.flat
    opt = Adam(flat, lr=cfg.lr)
    use_ewc = fisher is not None and cfg.lam > 0
    if use_ewc:
        dt = flat.data.dtype
        # gradient of the penalty: 2 * (lam/2) * F * (theta - anchor)
        c_fisher = dt.type(cfg.lam / 2.0) * join_flat(fisher.fisher, dt)
        anchor = join_flat(fisher.anchor, dt)
    trace = []
    for epoch in range(cfg.epochs):
        perm = _epoch_rng(cfg.seed, epoch).permutation(len(ds))
        h_sum = ewc_sum = 0.0
        slices = _batch_slices(len(ds), cfg.batch_size)
        for s, e in slices:
            loss_h = _batch_loss(params, ds, perm[s:e])
            value = loss_h.data
            if use_ewc:
                penalty = ewc_loss(params, fisher, cfg.lam)
                value = value + penalty
                ewc_sum += penalty.item()
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite training loss {value} at epoch {epoch}, batch {s // cfg.batch_size}")
            ad.backward(loss_h)
            if use_ewc:
                t = c_fisher * (flat.data - anchor)
                flat.grad += t + t  # the two d(d*d) terms are summed before they reach theta
            if cfg.clip_norm:
                clip_global_norm(params.tensors(), cfg.clip_norm)
            opt.step()
            h_sum += loss_h.item()
            del loss_h  # free this step's graph before the next forward builds one
        n_b = len(slices)
        row = {"epoch": epoch, "loss": h_sum / n_b}
        if use_ewc:
            row["ewc_loss"] = ewc_sum / n_b
            row["total_loss"] = (h_sum + ewc_sum) / n_b
        trace.append(row)
    return trace


def fisher_diagonal(param: Tensor, batch_losses) -> np.ndarray:
    """Mean of squared gradients over batches, as a float64 array of param's shape.

    param: the Tensor whose grad the losses fill (a model's `ModelParams.flat`);
    batch_losses: iterable of callables, each returning the scalar loss of one batch.
    """
    acc = np.zeros(param.data.shape, np.float64)
    count = 0
    for make_loss in batch_losses:
        param.zero_grad()
        ad.backward(make_loss())  # the batch's graph is freed when backward returns
        g = param.grad.astype(np.float64)
        acc += g * g
        count += 1
    if count == 0:
        raise ValueError("fisher_diagonal needs at least one batch")
    return acc / count


def estimate_fisher(params: ModelParams, ds: ChannelDataset, cfg: "RunConfig",
                    task: str = "") -> FisherDiag:
    """Empirical Fisher diagonal over the dataset in fixed batch order."""
    if len(ds) < 1:
        raise ValueError("empty dataset")
    losses = [partial(_batch_loss, params, ds, slice(s, e)) for s, e in _batch_slices(len(ds), cfg.batch_size)]
    diag = fisher_diagonal(params.flat, losses)
    params.flat.zero_grad()
    if not np.all(np.isfinite(diag)):
        raise FloatingPointError("non-finite Fisher estimate")
    return FisherDiag(fisher=split_flat(diag.astype(ad.default_dtype())),
                      anchor=split_flat(params.flat.data.copy()), task=task)


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
