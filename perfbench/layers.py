"""Per-layer metrics derived from a traced run's spans.

A span's self time is its duration minus the time its child spans cover.
Call counts, samples generated and the distinct-draw ratio count only spans
inside the timed operations (``bench.op.*``) and are given per timed cycle
(``bench.cycle``), so a program that fits more cycles into the run does not
read as doing more work. Times per call are taken over every span the run
recorded: set-up, the traced timed pass and the checks. Where a layer is not
on a workload's timed path (training on ``infer``, say) its times come from
set-up or checks, which every workload runs through the same CLI commands.
"""

import numpy as np

from chansr.model import PARAM_SPECS

from tracing import LAYERS


def _median(x):
    return float(np.median(x)) if len(x) else float("nan")


def _ratio(num, den):
    return float(num / den) if den else float("nan")


class Spans:
    def __init__(self, tracer):
        self.names = tracer.names
        self.name, self.start, self.end, self.parent = tracer.arrays()
        self.dur = self.end - self.start
        inner = self.parent >= 0
        covered = np.bincount(self.parent[inner], weights=self.dur[inner], minlength=len(self.dur))
        self.self_time = self.dur - covered
        self.in_op = self.ancestor(self.where(lambda n: n.startswith("bench.op."))) >= 0
        self.cycle_of = self.ancestor(self.named("bench.cycle"))
        self.cycles = int(self.named("bench.cycle").sum())

    def ancestor(self, mask):
        """Index of each span's nearest ancestor in mask (itself if in mask), -1 where there is none."""
        anc = np.where(mask, np.arange(len(mask)), -1).tolist()
        parent = self.parent.tolist()
        # spans are stored in start order and parents start first, so one forward sweep suffices
        for i in np.flatnonzero((self.parent >= 0) & ~mask).tolist():
            anc[i] = anc[parent[i]]
        return np.array(anc, np.int64)

    def where(self, pred):
        ids = [i for i, n in enumerate(self.names) if pred(n)]
        return np.isin(self.name, ids)

    def named(self, name):
        return self.where(lambda n: n == name)

    def children_of(self, parents_mask, child_mask):
        """Mask of spans in child_mask whose parent span is in parents_mask."""
        inner = self.parent >= 0
        hit = np.zeros(len(self.dur), bool)
        hit[inner] = parents_mask[self.parent[inner]]
        return hit & child_mask


def per_cycle(sp: Spans, mask) -> float:
    """Spans in mask inside the timed operations, per timed cycle."""
    return _ratio(float((mask & sp.in_op).sum()), sp.cycles)


def training_steps(sp: Spans):
    """One row per training step: (step s, kernel s, optim s, autodiff op count).

    A step runs from the end of the previous ``optim.Adam.step`` of the same
    training call to the end of its own. Each call's first step is left out:
    it also pays for converting the dataset to planes and for Adam's set-up.
    """
    is_kernel = sp.where(lambda n: n.startswith("kernels."))
    is_optim = sp.where(lambda n: n.startswith("optim."))
    is_op = sp.where(lambda n: n.startswith("autodiff.") and n != "autodiff.backward")
    cum = {k: np.concatenate([[0.0], np.cumsum(np.where(m, sp.dur if k != "ops" else 1.0, 0.0))])
           for k, m in (("kernels", is_kernel), ("optim", is_optim), ("ops", is_op))}
    calls = sp.where(lambda n: n in ("training.train_task", "training.train_task_cl", "training.train_multitask"))
    adam = sp.named("optim.Adam.step")
    rows = []
    for call in np.flatnonzero(calls):
        ends = np.concatenate([[sp.start[call]], sp.end[adam & (sp.parent == call)]])
        lo = np.searchsorted(sp.start, ends[:-1], side="right")
        hi = np.searchsorted(sp.start, ends[1:], side="right")
        for a, b, step in zip(lo[1:], hi[1:], np.diff(ends)[1:]):
            rows.append((step, cum["kernels"][b] - cum["kernels"][a], cum["optim"][b] - cum["optim"][a],
                         cum["ops"][b] - cum["ops"][a]))
    return np.array(rows).reshape(-1, 4)


def kernel_table(sp: Spans, kernel_cost, batch):
    """Median ms per call for each conv/deconv layer and direction at the training batch."""
    labels = [name[:-2] for name, _ in PARAM_SPECS if name.endswith("_w")]
    out, flop, moved = {}, 0, 0
    for label in labels:
        for direction in ("fwd", "bwd"):
            span = f"kernels.{label}.{direction}@{batch}"
            out[f"kernels.{label}.{direction}_ms"] = _median(sp.dur[sp.named(span)]) * 1e3
            f, m = kernel_cost.get(span, (float("nan"), float("nan")))
            flop, moved = flop + f, moved + m
    ms = sum(out.values())
    out["kernels.ms_per_step"] = ms
    out["kernels.gflop_per_step"] = flop / 1e9
    out["kernels.mb_per_step"] = moved / 1e6
    out["kernels.gflops"] = _ratio(flop / 1e9, ms / 1e3)
    return out


def self_time_by_layer(sp: Spans):
    """Seconds of self time per layer inside the traced timed operations, plus the uncovered rest."""
    ops = sp.where(lambda n: n.startswith("bench.op."))
    out = {layer: float(sp.self_time[sp.in_op & sp.where(lambda n, p=layer + ".": n.startswith(p))].sum())
           for layer in LAYERS}
    out["uncovered"] = float(sp.self_time[ops].sum())
    out["total"] = float(sp.dur[ops].sum())
    return out


def distinct_ratio(sp: Spans, draws) -> float:
    """Distinct sample streams over streams opened, median over timed cycles.

    Where the timed operations open no stream (infer), over every stream the
    run opened instead.
    """
    by_cycle = {}
    for idx, key in draws:
        if sp.in_op[idx]:
            by_cycle.setdefault(int(sp.cycle_of[idx]), []).append(key)
    if not by_cycle:
        by_cycle = {-1: [key for _idx, key in draws]}
    return _median([len(set(keys)) / len(keys) for keys in by_cycle.values() if keys])


def derive(tracer, batch):
    """(per-layer metrics, self time by layer, training steps behind the step percentiles)."""
    sp = Spans(tracer)
    m = kernel_table(sp, tracer.kernel_cost, batch)

    def mean_ms(name, scale=1e3):
        return float(np.mean(sp.dur[sp.named(name)])) * scale if sp.named(name).any() else float("nan")

    def median_ms(name):
        return _median(sp.dur[sp.named(name)]) * 1e3

    steps = training_steps(sp)
    step_s, kern_s, optim_s, ops = steps.T
    m["autodiff.ops_per_step"] = float(np.mean(ops)) if len(ops) else float("nan")
    m["autodiff.backward_self_ms"] = _median(sp.self_time[sp.named("autodiff.backward")]) * 1e3
    m["autodiff.overhead_ms_per_step"] = _median(step_s - kern_s - optim_s) * 1e3

    m["model.forward_ms.b128"] = median_ms(f"model.forward@{batch}")
    m["model.forward_nograd_ms.b128"] = median_ms(f"model.forward_nograd@{batch}")
    m["model.forward_ms.b1"] = median_ms("model.forward_nograd@1")
    m["model.save_params_ms"] = mean_ms("model.save_params")
    m["model.load_params_ms"] = mean_ms("model.load_params")

    m["optim.adam_step_ms"] = median_ms("optim.Adam.step")
    m["optim.clip_global_norm_ms"] = median_ms("optim.clip_global_norm")

    m["training.step_ms_p50"] = _median(step_s) * 1e3
    m["training.step_ms_p90"] = float(np.percentile(step_s, 90)) * 1e3 if len(step_s) else float("nan")
    m["training.ewc_loss_ms_per_step"] = median_ms("training.ewc_loss")
    fisher = sp.named("training.fisher_diagonal")
    batches = sp.children_of(fisher, sp.named("autodiff.backward")).sum()
    m["training.fisher_batch_ms"] = _ratio(sp.dur[fisher].sum(), batches) * 1e3

    for fn in ("generate_channel", "make_pilot_observation", "ls_estimate", "interpolate_bilinear"):
        m[f"channel.{fn}_us"] = mean_ms(f"channel.{fn}", 1e6)
        m[f"channel.{fn}_calls"] = per_cycle(sp, sp.named(f"channel.{fn}"))

    m["dataset.samples_generated"] = per_cycle(sp, sp.named("dataset.sample_rng"))
    m["dataset.distinct_ratio"] = distinct_ratio(sp, tracer.draws)
    drawn = sp.named("dataset.sample_rng").sum()
    m["dataset.generate_us_per_sample"] = _ratio(sp.dur[sp.named("dataset.generate_dataset")].sum(), drawn) * 1e6
    m["dataset.save_ms"] = mean_ms("dataset.save_dataset")
    m["dataset.load_ms"] = mean_ms("dataset.load_dataset")

    model_est = sp.named("evaluate.model_estimator.estimate")
    chunks = sp.children_of(model_est, sp.where(lambda n: n.startswith("model.forward"))).sum()
    m["evaluate.model_estimator_ms_per_chunk"] = _ratio(sp.dur[model_est].sum(), chunks) * 1e3
    ls_est = sp.named("evaluate.ls_bilinear_estimator.estimate")
    grids = sp.children_of(ls_est, sp.named("channel.interpolate_bilinear")).sum()
    m["evaluate.ls_estimator_us_per_sample"] = _ratio(sp.dur[ls_est].sum(), grids) * 1e6
    m["evaluate.nmse_ms"] = mean_ms("evaluate.nmse")
    sweeps = sp.named("evaluate.sweep")
    gen_in_sweep = sp.children_of(sweeps, sp.named("dataset.generate_dataset"))
    m["evaluate.gen_share"] = _ratio(sp.dur[gen_in_sweep].sum(), sp.dur[sweeps].sum())

    m["cli.self_ms"] = float(np.mean(sp.self_time[sp.named("cli.main")])) * 1e3

    shares = self_time_by_layer(sp)
    m["trace.uncovered_frac"] = _ratio(shares["uncovered"], shares["total"])
    return m, shares, len(step_s)
