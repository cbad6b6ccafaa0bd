"""The benchmark's three workloads: train, eval and infer.

Each workload is a closed loop with one client. ``setup`` builds its inputs
from the workload seed through the in-process CLI, ``start`` prepares check
references, ``cycle`` runs one unit of timed work and returns one ``Op`` per
operation, and ``finish`` runs the quality checks and sets ``nmse``. Every
operation carries the result of its own output check.
"""

import contextlib
import csv
import io
import os
import time
from dataclasses import dataclass

import numpy as np

from chansr import channel, cli, config, dataset, evaluate, model, training

# problem sizes; "smoke" is the tiny mode the benchmark's own check runs
# n_train: samples per profile of the train workload's timed commands, four
#   batches, so that each epoch runs several steps as the desk protocol does
# n_setup, setup_epochs: data and epochs behind the eval and infer checkpoints;
#   two epochs give every training call a step past its first (layers.training_steps)
# eval_mc: trials per profile and SNR; 128 fills one evaluation chunk per sweep call
SIZES = {
    "full": dict(n_train=512, n_setup=128, epochs=3, setup_epochs=2, eval_mc=128, infer_n=128, check_n=16,
                 setup_reps=5, import_reps=5, min_traced_steps=100),
    "smoke": dict(n_train=256, n_setup=128, epochs=3, setup_epochs=2, eval_mc=4, infer_n=8, check_n=2,
                  setup_reps=1, import_reps=1, min_traced_steps=0),
}

DEFAULTS = config.RunConfig()
BATCH = DEFAULTS.batch_size
TRAIN_SNR = DEFAULTS.train_snr_db
PROFILES = (DEFAULTS.profile_1, DEFAULTS.profile_2)

# Training commands draw initial weights and shuffles from this fixed seed;
# the workload seed picks the data (gen) and the test sets (eval). The models
# here train for a few steps only, so their NMSE is set mostly by the initial
# weights, and a per-seed init would spread nmse across seeds by tens of percent.
MODEL_SEED = 0
_MODEL_COMMANDS = ("train", "fisher", "train-cl", "train-multitask")


@dataclass
class Op:
    kind: str
    samples: int  # samples x epochs for training, scored (scheme, sample, SNR) triples for eval
    seconds: float
    ok: bool


def rel_err(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_nmse(path):
    """Linear NMSE values of a report CSV (delta rows included)."""
    return [float(r["nmse_linear"]) for r in read_rows(path)]


def finite_positive(values) -> bool:
    return len(values) > 0 and all(np.isfinite(v) and v > 0 for v in values)


class Workload:
    name = ""
    checks = ()  # names of the output checks this workload runs; the smoke mode verifies them

    def __init__(self, seed: int, sizes: dict, work: str, tracer):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.tracer = tracer
        self.nmse = float("nan")
        self.baseline_ls = float("nan")
        self.check_runs = {name: 0 for name in self.checks}
        self.check_fails = {name: 0 for name in self.checks}
        self.cfg = config.RunConfig()
        self.ofdm, self.pattern = self.cfg.ofdm(), self.cfg.pattern()

    # -- helpers -----------------------------------------------------------

    def check(self, name: str, ok: bool) -> bool:
        self.check_runs[name] += 1
        self.check_fails[name] += not ok
        return bool(ok)

    def cli(self, *argv) -> tuple:
        """Run one CLI command in-process; (exit code, seconds)."""
        seed = MODEL_SEED if argv[0] in _MODEL_COMMANDS else self.seed
        args = [str(a) for a in argv] + ["--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(args)
            return code, time.perf_counter() - t0

    def gen(self, out_dir, n):
        """Training CHDS files of n samples for both profiles at the training SNR; returns their paths."""
        paths = [os.path.join(out_dir, f"{prof}.chds") for prof in PROFILES]
        for prof, path in zip(PROFILES, paths):
            self.must("gen", "--profile", prof, "--snr", TRAIN_SNR, "--n", n, "--out", path, "--force")
        return paths

    def must(self, *argv) -> None:
        code, _ = self.cli(*argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")

    def sequential_checkpoints(self, out_dir, data_a, data_d, naive=False):
        """Task-I training, its Fisher, then task-II training under the anchor penalty."""
        e = self.sizes["setup_epochs"]
        post1, fish = os.path.join(out_dir, "post1"), os.path.join(out_dir, "fisher")
        self.must("train", "--data", data_a, "--epochs", e, "--out", post1)
        self.must("fisher", "--data", data_a, "--checkpoint", f"{post1}/checkpoint.dasr", "--out", fish)
        runs = {"post1": post1}
        for label, lam in (("cl", training.DEFAULT_EWC_LAMBDA),) + ((("naive", 0.0),) if naive else ()):
            runs[label] = os.path.join(out_dir, label)
            self.must("train-cl", "--data", data_d, "--checkpoint", f"{post1}/checkpoint.dasr",
                      "--fisher", f"{fish}/fisher.fish", "--lambda", lam, "--epochs", e, "--out", runs[label])
        return {k: f"{v}/checkpoint.dasr" for k, v in runs.items()}

    def start(self) -> None:
        """Called once before the timed pass, outside the timing."""

    def steps_per_cycle(self) -> int:
        """Training steps of one cycle that enter the step percentiles (see layers.training_steps)."""
        return 0

    def finish(self) -> list:
        """Quality checks after timing; returns one pass/fail entry per check operation."""
        return []

    def samples_per_s(self, ops, kind=None) -> float:
        """Samples per second of summed op time, over all ops or those of one kind."""
        picked = [op for op in ops if kind is None or op.kind == kind]
        seconds = sum(op.seconds for op in picked)
        return sum(op.samples for op in picked) / seconds if seconds else float("nan")


class Train(Workload):
    """train on tdl-a, fisher, then train-cl on tdl-d under the default lambda, as one cycle."""

    name = "train"
    checks = ("exit_code", "losses_finite", "loss_decreases", "dasr_bit_identical", "fisher_valid",
              "heldout_nmse_finite", "batch1_matches_batched")

    def __init__(self, *args):
        super().__init__(*args)
        self.saved_params = {}
        self.capture_saves()

    def capture_saves(self):
        """Keep a copy of every checkpoint the CLI saves, to compare with the file.

        The copy is taken in a shim bound as ``chansr.cli.save_params``. It is
        bound before any tracer, and it looks up ``chansr.model.save_params``
        at call time, so a traced run still records the save as a ``model`` span.
        """
        def save(params, path):
            self.saved_params[os.path.abspath(path)] = {n: params[n].data.copy() for n in params.names()}
            return model.save_params(params, path)

        cli.save_params = save

    def dasr_matches(self, path) -> bool:
        kept = self.saved_params.get(os.path.abspath(path))
        loaded = model.load_params(path)
        return kept is not None and all(
            loaded[n].data.dtype == kept[n].dtype and loaded[n].data.tobytes() == kept[n].tobytes()
            for n in loaded.names())

    def setup(self, out_dir):
        self.data_a, self.data_d = self.gen(out_dir, self.sizes["n_train"])
        self.run = os.path.join(self.work, "cycle")

    def training_ok(self, run_dir, code) -> bool:
        """Finite losses, a lower objective in the last epoch than in the first, and a faithful checkpoint.

        The objective is ``total_loss`` under the anchor penalty, ``loss``
        otherwise. Under a strong anchor the task loss alone can stay flat,
        since the penalty holds the parameters near the task-I solution. The
        first epoch must run more than one step: a lone first step is scored
        at the anchor, where the penalty is zero.
        """
        ok = self.check("exit_code", code == 0)
        if not ok:
            return False
        rows = read_rows(os.path.join(run_dir, "loss.csv"))
        losses = [float(r.get("total_loss", r["loss"])) for r in rows]
        ok &= self.check("losses_finite", all(np.isfinite(float(v)) for r in rows for v in list(r.values())[1:]))
        ok &= self.check("loss_decreases", losses[-1] < losses[0])
        ok &= self.check("dasr_bit_identical", self.dasr_matches(os.path.join(run_dir, "checkpoint.dasr")))
        return ok

    def cycle(self):
        e, n = self.sizes["epochs"], self.sizes["n_train"]
        r_train, r_fish, r_cl = (os.path.join(self.run, k) for k in ("train", "fisher", "cl"))
        ckpt = os.path.join(r_train, "checkpoint.dasr")
        ops = []
        with self.tracer.span("bench.op.train"):
            code, t = self.cli("train", "--data", self.data_a, "--epochs", e, "--batch-size", BATCH, "--out", r_train)
        ops.append(Op("train", n * e, t, self.training_ok(r_train, code)))
        with self.tracer.span("bench.op.fisher"):
            code, t = self.cli("fisher", "--data", self.data_a, "--checkpoint", ckpt, "--batch-size", BATCH,
                               "--out", r_fish)
        ok = self.check("exit_code", code == 0)
        if ok:
            fd = training.load_fisher(os.path.join(r_fish, "fisher.fish"))
            ok = self.check("fisher_valid", all(np.all(np.isfinite(f)) for f in fd.fisher.values()))
        ops.append(Op("fisher", n, t, ok))
        with self.tracer.span("bench.op.train-cl"):
            code, t = self.cli("train-cl", "--data", self.data_d, "--checkpoint", ckpt,
                               "--fisher", os.path.join(r_fish, "fisher.fish"),
                               "--lambda", training.DEFAULT_EWC_LAMBDA, "--epochs", e, "--batch-size", BATCH,
                               "--out", r_cl)
        ops.append(Op("train-cl", n * e, t, self.training_ok(r_cl, code)))
        return ops

    def steps_per_cycle(self) -> int:
        """Steps of train and train-cl that enter the step percentiles (each call's first is left out)."""
        return 2 * (self.sizes["epochs"] * -(-self.sizes["n_train"] // BATCH) - 1)

    def finish(self):
        """NMSE of the anchor-trained model on a held-out mixed set at the training SNR."""
        ckpt = os.path.join(self.run, "cl", "checkpoint.dasr")
        mc = 2 * self.sizes["n_train"]  # 50/50 mixed
        results = []
        for scheme, extra in (("model", ("--checkpoint", ckpt)), ("ls", ())):
            out = os.path.join(self.work, f"heldout-{scheme}")
            code, _ = self.cli("eval", "--scheme", scheme, *extra, "--profile", *PROFILES,
                               "--snr-list", TRAIN_SNR, "--mc", mc, "--out", out)
            values = report_nmse(os.path.join(out, "report.csv")) if code == 0 else []
            results.append(self.check("heldout_nmse_finite", finite_positive(values)))
            if values:
                if scheme == "model":
                    self.nmse = values[0]
                else:
                    self.baseline_ls = values[0]
        est = evaluate.model_estimator(model.load_params(ckpt), self.ofdm)
        probe = dataset.generate_dataset(self.cfg.profile(PROFILES[0]), self.ofdm, self.pattern, TRAIN_SNR,
                                         self.sizes["check_n"], self.seed, dataset.DOMAIN_TEST)
        single = np.concatenate([est(probe.h_ls[i:i + 1]) for i in range(len(probe))])
        results.append(self.check("batch1_matches_batched", rel_err(single, est(probe.h_ls)) <= 1e-5))
        return results


class Eval(Workload):
    """report-forgetting over four checkpoints, then eval --scheme ls on each profile, as one cycle."""

    name = "eval"
    checks = ("exit_code", "nmse_finite_positive", "mixed_is_mean_of_tasks", "ls_rows_recompute",
              "model_row_recompute")

    def setup(self, out_dir):
        data_a, data_d = self.gen(out_dir, self.sizes["n_setup"])
        self.ckpt = self.sequential_checkpoints(out_dir, data_a, data_d, naive=True)
        mt = os.path.join(out_dir, "multitask")
        self.must("train-multitask", "--data", data_a, "--data", data_d, "--epochs", self.sizes["setup_epochs"],
                  "--out", mt)
        self.ckpt["multitask"] = f"{mt}/checkpoint.dasr"
        self.snrs = DEFAULTS.snr_list
        self.ls_rows = {}

    def regenerate(self, prof, snr, mc):
        return dataset.generate_dataset(self.cfg.profile(prof), self.ofdm, self.pattern, snr, mc, self.seed,
                                        dataset.DOMAIN_TEST)

    def forgetting_ok(self, path) -> bool:
        rows = read_rows(path)
        ok = self.check("nmse_finite_positive", finite_positive([float(r["nmse_linear"]) for r in rows]))
        value = {(r["scheme"], r["profile"], float(r["snr_db"])): float(r["nmse_linear"]) for r in rows}
        mixed_ok = all(
            abs(v - 0.5 * (value[(s, "task1", snr)] + value[(s, "task2", snr)])) <= 1e-6 * v
            for (s, p, snr), v in value.items() if p == "mixed")
        ok &= self.check("mixed_is_mean_of_tasks", mixed_ok)
        # one model row, recomputed one grid at a time and inside a full evaluation chunk: sample
        # streams are keyed by index, so the row's draws are the first mc grids of a larger set
        snr, mc = self.snrs[-1], self.sizes["eval_mc"]
        ds = self.regenerate(PROFILES[0], snr, max(mc, BATCH))
        est = evaluate.model_estimator(model.load_params(self.ckpt["cl"]), self.ofdm)
        chunk = est(ds.h_ls)[:mc]
        single = np.concatenate([est(ds.h_ls[i:i + 1]) for i in range(mc)])
        recomputed = evaluate.nmse(ds.h_true[:mc], single)
        ok &= self.check("model_row_recompute", rel_err(single, chunk) <= 1e-5
                         and abs(recomputed - value[("cl", "task1", snr)]) <= 1e-5 * recomputed)
        self.nmse = float(np.mean([v for (s, _p, _snr), v in value.items() if s != "delta_naive_minus_cl"]))
        return ok

    def ls_ok(self, path, prof) -> bool:
        rows = read_rows(path)
        ok = self.check("nmse_finite_positive", finite_positive([float(r["nmse_linear"]) for r in rows]))
        mc = self.sizes["eval_mc"]
        for r in (rows[0], rows[-1]):
            ds = self.regenerate(prof, float(r["snr_db"]), mc)
            est = np.stack([channel.interpolate_bilinear(h, self.pattern, self.ofdm) for h in ds.h_ls])
            recomputed = evaluate.nmse(ds.h_true, est)
            ok &= self.check("ls_rows_recompute", abs(recomputed - float(r["nmse_linear"])) <= 1e-6 * recomputed)
        self.ls_rows[prof] = [float(r["nmse_linear"]) for r in rows]
        self.baseline_ls = float(np.mean([v for vals in self.ls_rows.values() for v in vals]))
        return ok

    def cycle(self):
        mc = self.sizes["eval_mc"]
        out = os.path.join(self.work, "forgetting")
        with self.tracer.span("bench.op.report-forgetting"):
            code, t = self.cli("report-forgetting", "--post1", self.ckpt["post1"], "--naive", self.ckpt["naive"],
                               "--cl", self.ckpt["cl"], "--multitask", self.ckpt["multitask"], "--mc", mc,
                               "--out", out)
        path = os.path.join(out, "forgetting.csv")
        ok = self.check("exit_code", code == 0) and self.forgetting_ok(path)
        scored = sum(int(r["mc"]) for r in read_rows(path) if r["scheme"] != "delta_naive_minus_cl") if ok else 0
        ops = [Op("report-forgetting", scored, t, ok)]
        for prof in PROFILES:
            out = os.path.join(self.work, f"eval-ls-{prof}")
            with self.tracer.span("bench.op.eval"):
                code, t = self.cli("eval", "--scheme", "ls", "--profile", prof, "--mc", mc, "--out", out)
            path = os.path.join(out, "report.csv")
            ok = self.check("exit_code", code == 0) and self.ls_ok(path, prof)
            ops.append(Op(f"eval-{prof}", mc * len(self.snrs), t, ok))
        return ops



class Infer(Workload):
    """One [1, 15, 6] LS grid at a time through model_estimator, over a fixed pre-generated set."""

    name = "infer"
    checks = ("batch1_matches_batched", "nmse_finite_positive", "set_is_library_test_set")

    def setup(self, out_dir):
        data_a, data_d = self.gen(out_dir, self.sizes["n_setup"])
        self.ckpt = self.sequential_checkpoints(out_dir, data_a, data_d)["cl"]
        parts = [dataset.generate_dataset(self.cfg.profile(p), self.ofdm, self.pattern, TRAIN_SNR,
                                          self.sizes["infer_n"], self.seed, dataset.DOMAIN_TEST) for p in PROFILES]
        self.grids = dataset.concat_datasets(parts)

    def start(self):
        self.est = evaluate.model_estimator(model.load_params(self.ckpt), self.ofdm)
        self.reference = self.est(self.grids.h_ls)
        self.outputs = np.empty_like(self.reference)

    def cycle(self):
        """One pass over the grid set, one grid per call."""
        ops = []
        for i in range(len(self.grids)):
            x = self.grids.h_ls[i:i + 1]
            with self.tracer.span("bench.op.infer"):
                t0 = time.perf_counter()
                out = self.est(x)
                t = time.perf_counter() - t0
            self.outputs[i] = out[0]
            ok = self.check("batch1_matches_batched", rel_err(out[0], self.reference[i]) <= 1e-5)
            ops.append(Op("infer", 1, t, ok))
        return ops

    def finish(self):
        self.nmse = evaluate.nmse(self.grids.h_true, self.outputs)
        results = [self.check("nmse_finite_positive", finite_positive([self.nmse]))]
        batched = evaluate.nmse(self.grids.h_true, self.reference)
        for scheme, extra in (("model", ("--checkpoint", self.ckpt)), ("ls", ())):
            out = os.path.join(self.work, f"eval-{scheme}")
            code, _ = self.cli("eval", "--scheme", scheme, *extra, "--profile", *PROFILES,
                               "--snr-list", TRAIN_SNR, "--mc", len(self.grids), "--out", out)
            values = report_nmse(os.path.join(out, "report.csv")) if code == 0 else []
            if scheme == "model":
                results.append(self.check("set_is_library_test_set",
                                          len(values) == 1 and abs(values[0] - batched) <= 1e-6 * batched))
            else:
                results.append(self.check("nmse_finite_positive", finite_positive(values)))
                self.baseline_ls = values[0] if values else float("nan")
        return results


WORKLOADS = {w.name: w for w in (Train, Eval, Infer)}
