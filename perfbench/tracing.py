"""Spans around chansr's public functions, recorded from outside the package.

``Tracer.install()`` rebinds every public function of the nine layer modules
(and ``optim.Adam.step``) to a wrapper that records one span per call: name,
start, end and parent span. The rebinding is done in every ``chansr`` module
namespace that holds the function, so calls made through ``from .x import f``
imports are caught as well. ``uninstall()`` puts the original objects back.
Untraced runs never install it, so they run the unmodified program.

Spans are appended to flat arrays in start order and kept in memory until the
run ends, when ``save`` writes them out with the run id.
"""

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("channel", "dataset", "kernels", "autodiff", "model", "optim", "training", "evaluate", "cli")

# accessors and context managers that do no work of their own
_SKIP = {"autodiff.set_default_dtype", "autodiff.default_dtype", "autodiff.set_check_finite",
         "autodiff.no_grad", "kernels.backend_name", "kernels.warmup"}

# factories whose returned closure does the work; the closure gets its own span
_FACTORIES = {"evaluate.model_estimator", "evaluate.ls_bilinear_estimator"}


def kernel_labels():
    """Weight shape -> layer label, from the model's own parameter registry."""
    from chansr.model import PARAM_SPECS
    return {shape: name[:-2] for name, shape in PARAM_SPECS if name.endswith("_w")}


def kernel_cost(fn_name, args, kwargs):
    """(direction, batch, FLOPs, bytes moved) of one kernel call, from its live shapes.

    FLOPs count a multiply-add as two. Bytes are every array read or written
    once, which is a lower bound on memory traffic.
    """
    x, w = args[0], args[1]
    B, item = x.shape[0], x.itemsize
    if fn_name.startswith("conv2d"):
        out = B * w.shape[0] * x.shape[2] * x.shape[3]
        mac = out * w.shape[1] * w.shape[2] * w.shape[3]
    else:
        (s_h, s_w), (k_h, k_w) = args[3], w.shape[2:]
        out = B * w.shape[1] * ((x.shape[2] - 1) * s_h + k_h) * ((x.shape[3] - 1) * s_w + k_w)
        mac = x.size * w.shape[1] * w.shape[2] * w.shape[3]
    if fn_name.endswith("_forward"):
        return "fwd", B, 2 * mac, (x.size + w.size + out) * item
    need_dx = kwargs.get("need_dx", True)  # autodiff passes it by keyword
    # dw always; dx when the input needs a gradient; dy read once, dx written once
    flop = 2 * mac * (2 if need_dx else 1)
    moved = (x.size + w.size + out + w.size + (x.size if need_dx else 0)) * item
    return "bwd", B, flop, moved


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.kernel_cost = {}  # span name -> (FLOPs, bytes) per call
        self.draws = []  # (span index, (seed, profile, domain, index)) per sample stream opened
        self._stack = [-1]
        self._patches = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self) -> int:
        idx = len(self.start)
        self.name.append(-1)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self.name[idx] = nid
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self.intern(name)
        idx = self._open()
        try:
            yield
        finally:
            self._close(idx, nid)

    def wrap(self, fn, name: str, namer=None, factory=False):
        nid = self.intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx, nid)
                raise
            close(idx, namer(args, kwargs, result) if namer else nid)
            return self.wrap(result, name + ".estimate") if factory else result

        return traced

    def _kernel_namer(self, fn_name, labels):
        def namer(args, kwargs, _result):
            direction, batch, flop, moved = kernel_cost(fn_name, args, kwargs)
            label = labels.get(tuple(args[1].shape), "other")
            nid = self.intern(f"kernels.{label}.{direction}@{batch}")
            self.kernel_cost.setdefault(self.names[nid], (flop, moved))
            return nid
        return namer

    def _forward_namer(self, args, _kwargs, result):
        x = args[0].data
        batch = x.shape[0] if x.ndim == 4 else 1
        mode = "forward" if result.requires_grad else "forward_nograd"
        return self.intern(f"model.{mode}@{batch}")

    def _draw_namer(self, args, kwargs, _result):
        # a namer runs before its span closes, so the span is still on top of the stack
        self.draws.append((self._stack[-1], tuple(args) + tuple(sorted(kwargs.items()))))
        return self.intern("dataset.sample_rng")

    def install(self) -> None:
        """Rebind the public functions of every layer module to traced wrappers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        labels = kernel_labels()
        swap = {}
        for layer in LAYERS:
            mod = sys.modules[f"chansr.{layer}"]
            for attr, obj in vars(mod).items():
                qual = f"{layer}.{attr}"
                if (attr.startswith("_") or qual in _SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                namer = None
                if layer == "kernels":
                    namer = self._kernel_namer(attr, labels)
                elif qual == "model.forward":
                    namer = self._forward_namer
                elif qual == "dataset.sample_rng":
                    namer = self._draw_namer
                swap[id(obj)] = (obj, self.wrap(obj, qual, namer, factory=qual in _FACTORIES))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "chansr" and not mod_name.startswith("chansr."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        adam = sys.modules["chansr.optim"].Adam
        self._patches.append((adam, "step", adam.step))
        adam.step = self.wrap(adam.step, "optim.Adam.step")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def arrays(self):
        """Spans as numpy arrays (name id, start, end, parent index); call with no span open."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        return (np.array(self.name, np.int32), np.array(self.start), np.array(self.end),
                np.array(self.parent, np.int32))

    def save(self, path: str) -> None:
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, run_id=np.array(self.run_id), names=np.array(self.names),
                            name=name, start=start, end=end, parent=parent)


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one empty context."""

    def span(self, _name):
        return contextlib.nullcontext()
