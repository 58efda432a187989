"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces functions of the ncgc modules with timing
wrappers, including the names that ``ncgc.trainer``, ``ncgc.clustering`` and
``ncgc.cli`` bind with ``from ... import``. Each wrapper opens a span; a
span's self time is its duration minus the time of the spans it encloses, so
the self times of all spans inside ``trainer.train`` plus the trainer's own
remainder add up to the train wall time. Backward time is attributed to the
primitive that recorded each tape node: forward wrappers tag the nodes they
append, and the ``backward`` wrapper wraps every node's VJP before the sweep.

Totals are kept in memory and returned by ``Tracer.summary`` at the end of
the process. Nothing here changes a value the program computes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# numerics primitives, grouped as the per-layer metrics report them
PRIMITIVE_GROUPS = {
    "matmul": ("matmul",),
    "transpose": ("transpose",),
    "column_l2_normalize": ("column_l2_normalize",),
    "sparse_matmul_dense": ("sparse_dense_matmul",),
    "elementwise": ("add", "sub", "scale", "relu", "mul", "add_bias", "dropout"),
    "softmax": ("softmax_rows", "log_softmax_rows", "log_elementwise", "take_rows"),
    "other": ("add_scalar", "pairwise_sqdist", "reciprocal", "row_normalize",
              "sum_all", "frobenius_sq_diff"),
}

_TRACER_BUCKET = "bench.tracer"


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)    # bucket -> self time
        self.incl_s = defaultdict(float)    # bucket -> inclusive time
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)    # computed quantities (flops, bytes, nodes)
        self.train_calls = []               # per trainer.train call: epochs, phase times
        self._stack = []                    # child-time accumulators of the open spans
        self._node_bucket = {}              # id(tape node) -> primitive bucket
        self._phase = None
        self._nm = None

    # -- span bookkeeping -------------------------------------------------

    def _charge_tracer(self, dt: float) -> None:
        self.self_s[_TRACER_BUCKET] += dt
        if self._stack:
            self._stack[-1][0] += dt

    def timed(self, bucket: str, fn, on_enter=None, on_exit=None):
        """Wrap ``fn`` in a span charged to ``bucket`` (optionally chosen per call)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = bucket(args, kwargs) if callable(bucket) else bucket
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            if on_enter is not None:
                on_enter(t0, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dt = t1 - t0
                self.self_s[name] += dt - frame[0]
                self.incl_s[name] += dt
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if on_exit is not None:
                on_exit(t1, args, out)
            return out

        return wrapper

    def _primitive(self, name: str, fn):
        """Span for a numerics primitive that also tags the tape nodes it records."""
        bucket = "nm." + name
        nm = self._nm
        timed = self.timed(bucket, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = nm._ACTIVE_TAPE
            before = len(tape.nodes) if tape is not None else 0
            out = timed(*args, **kwargs)
            t0 = time.perf_counter()
            recorded = tape.nodes[before:] if tape is not None else ()
            for node in recorded:
                self._node_bucket.setdefault(id(node), bucket)
            if name == "matmul":
                a, b = args  # model and trainer pass both operands positionally
                flop = 2.0 * a.shape[0] * a.shape[1] * b.shape[1]
                self.counts["matmul_fwd_flop"] += flop
                if recorded:
                    self.counts["matmul_bwd_flop"] += flop * sum(
                        isinstance(x, nm.Tensor) for x in (a, b))
            self._charge_tracer(time.perf_counter() - t0)
            return out

        return wrapper

    def _backward(self, fn):
        timed = self.timed("nm.backward", fn)

        @functools.wraps(fn)
        def wrapper(tape, loss):
            t0 = time.perf_counter()
            self.counts["tape_nodes"] = max(self.counts["tape_nodes"], len(tape.nodes))
            self.counts["tape_bytes"] = max(self.counts["tape_bytes"], _tape_bytes(tape))
            for node in tape.nodes:
                bucket = self._node_bucket.get(id(node), "nm.untagged")
                node.vjp = self.timed(bucket + ":bwd", node.vjp)
            self._node_bucket.clear()
            self._charge_tracer(time.perf_counter() - t0)
            return timed(tape, loss)

        return wrapper

    # -- trainer phases ---------------------------------------------------

    def _train_enter(self, t, args, kwargs):
        self._phase = {"step": 0.0, "eval": 0.0, "step_start": None, "step_end": None}

    def _train_exit(self, t, args, out):
        ph = self._phase
        self.train_calls.append({"epochs": len(out[2].epochs), "step": ph["step"],
                                 "eval": ph["eval"]})
        self._phase = None

    def _forward_enter(self, t, args, kwargs):
        ph = self._phase
        if ph is not None and _is_training(args, kwargs):
            ph["step_start"] = t

    def _adam_exit(self, t, args, out):
        ph = self._phase
        if ph is not None and ph["step_start"] is not None:
            ph["step"] += t - ph["step_start"]
            ph["step_start"], ph["step_end"] = None, t

    def _record_epoch(self, cls):
        """Wrap the EpochRecord constructor: building the record ends the eval phase."""

        def wrapper(*args, **kwargs):
            ph = self._phase
            if ph is not None and ph["step_end"] is not None:
                ph["eval"] += time.perf_counter() - ph["step_end"]
                ph["step_end"] = None
            return cls(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from ncgc import cli, clustering, model, numerics, sparse, trainer

        self._nm = numerics
        for names in PRIMITIVE_GROUPS.values():
            for name in names:
                setattr(numerics, name, self._primitive(name, getattr(numerics, name)))
        numerics.backward = self._backward(numerics.backward)
        numerics.adam_step = self.timed("nm.adam_step", numerics.adam_step,
                                        on_exit=self._adam_exit)
        sparse.CsrMatrix.transpose = self.timed("sparse.transpose",
                                                sparse.CsrMatrix.transpose)

        forward = self.timed(
            lambda a, kw: "model.forward_train" if _is_training(a, kw) else "model.forward_eval",
            model.forward, on_enter=self._forward_enter)
        model.forward = trainer.forward = cli.forward = forward
        model.input_transform = self.timed("model.input_transform", model.input_transform)
        trainer.soc_penalty = self.timed("model.soc_penalty", trainer.soc_penalty)

        for mod, name, bucket in (
            (cli, "load_dataset", "graph.load_dataset"),
            (trainer, "normalized_adjacency", "graph.normalized_adjacency"),
            (cli, "normalized_adjacency", "graph.normalized_adjacency"),
            (trainer, "make_split", "graph.make_split"),
            (trainer, "sinkhorn_pseudo_labels", "clustering.sinkhorn"),
            (trainer, "soft_assign", "clustering.soft_assign"),
            (trainer, "kl_loss", "clustering.kl_loss"),
            (trainer, "pseudo_label_loss", "clustering.pseudo_label_loss"),
            (trainer, "target_distribution", "clustering.target_distribution"),
            (trainer, "init_centroids", "clustering.init_centroids"),
            (clustering, "kmeans_pp_init", "spectral.kmeans_pp_init"),
            (clustering, "lloyd", "spectral.lloyd"),
            (cli, "_json_dump", "cli.write_artifacts"),
            (cli, "_write_epochs_csv", "cli.write_artifacts"),
            (cli, "save_checkpoint", "cli.write_artifacts"),
            (cli, "write_split", "cli.write_artifacts"),
        ):
            setattr(mod, name, self.timed(bucket, getattr(mod, name)))
        trainer.EpochRecord = self._record_epoch(trainer.EpochRecord)
        trainer.train = self.timed("trainer.train", trainer.train,
                                   on_enter=self._train_enter, on_exit=self._train_exit)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "train_calls": self.train_calls}


def _is_training(args, kwargs) -> bool:
    return bool(kwargs["training"] if "training" in kwargs else args[5])


def _tape_bytes(tape) -> int:
    """Bytes of the arrays the tape keeps alive: outputs, inputs, saved values."""
    seen, total = set(), 0
    for node in tape.nodes:
        held = [node.out, *node.inputs]
        held += [c.cell_contents for c in (node.vjp.__closure__ or ())]
        for obj in held:
            arr = getattr(obj, "value", obj)
            if isinstance(arr, np.ndarray) and id(arr) not in seen:
                seen.add(id(arr))
                total += arr.nbytes
    return total
