"""In-memory span tracing installed from outside the eigenscore package.

The package itself carries no instrumentation.  `Tracer.install` swaps the
public functions the layers call each other through (module attributes and
class methods) for wrappers that record one span per call: name, start,
end, parent span, request id and, for a few spans, a small payload such as
row counts.  `Tracer.uninstall` puts the originals back.  Spans stay in
memory until `write_spans` is called at the end of a run.

A layer is the eigenscore module a span's function belongs to: pipeline,
spectral, linalg, rng, gmm, mlp, evaluate, cli, config or tensorio.  Spans
recorded by the benchmark itself are in the "bench" layer.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time

LAYERS = (
    "pipeline", "spectral", "linalg", "rng", "gmm",
    "mlp", "evaluate", "cli", "config", "tensorio",
)

# Span tuple fields.
SID, NAME, START, END, PARENT, REQUEST, CPU, INFO = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = 0
        # Pool threads start with an empty stack; they attach to the span
        # that handed them work (extract_features) through this slot.
        self.ambient_parent = 0
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None, cpu=False, ambient=False):
        """fn wrapped so each call records a span called `name`.

        info(args, kwargs, result) returns the span's payload; cpu also
        records the calling thread's CPU time inside the span; ambient
        makes the span the parent of spans opened by pool threads.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.ambient_parent
            sid = next(tracer._ids)
            stack.append(sid)
            saved = tracer.ambient_parent
            if ambient:
                tracer.ambient_parent = sid
            c0 = time.thread_time_ns() if cpu else 0
            t0 = time.perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                c1 = time.thread_time_ns() - c0 if cpu else 0
                stack.pop()
                if ambient:
                    tracer.ambient_parent = saved
                payload = info(args, kwargs, result) if ok and info is not None else None
                tracer.spans.append((sid, name, t0, t1, parent, tracer.request, c1, payload))

        return traced

    @contextlib.contextmanager
    def request_span(self, name):
        """One benchmark request as a root span with a fresh request id."""
        self.request = next(self._requests)
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, t0, t1, 0, self.request, 0, None))
            self.request = 0

    # -- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        """Replace each (owner, attribute) of `targets()` by its traced wrapper."""
        for owner, attr, name, kwargs in targets:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, **kwargs))
            else:
                wrapped = self.wrap(name, original, **kwargs)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,request,cpu_ns\n")
            for s in self.spans:
                fh.write(f"{s[SID]},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[REQUEST]},{s[CPU]}\n")


def targets():
    """(owner, attribute, span name, wrap options) for every traced call.

    Names imported with `from .x import f` are patched in the importing
    module, since that binding is the one the caller looks up.
    """
    from eigenscore import cli, config, evaluate, gmm, mlp, pipeline, rng, spectral, tensorio

    def rows(args, kwargs, result):
        return result.shape[0] if result.ndim > 1 else 1

    def spectral_rows(args, kwargs, result):
        cfg = args[3] if len(args) > 3 else kwargs["config"]
        outs = result if isinstance(result, list) else [result]
        done = [r for r in outs if isinstance(r, spectral.SpectralResult)]
        return (
            len(outs),
            sum(r.n_iters for r in done),
            sum(r.n_evals for r in done),
            sum(1 for r in done if r.n_iters < cfg.n_iters),
        )

    def threads(args, kwargs, result):
        return kwargs.get("threads", args[5] if len(args) > 5 else 1)

    def train_steps(args, kwargs, result):
        return len(result)

    def read_bytes(args, kwargs, result):
        return os.path.getsize(args[0] if args else kwargs["path"])

    def write_bytes(args, kwargs, result):
        return len(args[1] if len(args) > 1 else kwargs["data"])

    t = []

    def add(owner, attr, name, **kw):
        t.append((owner, attr, name, kw))

    # pipeline
    add(pipeline, "eigen_feature", "pipeline.eigen_feature", cpu=True)
    add(cli, "extract_features", "pipeline.extract_features", ambient=True, info=threads)
    for owner in (pipeline, cli):
        add(owner, "fit_calibration", "pipeline.fit_calibration")
        add(owner, "eigen_score", "pipeline.eigen_score")
    # spectral: the batch probe, and the single-row path used for retries
    add(pipeline, "subspace_iteration_batch", "spectral.subspace_iteration_batch", info=spectral_rows)
    add(pipeline, "subspace_iteration", "spectral.subspace_iteration", info=spectral_rows)
    # linalg
    add(spectral, "qr_orthonormalize", "linalg.qr_orthonormalize")
    add(spectral, "sym_eig", "linalg.sym_eig")
    add(gmm, "sym_eig", "linalg.sym_eig")
    # rng
    add(pipeline, "gaussian_vec", "rng.gaussian_vec")
    add(spectral, "gaussian_vec", "rng.gaussian_vec")
    add(rng.RngStream, "generator", "rng.generator")
    # denoisers
    add(gmm.GaussianMixture, "denoise", "gmm.denoise", info=rows)
    add(gmm.GaussianMixture, "sample", "gmm.sample")
    add(mlp.MlpDenoiser, "denoise", "mlp.denoise", info=rows)
    add(mlp.MlpDenoiser, "loss_and_grads", "mlp.loss_and_grads")
    add(mlp.MlpDenoiser, "train", "mlp.train", info=train_steps)
    add(mlp.MlpDenoiser, "save", "mlp.save")
    add(mlp.MlpDenoiser, "load", "mlp.load")
    # evaluate
    add(cli, "auroc", "evaluate.auroc")
    add(evaluate, "auroc", "evaluate.auroc")
    # cli subcommands (build_parser looks them up at call time)
    for sub in ("gen_data", "train", "fit", "score", "eval"):
        add(cli, f"cmd_{sub}", f"cli.{sub}")
    # config
    add(config, "load_config", "config.load")
    add(config, "load_calibration_doc", "config.load")
    # tensorio: every write funnels through atomic_write_bytes
    add(cli, "read_tensor", "tensorio.read_tensor", info=read_bytes)
    add(tensorio, "read_tensor", "tensorio.read_tensor", info=read_bytes)
    add(cli, "write_tensor", "tensorio.write_tensor")
    add(tensorio, "write_tensor", "tensorio.write_tensor")
    add(cli, "atomic_write_text", "tensorio.atomic_write_text")
    add(tensorio, "atomic_write_bytes", "tensorio.atomic_write_bytes", info=write_bytes)
    return t


# -- per-layer metrics from spans ------------------------------------------


def _union_ns(intervals, lo, hi) -> int:
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, gmm_flops_per_row: float, mlp_flops_per_row: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from a list of spans.

    Self time is a span's duration minus the union of its children's
    intervals, so children running in parallel pool threads are not
    subtracted twice.  Inclusive time of a function or layer counts only
    spans whose parent is another function or layer, so recursion through
    the same layer is not counted twice.
    """
    by_id = {s[SID]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))

    count: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    layer_ns: dict[str, int] = {}
    payload: dict[str, list] = {}
    for s in spans:
        name, dur = s[NAME], s[END] - s[START]
        layer = layer_of(name)
        kids = children.get(s[SID])
        own = dur - _union_ns(kids, s[START], s[END]) if kids else dur
        parent = by_id.get(s[PARENT])
        parent_name = parent[NAME] if parent is not None else ""
        count[name] = count.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        if parent_name != name:
            incl_ns[name] = incl_ns.get(name, 0) + dur
        if layer_of(parent_name) != layer:
            layer_ns[layer] = layer_ns.get(layer, 0) + dur
        if s[INFO] is not None:
            payload.setdefault(name, []).append(s[INFO])

    def n(name):
        return count.get(name, 0)

    def incl(name):
        return incl_ns.get(name, 0) / 1e9

    def total(name):
        return sum(payload.get(name, ()))

    m: dict[str, tuple] = {}
    for layer in LAYERS:
        own = sum(v for k, v in self_ns.items() if layer_of(k) == layer)
        m[f"{layer}.self_s"] = (own / 1e9, "s")

    # spectral rows carry (rows, iterations, evaluations, early stops)
    batch_ids = {s[SID] for s in spans if s[NAME] == "spectral.subspace_iteration_batch"}
    sweeps = sum(
        1 for s in spans
        if s[NAME] in ("gmm.denoise", "mlp.denoise") and s[PARENT] in batch_ids
    )
    rows = [0, 0, 0, 0]
    for name in ("spectral.subspace_iteration_batch", "spectral.subspace_iteration"):
        for info in payload.get(name, ()):
            rows = [a + b for a, b in zip(rows, info)]
    n_rows = max(rows[0], 1)
    m["spectral.sweeps_per_batch"] = (sweeps / max(len(batch_ids), 1), "count")
    m["spectral.iters_per_row"] = (rows[1] / n_rows, "count")
    m["spectral.evals_per_row"] = (rows[2] / n_rows, "count")
    m["spectral.early_stop_share"] = (rows[3] / n_rows, "ratio")

    m["linalg.qr.calls"] = (n("linalg.qr_orthonormalize"), "count")
    m["linalg.qr.s"] = (incl("linalg.qr_orthonormalize"), "s")
    m["rng.generators"] = (n("rng.generator"), "count")
    m["rng.s"] = (layer_ns.get("rng", 0) / 1e9, "s")

    gmm_rows = total("gmm.denoise")
    m["gmm.denoise.calls"] = (n("gmm.denoise"), "count")
    m["gmm.denoise.rows"] = (gmm_rows, "count")
    m["gmm.rows_per_call"] = (gmm_rows / max(n("gmm.denoise"), 1), "count")
    m["gmm.denoise.s"] = (incl("gmm.denoise"), "s")
    m["gmm.denoise.flops_computed"] = (gmm_rows * gmm_flops_per_row, "flop")

    # busy share: CPU time inside eigen_feature over threads x wall time of
    # the calls that ran it; a sample scored outside a pool is one thread
    feats = [s for s in spans if s[NAME] == "pipeline.eigen_feature"]
    pools = {s[SID]: s for s in spans if s[NAME] == "pipeline.extract_features"}
    capacity = sum((s[END] - s[START]) * max(int(s[INFO]), 1) for s in pools.values())
    capacity += sum(s[END] - s[START] for s in feats if s[PARENT] not in pools)
    m["pipeline.eigen_feature.s"] = (incl("pipeline.eigen_feature"), "s")
    # the single-row probe runs only to retry a rank-deficient repetition;
    # a retry that raises leaves no payload and is imputed with the median
    m["pipeline.retries"] = (n("spectral.subspace_iteration"), "count")
    m["pipeline.imputed_reps"] = (
        n("spectral.subspace_iteration") - len(payload.get("spectral.subspace_iteration", ())),
        "count",
    )
    m["pipeline.pool_busy_share"] = (sum(s[CPU] for s in feats) / max(capacity, 1), "ratio")

    mlp_rows = total("mlp.denoise")
    m["mlp.denoise.calls"] = (n("mlp.denoise"), "count")
    m["mlp.denoise.rows"] = (mlp_rows, "count")
    m["mlp.denoise.s"] = (incl("mlp.denoise"), "s")
    m["mlp.forward.flops_computed"] = (mlp_rows * mlp_flops_per_row, "flop")
    m["mlp.loss_and_grads.s"] = (incl("mlp.loss_and_grads"), "s")
    # the Adam update loop is what train spends outside its child spans
    m["mlp.adam_s"] = (self_ns.get("mlp.train", 0) / 1e9, "s")
    train_s = incl("mlp.train")
    m["mlp.train_steps_per_s"] = (total("mlp.train") / train_s if train_s else 0.0, "1/s")

    for sub in ("gen_data", "train", "fit", "score", "eval"):
        m[f"cli.{sub}.s"] = (incl(f"cli.{sub}"), "s")
    m["config.load.s"] = (incl("config.load"), "s")
    m["tensorio.read.s"] = (incl("tensorio.read_tensor"), "s")
    m["tensorio.write.s"] = (layer_ns.get("tensorio", 0) / 1e9 - incl("tensorio.read_tensor"), "s")
    m["tensorio.bytes"] = (total("tensorio.read_tensor") + total("tensorio.atomic_write_bytes"), "byte")
    m["evaluate.auroc.s"] = (incl("evaluate.auroc"), "s")
    return m
