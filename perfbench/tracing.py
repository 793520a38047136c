"""Per-layer tracing of pirings from outside the package.

`Tracer.install` replaces each traced function of the package with a
timing wrapper.  Package modules bind names with `from .x import y`, so
the wrapper is put in place of every module attribute that is the
original function object, not only in its home module.  Spans (name,
start, end, parent, thread, job) stay in memory; `layer_metrics` turns
them into the per-layer figures.  A span's self time is its duration
minus the union of its child spans; children on the same thread nest,
while the kernel blocks of a threaded `run_blocks` overlap, so its self
time is fold and pool overhead only.

A target that no longer exists is skipped: its metrics are reported as
absent (value 0) and listed, and the run goes on.
"""

from collections import defaultdict
import functools
import inspect
import itertools
import sys
import threading
import time

# (module, attribute): span name
TARGETS = {
    ("exact", "bareiss_det"): "exact.bareiss_det",
    ("exact", "bareiss_solve"): "exact.bareiss_solve",
    ("exterior", "wedge_norm"): "exterior.wedge_norm",
    ("exterior", "wedge_inner"): "exterior.wedge_inner",
    ("exterior", "expand"): "exterior.expand",
    ("zonoid", "wedge"): "zonoid.wedge",
    ("zonoid", "length"): "zonoid.length",
    ("zonoid", "pairing"): "zonoid.pairing",
    ("zonoid", "mixed_volume"): "zonoid.mixed_volume",
    ("zonoid", "crofton_evaluate"): "zonoid.crofton_evaluate",
    ("zonoid", "from_json"): "zonoid.from_json",
    ("cpn_ring", "reduce_monomial"): "cpn_ring.reduce_monomial",
    ("cpn_ring", "multiply"): "cpn_ring.multiply",
    ("cpn_ring", "relations"): "cpn_ring.relations",
    ("cpn_ring", "self_intersection_via_ring"):
        "cpn_ring.self_intersection_via_ring",
    ("cpn_ring", "mc_tasaki_kernel_d2"): "cpn_ring.mc_tasaki_kernel_d2",
    ("sampling", "haar_orthogonal"): "sampling.haar_orthogonal",
    ("sampling", "haar_unitary_realified"): "sampling.haar_unitary_realified",
    ("sampling", "run_blocks"): "sampling.run_blocks",
    ("sampling", "mc_wedge_length"): "sampling.mc_wedge_length",
    ("schubert", "mc_schubert_shape"): "schubert.mc_schubert_shape",
    ("schubert", "edeg22_calibrated"): "schubert.edeg22_calibrated",
    ("sphere_ring", "ball_wedge_length"): "sphere_ring.ball_wedge_length",
    ("cli", "_emit"): "cli.emit",
}
# spans that come from something other than a module function
DRAW, BLOCK, DISPATCH, MAIN = ("sampling.draw", "sampling.block",
                               "cli.dispatch", "cli.main")

# name, unit, better, source span, what it should move
LAYER_METRICS = [
    ("exact.bareiss_det.calls", "count", "lower", "exact.bareiss_det",
     "wall_s on ring (Hankel solves) and zonoid (small determinants); not mc"),
    ("exact.bareiss_det.self_s", "s", "lower", "exact.bareiss_det",
     "wall_s on ring and zonoid; not mc"),
    ("exact.bareiss_det.order_mean", "rows", "lower", "exact.bareiss_det",
     "wall_s on ring and zonoid; not mc"),
    ("exact.bareiss_solve.calls", "count", "lower", "exact.bareiss_solve",
     "wall_s on ring"),
    ("exact.bareiss_solve.self_s", "s", "lower", "exact.bareiss_solve",
     "wall_s on ring"),
    ("exterior.wedge_norm.calls", "count", "lower", "exterior.wedge_norm",
     "wall_s on zonoid"),
    ("exterior.wedge_norm.self_s", "s", "lower", "exterior.wedge_norm",
     "wall_s on zonoid"),
    ("exterior.wedge_inner.calls", "count", "lower", "exterior.wedge_inner",
     "wall_s on zonoid"),
    ("exterior.wedge_inner.self_s", "s", "lower", "exterior.wedge_inner",
     "wall_s on zonoid"),
    ("exterior.expand.calls", "count", "lower", "exterior.expand",
     "wall_s on zonoid"),
    ("exterior.expand.self_s", "s", "lower", "exterior.expand",
     "wall_s on zonoid"),
    ("zonoid.wedge.calls", "count", "lower", "zonoid.wedge",
     "wall_s and peak_rss_mb on zonoid"),
    ("zonoid.wedge.self_s", "s", "lower", "zonoid.wedge",
     "wall_s and peak_rss_mb on zonoid"),
    ("zonoid.wedge.products_tried", "count", "lower", "zonoid.wedge",
     "wall_s on zonoid (one wedge_norm test per ordered product)"),
    ("zonoid.wedge.atoms_kept", "count", "lower", "zonoid.wedge",
     "wall_s and peak_rss_mb on zonoid"),
    ("zonoid.wedge.kept_ratio", "ratio", "higher", "zonoid.wedge",
     "wall_s on zonoid (atoms kept / products tried)"),
    ("zonoid.length.self_s", "s", "lower", "zonoid.length",
     "wall_s on zonoid"),
    ("zonoid.pairing.self_s", "s", "lower", "zonoid.pairing",
     "wall_s on zonoid (crofton jobs)"),
    ("zonoid.mixed_volume.self_s", "s", "lower", "zonoid.mixed_volume",
     "wall_s on zonoid"),
    ("zonoid.crofton_evaluate.self_s", "s", "lower", "zonoid.crofton_evaluate",
     "wall_s on zonoid"),
    ("zonoid.from_json.self_s", "s", "lower", "zonoid.from_json",
     "wall_s on zonoid (mainly the many-atom length job)"),
    ("zonoid.from_json.atoms", "count", "lower", "zonoid.from_json",
     "wall_s and peak_rss_mb on zonoid"),
    ("cpn_ring.reduce_monomial.calls", "count", "lower",
     "cpn_ring.reduce_monomial", "wall_s on ring"),
    ("cpn_ring.reduce_monomial.distinct", "count", "lower",
     "cpn_ring.reduce_monomial", "wall_s on ring (distinct arguments per job)"),
    ("cpn_ring.reduce_monomial.distinct_ratio", "ratio", "higher",
     "cpn_ring.reduce_monomial", "wall_s on ring (distinct / calls)"),
    ("cpn_ring.reduce_monomial.self_s", "s", "lower",
     "cpn_ring.reduce_monomial", "wall_s on ring"),
    ("cpn_ring.multiply.calls", "count", "lower", "cpn_ring.multiply",
     "wall_s on ring"),
    ("cpn_ring.multiply.self_s", "s", "lower", "cpn_ring.multiply",
     "wall_s on ring"),
    ("cpn_ring.relations.self_s", "s", "lower", "cpn_ring.relations",
     "wall_s on ring"),
    ("cpn_ring.self_intersection_via_ring.self_s", "s", "lower",
     "cpn_ring.self_intersection_via_ring", "wall_s on ring"),
    ("cpn_ring.mc_tasaki_kernel_d2.self_s", "s", "lower",
     "cpn_ring.mc_tasaki_kernel_d2", "wall_s on mc"),
    ("sampling.haar_orthogonal.matrices", "count", "lower",
     "sampling.haar_orthogonal",
     "wall_s, mc_samples_per_s, mc_time_to_rse_1e-3_s on mc"),
    ("sampling.haar_orthogonal.self_s", "s", "lower", "sampling.haar_orthogonal",
     "wall_s, mc_samples_per_s, mc_time_to_rse_1e-3_s on mc"),
    ("sampling.haar_unitary_realified.matrices", "count", "lower",
     "sampling.haar_unitary_realified",
     "wall_s, mc_samples_per_s, mc_time_to_rse_1e-3_s on mc"),
    ("sampling.haar_unitary_realified.self_s", "s", "lower",
     "sampling.haar_unitary_realified",
     "wall_s, mc_samples_per_s, mc_time_to_rse_1e-3_s on mc"),
    ("sampling.draw.self_s", "s", "lower", DRAW,
     "wall_s, mc_samples_per_s, mc_time_to_rse_1e-3_s on mc"),
    ("sampling.block.calls", "count", "lower", BLOCK,
     "wall_s, mc_samples_per_s on mc"),
    ("sampling.block.self_s", "s", "lower", BLOCK,
     "wall_s, mc_samples_per_s, mc_time_to_rse_1e-3_s on mc; cpu_s on --workers 2"),
    ("sampling.run_blocks.self_s", "s", "lower", "sampling.run_blocks",
     "wall_s on mc; cpu_s on --workers 2 jobs"),
    ("sampling.run_blocks.samples", "count", "higher", "sampling.run_blocks",
     "mc_samples_per_s on mc"),
    ("sampling.run_blocks.worker_busy_ratio", "ratio", "higher",
     "sampling.run_blocks", "wall_s on mc --workers 2 jobs"),
    ("sampling.mc_wedge_length.self_s", "s", "lower", "sampling.mc_wedge_length",
     "wall_s on mc"),
    ("schubert.mc_schubert_shape.self_s", "s", "lower",
     "schubert.mc_schubert_shape", "wall_s on mc"),
    ("schubert.edeg22_calibrated.self_s", "s", "lower",
     "schubert.edeg22_calibrated", "wall_s on mc"),
    ("sphere_ring.ball_wedge_length.self_s", "s", "lower",
     "sphere_ring.ball_wedge_length", "wall_s on mc (ball-mc job)"),
    ("cli.parse_s", "s", "lower", MAIN, "wall_s on the small ring jobs"),
    ("cli.dispatch_s", "s", "lower", DISPATCH, "wall_s on the small ring jobs"),
    ("cli.emit_s", "s", "lower", "cli.emit", "wall_s on the small ring jobs"),
]
# filled in by the replay, not by layer_metrics
OVERHEAD_METRICS = [
    ("trace.traced_wall_s", "s", "lower", "in-process wall of the traced replay"),
    ("trace.untraced_wall_s", "s", "lower",
     "in-process wall of the same replay without wrappers"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall"),
]
PER_LAYER = ([(n, u, b) for n, u, b, _, _ in LAYER_METRICS]
             + [(n, u, b) for n, u, b, _ in OVERHEAD_METRICS])


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, job)
        self.job = None
        self.installed = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self.order = 0           # summed matrix order of bareiss_det calls
        self.matrices = defaultdict(int)
        self.atoms = defaultdict(int)
        self.samples = 0
        self.workers = {}        # run_blocks span id -> worker count
        self.reduce_args = set()

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, before=None):
        """Run fn(*args, **kwargs) inside a span; returns (span id, result)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        if before is not None:
            args, kwargs = before(sid, args, kwargs)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return sid, fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), self.job))

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, result = self.call(name, fn, args, kwargs, before=before)
            if after is not None:
                after(sid, args, kwargs, result)
            return result
        return traced

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, orig, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pirings"
                                   or mod_name.startswith("pirings.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self):
        import pirings.cli  # noqa: F401  (imports every traced module)
        for (mod_name, attr), name in TARGETS.items():
            mod = sys.modules.get(f"pirings.{mod_name}")
            orig = getattr(mod, attr, None)
            if not callable(orig):
                continue
            hooks = self._hooks(name, orig)
            self._replace_everywhere(orig, self.wrap(name, orig, *hooks))
            self.installed.add(name)
            if name == "sampling.run_blocks" and _has_param(orig, "block_fn"):
                self.installed.add(BLOCK)
        sampling = sys.modules.get("pirings.sampling")
        for cls_name, cls in vars(sampling or object).items():
            draw = vars(cls).get("draw") if isinstance(cls, type) else None
            if cls_name.endswith("Sampler") and callable(draw):
                self._patches.append((cls, "draw", draw))
                cls.draw = self.wrap(DRAW, draw)
                self.installed.add(DRAW)
        table = getattr(sys.modules["pirings.cli"], "DISPATCH", None)
        if isinstance(table, dict):
            for key, fn in list(table.items()):
                self._patches.append((table, key, fn))
                table[key] = self.wrap(DISPATCH, fn)
            self.installed.add(DISPATCH)
        self.installed.add(MAIN)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def _hooks(self, name, orig):
        """(before, after) callbacks that take the counters of a span."""
        try:
            sig = inspect.signature(orig)
        except (TypeError, ValueError):
            sig = None

        def arguments(args, kwargs):
            try:
                bound = sig.bind(*args, **kwargs)
            except (AttributeError, TypeError):
                return {}
            bound.apply_defaults()
            return bound.arguments

        def det_order(sid, args, kwargs, result):
            self.order += len(args[0] if args else kwargs.get("matrix", ()))

        def haar_matrices(sid, args, kwargs, result):
            size = arguments(args, kwargs).get("size")
            self.matrices[name] += 1 if size is None else int(size)

        def atoms(sid, args, kwargs, result):
            self.atoms[name] += len(getattr(result, "atoms", ()))

        def reduce_args(sid, args, kwargs, result):
            try:
                self.reduce_args.add((self.job, args, tuple(kwargs.items())))
            except TypeError:
                pass

        def wrap_block_fn(sid, args, kwargs):
            params = arguments(args, kwargs)
            block_fn = params.get("block_fn")
            if not callable(block_fn):
                return args, kwargs
            self.samples += int(params.get("samples") or 0)
            self.workers[sid] = max(int(params.get("workers") or 1), 1)

            def traced_block(*a, **k):
                return self.call(BLOCK, block_fn, a, k, parent=sid)[1]
            params["block_fn"] = traced_block
            return (), params

        if name == "sampling.run_blocks":
            return wrap_block_fn, None
        after = {"exact.bareiss_det": det_order,
                 "sampling.haar_orthogonal": haar_matrices,
                 "sampling.haar_unitary_realified": haar_matrices,
                 "zonoid.from_json": atoms,
                 "zonoid.wedge": atoms,
                 "cpn_ring.reduce_monomial": reduce_args}.get(name)
        return None, after

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self):
        """({metric: value}, [absent metrics]) over the spans recorded."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        busy = span_workers = 0.0
        tried = 0
        for sid, name, start, end, _, _, _ in self.spans:
            kids = children.get(sid, ())
            self_s[name] += end - start - _union(kids, start, end)
            calls[name] += 1
            if name == "sampling.run_blocks" and sid in self.workers:
                busy += sum(k[3] - k[2] for k in kids if k[1] == BLOCK)
                span_workers += self.workers[sid] * (end - start)
            if name == "zonoid.wedge":
                tried += sum(1 for k in kids if k[1] == "exterior.wedge_norm")
        det_calls = calls["exact.bareiss_det"]
        reduce_calls = calls["cpn_ring.reduce_monomial"]
        distinct = len(self.reduce_args)
        kept = self.atoms["zonoid.wedge"]
        values = {
            "exact.bareiss_det.order_mean": self.order / det_calls if det_calls else 0.0,
            "zonoid.wedge.products_tried": tried,
            "zonoid.wedge.atoms_kept": kept,
            "zonoid.wedge.kept_ratio": kept / tried if tried else 0.0,
            "zonoid.from_json.atoms": self.atoms["zonoid.from_json"],
            "cpn_ring.reduce_monomial.distinct": distinct,
            "cpn_ring.reduce_monomial.distinct_ratio":
                distinct / reduce_calls if reduce_calls else 0.0,
            "sampling.haar_orthogonal.matrices":
                self.matrices["sampling.haar_orthogonal"],
            "sampling.haar_unitary_realified.matrices":
                self.matrices["sampling.haar_unitary_realified"],
            "sampling.run_blocks.samples": self.samples,
            "sampling.run_blocks.worker_busy_ratio":
                busy / span_workers if span_workers else 0.0,
            "cli.parse_s": self_s[MAIN],
            "cli.dispatch_s": self_s[DISPATCH],
            "cli.emit_s": self_s["cli.emit"],
        }
        out, absent = {}, []
        for metric, _, _, source, _ in LAYER_METRICS:
            if source not in self.installed:
                absent.append(metric)
                out[metric] = 0
            elif metric in values:
                out[metric] = values[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls[source]
            else:
                out[metric] = self_s[source]
        return out, absent


def _has_param(fn, name):
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _union(spans, lo, hi):
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for _, _, start, end, _, _, _ in sorted(spans, key=lambda s: s[2]):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
