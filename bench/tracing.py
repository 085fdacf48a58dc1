"""Outside-in tracing: spans and counts around the program's public entry points.

The tracer wraps functions and methods of ``snodep`` at run time, records one
span per call (name, start, end, parent, the op or query it belongs to, and
the thread) and restores every original on exit. No file of the program
changes. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the union of its children's
intervals. Children may run on other threads (``compare`` cells), whose
spans take the benchmark region open at their start as parent.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import threading
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []                    # (id, parent, name, start, end, unit, thread)
        self.counts = collections.Counter()  # (region kind, counter) -> total
        self.unit = 0                      # id shared by the spans of one op or query
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._region = (0, None)           # (span id, kind) of the open benchmark region
        self._region_kinds = {}            # span id -> kind, for benchmark regions
        self._undo = []
        self._count_lock = threading.Lock()

    # ---- spans ----
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1][0] if stack else self._region[0]
            sid, unit = next(ids), self.unit
            stack.append((sid, name))
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans.append((sid, parent, name, start, end, unit,
                              threading.get_ident()))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def region(self, kind):
        """A benchmark region, ``setup``, ``op`` or ``query``, opened by the caller.

        Spans started inside it, on any thread, are attributed to its kind.
        """
        sid = next(self._ids)
        self._region_kinds[sid] = kind
        outer, self._region = self._region, (sid, kind)
        start = _perf()
        try:
            yield
        finally:
            self.spans.append((sid, outer[0], f"bench.{kind}", start, _perf(),
                               self.unit, threading.get_ident()))
            self._region = outer

    def count(self, counter, n=1):
        with self._count_lock:        # compare cells count from several threads
            self.counts[(self._region[1], counter)] += n

    def inside(self, name):
        """True when the calling thread is within a span called ``name``."""
        return any(n == name for _, n in self._stack())

    # ---- patching ----
    def patch(self, owner, attr, replacement):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- analysis ----
    def self_times(self):
        """{span id: self seconds} over every recorded span."""
        children = collections.defaultdict(list)
        for sid, parent, _n, start, end, _u, _t in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _p, _n, start, end, _u, _t in self.spans:
            covered, cur_s, cur_e = 0.0, None, None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[sid] = (end - start) - covered
        return out

    def totals(self):
        """{(region kind, span name): (self seconds, inclusive seconds, calls)}."""
        self_t = self.self_times()
        parent = {s[0]: s[1] for s in self.spans}
        kind_of = dict(self._region_kinds)

        def kind(sid):
            path = []
            while sid not in kind_of and sid in parent:
                path.append(sid)
                sid = parent[sid]
            k = kind_of.get(sid)
            for p in path:
                kind_of[p] = k
            return k

        out = collections.defaultdict(lambda: [0.0, 0.0, 0])
        for sid, _p, name, start, end, _u, _t in self.spans:
            if sid in self._region_kinds:
                continue
            acc = out[(kind(sid), name)]
            acc[0] += self_t[sid]
            acc[1] += end - start
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, unit, thread in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": unit,
                                     "thread": thread}) + "\n")


def instrument(tr):
    """Patch the layer entry points of ``snodep`` with spans and counters.

    A name a module imported from another (``training.backward``,
    ``cli.train``) is its own binding, so each binding a caller uses is
    patched. Undo with ``tr.restore()``.
    """
    from snodep import (cli, data, distributions, encoders, models, nn, ode, scfea,
                        tensor, training)

    def function(module, attr, name, also=()):
        wrapped = tr.wrap(name, getattr(module, attr))
        for owner in (module,) + tuple(also):
            tr.patch(owner, attr, wrapped)
        return wrapped

    def method(cls, attr, name):
        tr.patch(cls, attr, tr.wrap(name, cls.__dict__[attr]))

    # tensor: tape build (with its node count), backward walk, Adam
    from_output = tensor.GradientTape.__dict__["from_output"].__func__

    def counted_from_output(cls, out):
        tape = from_output(cls, out)
        tr.count("tensor.tape_nodes", len(tape.operations))
        if tr.inside("scfea.estimate_flux_balance"):
            tr.count("scfea.tape_nodes", len(tape.operations))
        return tape

    tr.patch(tensor.GradientTape, "from_output",
             classmethod(tr.wrap("tensor.tape_build", counted_from_output)))
    function(tensor, "backward", "tensor.backward", also=(training, scfea))
    method(tensor.Adam, "step", "tensor.adam_step")

    # nn
    method(nn.MLP, "__call__", "nn.mlp")
    function(nn, "lstm_cell", "nn.cell")
    function(nn, "gru_cell", "nn.cell")

    # ode, counting vector-field evaluations on the decoder and encoder paths
    integrate = function(ode, "integrate", "ode.integrate")
    integrate_path = function(ode, "integrate_path", "ode.integrate_path")

    def counting_field(f, name, counter):
        def field(t, y, ctx):
            tr.count("ode.nfe")
            tr.count(counter)
            return f(t, y, ctx)
        return tr.wrap(name, field)

    def decoder_path(f, y0, times, ctx, cfg):
        return integrate_path(counting_field(f, "models.decoder_field", "ode.decoder_nfe"),
                              y0, times, ctx, cfg)

    def encoder_integrate(f, y0, t0, t1, ctx, cfg):
        return integrate(counting_field(f, "models.encoder_field", "ode.encoder_nfe"),
                         y0, t0, t1, ctx, cfg)

    tr.patch(models, "integrate_path", decoder_path)
    tr.patch(encoders, "integrate", encoder_integrate)

    for attr in ("np_encode_batch", "lstm_encode_backward_batch",
                 "gru_ode_encode_batch", "latent_params"):
        function(encoders, attr, "encoders.encode")

    for attr in ("encode_batch", "decode_batch", "predict_batch"):
        method(models.ProcessModel, attr, f"models.{attr}")

    for cls in (distributions.PoissonD, distributions.DiagNormal, distributions.LogNormalD):
        method(cls, "log_prob", "distributions.log_prob")
    function(distributions, "kl_divergence", "distributions.kl_divergence",
             also=(training,))

    function(training, "train", "training.train", also=(cli,))
    function(training, "evaluate", "training.evaluate", also=(cli,))
    for attr in ("sample_batch", "elbo_loss", "predict_average_params", "test_mse"):
        function(training, attr, f"training.{attr}")

    function(scfea, "estimate_flux_balance", "scfea.estimate_flux_balance", also=(cli,))
    for attr in ("balance_loss", "flux_matrix", "compute_balance"):
        function(scfea, attr, f"scfea.{attr}")

    for attr in ("load_expression_csv", "save_timeseries_csv", "load_timeseries_csv",
                 "knockout_generate", "merge_configurations"):
        function(data, attr, f"data.{attr}")

    function(cli, "main", "cli.main")
    function(cli, "_compare_cell", "cli.compare_cell")


# Per-layer metrics: name -> (unit, better). Times are self times in ms per
# op unless the README notes otherwise; counts are per op.
LAYER_METRICS = {
    "tensor.tape_nodes": ("count", "lower"),
    "tensor.tape_build_ms": ("ms", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.adam_ms": ("ms", "lower"),
    "ode.nfe": ("count", "lower"),
    "ode.integrate_ms": ("ms", "lower"),
    "nn.mlp_ms": ("ms", "lower"),
    "nn.cell_ms": ("ms", "lower"),
    "encoders.encode_ms": ("ms", "lower"),
    "models.decode_ms": ("ms", "lower"),
    "models.predict_ms": ("ms", "lower"),
    "distributions.loglik_ms": ("ms", "lower"),
    "distributions.kl_ms": ("ms", "lower"),
    "training.sample_batch_ms": ("ms", "lower"),
    "training.elbo_ms": ("ms", "lower"),
    "training.test_mse_ms": ("ms", "lower"),
    "scfea.balance_loss_ms": ("ms", "lower"),
    "scfea.tape_nodes": ("count", "lower"),
    "scfea.steps": ("count", "lower"),
    "data.load_expression_ms": ("ms", "lower"),
    "data.csv_save_ms": ("ms", "lower"),
    "data.csv_load_ms": ("ms", "lower"),
    "data.knockout_self_ms": ("ms", "lower"),
    "cli.cell_ms": ("ms", "lower"),
    "cli.concurrency": ("ratio", "higher"),
    "trace.ops_per_s_ratio": ("ratio", "higher"),
}


def layer_metrics(tr, ops, queries, traced_ops_per_s, untraced_ops_per_s):
    """Per-layer figures from one traced phase, keyed as in LAYER_METRICS."""
    totals = tr.totals()

    def self_ms(kind, *names):
        return 1e3 * sum(totals.get((kind, n), (0.0, 0.0, 0))[0] for n in names)

    def incl(kind, name):
        return totals.get((kind, name), (0.0, 0.0, 0))

    def per(value, n):
        return value / n if n else 0.0

    cells = incl("op", "cli.compare_cell")
    main = incl("op", "cli.main")
    values = {
        "tensor.tape_nodes": per(tr.counts[("op", "tensor.tape_nodes")], ops),
        "tensor.tape_build_ms": per(self_ms("op", "tensor.tape_build"), ops),
        "tensor.backward_ms": per(self_ms("op", "tensor.backward"), ops),
        "tensor.adam_ms": per(self_ms("op", "tensor.adam_step"), ops),
        "ode.nfe": per(tr.counts[("op", "ode.nfe")], ops),
        "ode.integrate_ms": per(self_ms("op", "ode.integrate", "ode.integrate_path"), ops),
        "nn.mlp_ms": per(self_ms("op", "nn.mlp"), ops),
        "nn.cell_ms": per(self_ms("op", "nn.cell"), ops),
        "encoders.encode_ms": per(self_ms("op", "encoders.encode"), ops),
        "models.decode_ms": per(self_ms("op", "models.decode_batch",
                                        "models.decoder_field"), ops),
        "models.predict_ms": per(1e3 * incl("query", "models.predict_batch")[1], queries),
        "distributions.loglik_ms": per(self_ms("op", "distributions.log_prob"), ops),
        "distributions.kl_ms": per(self_ms("op", "distributions.kl_divergence"), ops),
        "training.sample_batch_ms": per(self_ms("op", "training.sample_batch"), ops),
        "training.elbo_ms": per(self_ms("op", "training.elbo_loss"), ops),
        "training.test_mse_ms": per(self_ms("query", "training.test_mse"), queries),
        "scfea.balance_loss_ms": per(self_ms("op", "scfea.balance_loss"), ops),
        "scfea.tape_nodes": per(tr.counts[("op", "scfea.tape_nodes")], ops),
        "scfea.steps": per(incl("op", "scfea.balance_loss")[2], ops),
        "data.load_expression_ms": 1e3 * incl("setup", "data.load_expression_csv")[1],
        "data.csv_save_ms": per(1e3 * incl("query", "data.save_timeseries_csv")[1], queries),
        "data.csv_load_ms": per(1e3 * incl("query", "data.load_timeseries_csv")[1], queries),
        "data.knockout_self_ms": per(self_ms("op", "data.knockout_generate"), ops),
        "cli.cell_ms": per(1e3 * cells[1], cells[2]),
        "cli.concurrency": per(cells[1], main[1]),
        "trace.ops_per_s_ratio": per(traced_ops_per_s, untraced_ops_per_s),
    }
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS}
