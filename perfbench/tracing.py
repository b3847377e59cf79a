"""Spans around kronrig's layer boundaries, installed from outside the package.

The layers are kronrig's modules.  kronrig modules import each other's
names directly (`from .cert import verify_cert`), so a wrapper set only
on the defining module would miss most calls: `install` replaces every
binding of each wrapped function in every loaded kronrig module, and
patches `ExactMatrix` and `KroneckerSpec` methods on their classes.

Not wrapped: `field` (per-scalar work; wrapping it would swamp the
measurement), `hadamard` (factor generation, under 1% of an op) and
`oracle` (exhaustive, on no workload).  `cli.main` is the op itself and
is the root span of each op.

Spans are kept in memory, grouped by op: name, start, end and parent
span.  Self time is a span's duration minus its wrapped children's.
"""

import functools
import math
import sys
import time

# (module, function, span name, info(*args) or None).  Wrapped in every
# module that binds the function.
FUNCTIONS = [
    ("kronrig.cli", "main", "cli.main", None),
    ("kronrig.matrix", "rank_of_product", "matrix.rank_of_product", None),
    ("kronrig.cert", "verify_cert", "cert.verify", lambda cert, target: cert.n),
    ("kronrig.cert", "split_g_kron", "cert.split", None),
    ("kronrig.cert", "compose_product", "cert.compose_product", None),
    ("kronrig.cert", "compose_kron", "cert.compose_kron", None),
    ("kronrig.cert", "conjugate_cert", "cert.conjugate", None),
    ("kronrig.cert", "subset_expand_combine", "cert.subset_expand", None),
    ("kronrig.pipeline", "decompose_kron_product", "pipeline.construct", None),
    ("kronrig.pipeline", "hadamard_family_pipeline", "pipeline.construct", None),
    ("kronrig.vfactor", "v_factorization", "vfactor.v_factorization", None),
    ("kronrig.scores", "threshold_counts", "scores.threshold_counts", None),
    ("kronrig.scores", "neighborhood_counts", "scores.neighborhood_counts", None),
    ("kronrig.scores", "score_distribution", "scores.score_distribution", None),
    ("kronrig.scores", "threshold_masks", "scores.threshold_masks", None),
    ("kronrig.fileio", "parse_cert", "fileio.parse_cert", None),
    ("kronrig.fileio", "render_cert", "fileio.render_cert", None),
]

# (module, class, method, span name, info(self, *args) or None)
METHODS = [
    ("kronrig.matrix", "ExactMatrix", "exact_rank", "matrix.rank",
     lambda m: m.rows * m.cols),
    ("kronrig.matrix", "ExactMatrix", "__matmul__", "matrix.matmul",
     lambda a, b: (a.rows, b.cols)),
    ("kronrig.matrix", "ExactMatrix", "kron", "matrix.kron", None),
    ("kronrig.matrix", "KroneckerSpec", "materialize", "matrix.materialize",
     lambda spec: spec.n * spec.n),
]

LAYERS = ("cli", "matrix", "cert", "pipeline", "vfactor", "scores", "fileio")


class Span:
    __slots__ = ("name", "parent", "info", "start", "end", "nested")

    def __init__(self, name, parent, info, nested):
        self.name = name
        self.parent = parent
        self.info = info
        self.nested = nested  # an ancestor span has the same name
        self.start = self.end = 0.0

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed, grouped by op between `begin_op`
    and `end_op`."""

    def __init__(self):
        self.ops = []          # [kind, [Span], wall seconds] per traced op
        self._spans = None     # span list of the op in progress
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    def begin_op(self, kind):
        self._spans = []
        self.ops.append([kind, self._spans, None])

    def end_op(self, wall):
        """Close the op; `wall` is its time measured outside the spans,
        or None if it raised."""
        self.ops[-1][2] = wall
        self._spans = None

    def _wrap(self, name, fn, info):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None,
                        info(*args, **kwargs) if info else None,
                        any(s.name == name for s in stack))
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if key == "kronrig" or key.startswith("kronrig.")]
        for modname, attr, name, info in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig, info)
            for mod in mods:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)
        for modname, clsname, meth, name, info in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig, info))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)


# ----------------------------------------------------------------------
# per-op metrics derived from spans


def _total(name):
    """Inclusive seconds in outermost spans of `name`."""
    return lambda spans, _: sum(s.seconds for s in spans
                                if s.name == name and not s.nested)


def _calls(name):
    return lambda spans, _: sum(1 for s in spans if s.name == name)


def _work(name):
    """Sum of the recorded size (cells) over outermost spans of `name`."""
    return lambda spans, _: sum(s.info for s in spans
                                if s.name == name and not s.nested)


def _self(name):
    return lambda spans, self_s: sum(self_s[i] for i, s in enumerate(spans)
                                     if s.name == name)


def _layer_self(layer):
    prefix = layer + "."
    return lambda spans, self_s: sum(self_s[i] for i, s in enumerate(spans)
                                     if s.name.startswith(prefix))


def _uv_products(spans, _):
    """n x n products U @ V made inside certificate verification."""
    count = 0
    for s in spans:
        if s.name != "matrix.matmul":
            continue
        p = s.parent
        while p is not None and p.name != "cert.verify":
            p = p.parent
        if p is not None and s.info == (p.info, p.info):
            count += 1
    return count


MATRIX = [
    ("matrix.rank_s", "s", _total("matrix.rank")),
    ("matrix.rank_calls", "count", _calls("matrix.rank")),
    ("matrix.rank_cells", "cells", _work("matrix.rank")),
    ("matrix.rank_of_product_s", "s", _total("matrix.rank_of_product")),
    ("matrix.matmul_s", "s", _total("matrix.matmul")),
    ("matrix.matmul_calls", "count", _calls("matrix.matmul")),
    ("matrix.kron_s", "s", _total("matrix.kron")),
    ("matrix.kron_calls", "count", _calls("matrix.kron")),
    ("matrix.materialize_s", "s", _total("matrix.materialize")),
    ("matrix.materialize_cells", "cells", _work("matrix.materialize")),
]
CERT_CHECK = [
    ("cert.uv_products", "count", _uv_products),
    ("cert.verify_self_s", "s", _self("cert.verify")),
]
CONSTRUCT = [
    ("cert.split_s", "s", _total("cert.split")),
    ("cert.split_calls", "count", _calls("cert.split")),
    ("cert.compose_product_s", "s", _total("cert.compose_product")),
    ("cert.compose_kron_s", "s", _total("cert.compose_kron")),
    ("cert.conjugate_s", "s", _total("cert.conjugate")),
    ("cert.subset_expand_s", "s", _total("cert.subset_expand")),
    ("pipeline.construct_s", "s", _total("pipeline.construct")),
    ("pipeline.construct_self_s", "s", _self("pipeline.construct")),
    ("vfactor.v_factorization_s", "s", _total("vfactor.v_factorization")),
    ("vfactor.v_factorization_calls", "count",
     _calls("vfactor.v_factorization")),
    ("fileio.render_cert_s", "s", _total("fileio.render_cert")),
]
SCORES = [
    ("scores.threshold_counts_s", "s", _total("scores.threshold_counts")),
    ("scores.threshold_counts_calls", "count",
     _calls("scores.threshold_counts")),
    ("scores.neighborhood_counts_s", "s", _total("scores.neighborhood_counts")),
    ("scores.neighborhood_counts_calls", "count",
     _calls("scores.neighborhood_counts")),
    ("scores.score_distribution_calls", "count",
     _calls("scores.score_distribution")),
    ("scores.threshold_masks_s", "s", _total("scores.threshold_masks")),
]


def _layer_selves(layers):
    return [(f"{layer}.self_s", "s", _layer_self(layer)) for layer in layers]


# Per op kind, the span-derived metrics.  Names are prefixed by the kind.
SPAN_METRICS = {
    "decompose": (MATRIX + CERT_CHECK + CONSTRUCT + SCORES
                  + _layer_selves(LAYERS)),
    "verify": (MATRIX + CERT_CHECK
               + [("fileio.parse_cert_s", "s", _total("fileio.parse_cert"))]
               + _layer_selves(("cli", "matrix", "cert", "fileio"))),
}

# Span metrics that only some workloads exercise; every other span metric
# must be non-zero on every workload.
ONLY_ON = {
    "decompose.cert.compose_kron_s": {"q_family"},
    "decompose.cert.conjugate_s": {"q_family"},
    "decompose.cert.subset_expand_s": {"q_family"},
}


def op_metrics(kind, spans):
    """Span metrics of one traced op, and the sum of all its self times."""
    index = {id(s): i for i, s in enumerate(spans)}
    self_s = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            self_s[index[id(s.parent)]] -= s.seconds
    values = {f"{kind}.{name}": fn(spans, self_s)
              for name, _, fn in SPAN_METRICS[kind]}
    return values, math.fsum(self_s)


def metric_units():
    """Every span metric name with its unit."""
    return {f"{kind}.{name}": unit
            for kind, defs in SPAN_METRICS.items() for name, unit, _ in defs}
