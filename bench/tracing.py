"""Per-layer spans for the traced benchmark run, installed from outside frobkit.

The layers are frobkit's modules.  `install` wraps each layer's public
functions and operators: a module-level function is rebound in every
frobkit module that imported it, an operator or method is replaced on its
class.  A span opens when a wrapped call starts and closes when it
returns; its parent is the span below it on the stack.  Spans are folded
into totals as they close instead of being stored, because a traced
xi-rank2 job opens millions of scalar-operator spans:

* per layer, self time: span time minus the time of its child spans;
* per metric, inclusive time of the outermost span of that metric (a
  recursive or nested call is not counted twice) and the number of calls.

The report's `to_json` methods and the CLI's `json.dumps` are counted as
the cli layer: they are the rendering of a report, whichever module
defines them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "kisin", "intertwine", "tower", "witt", "series", "scalars")

# public functions per layer (the layer is the module); a name may carry
# its metric group after a colon when several functions feed one metric
_FUNCTIONS = {
    "scalars": ("of_root", "of_add", "of_val", "of_div"),
    "series": (
        "s_mul", "s_compose:compose", "frobenius", "e_divides",
        "e_order", "wdeg", "newton_hull", "gauge_alpha", "gauge_low",
        "frob_preset", "eisenstein_preset"),
    "kisin": (
        "mat_make", "mat_identity", "mat_add", "mat_sub", "mat_mul",
        "mat_scale", "mat_truncate", "mat_frob", "mat_det", "mat_adj",
        "mat_const", "verify_height", "minimal_height_rank1", "fil1_rank",
        "hypothesis_check", "check_counterexample:counterexample",
        "counterexample_module:counterexample", "xi_iterate"),
    "intertwine": (
        "check_compatible", "compute_mu0", "solve_intertwiner:solve",
        "solve_intertwiner_all:solve", "verify_intertwine:verify"),
    "tower": (
        "imin", "elementary_level", "apf_constant", "ramification_polygon",
        "tower_report:report"),
    "witt": (
        "witt_polys:polys", "eval_poly_exact:eval", "ghost_map",
        "f_fixed_point:fixed_point", "f_fixed_point_report:fixed_point",
        "check_E_reduction", "e_reduction_report", "eval_poly_on_witt",
        "witt_add", "witt_mul", "witt_neg", "witt_frob", "witt_frob_inv",
        "scalar_mul", "teich", "pi_shift"),
}

# (class, operators and methods) per layer
_METHODS = {
    "scalars": (
        ("FElement", ("__add__:felement_add", "__sub__",
                      "__mul__:felement_mul", "__truediv__", "__neg__",
                      "__pow__")),
        ("OFElement", ("__add__", "__sub__", "__mul__:ofelement_mul",
                       "__neg__", "__pow__", "inverse")),
        ("OFExact", ("__add__:ofexact_add", "__sub__", "__mul__:ofexact_mul",
                     "__neg__", "__pow__", "__truediv__", "inv")),
    ),
    "series": (
        ("USeries", ("make", "__add__", "__sub__", "__neg__", "__mul__:mul",
                     "scalar_mul", "truncate", "times_u", "div_u")),
        ("FrobLift", ("make",)),
        ("EisensteinE", ("make",)),
    ),
    "kisin": (("KisinModule", ("make",)),),
    "witt": (("PerfSeries", ("__add__", "__sub__", "__neg__",
                             "__mul__:perf_mul", "pow", "frob", "root",
                             "scale")),),
}

# report rendering, counted as the cli layer
_TO_JSON = (
    ("scalars", "OFElement"), ("scalars", "FElement"),
    ("series", "USeries"), ("series", "NewtonPolygon"),
    ("intertwine", "IntertwineResult"), ("intertwine", "CompatReport"),
    ("kisin", "XiReport"), ("kisin", "MinimalHeight"),
    ("kisin", "HypothesisResult"), ("kisin", "CounterexampleWitness"),
    ("kisin", "KisinModule"), ("tower", "RamPolygonReport"),
    ("witt", "PerfSeries"), ("witt", "WittVec"),
)


class _Stat:
    """Calls and outermost inclusive time of one metric."""

    __slots__ = ("calls", "incl", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.depth = 0


class Tracer:
    """Span stack plus the totals the spans fold into."""

    def __init__(self):
        self.active = False
        self.stack: list[list[float]] = []  # [start, child time] per open span
        self.layer_self = {layer: [0.0] for layer in LAYERS}
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self._seen_polys: list = []

    def wrap(self, fn, layer: str, metric: str, on_result=None):
        tracer = self
        stack = self.stack
        layer_self = self.layer_self[layer]
        st = self.stats[metric]
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            st.depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                layer_self[0] += dur - frame[1]
                st.calls += 1
                st.depth -= 1
                if not st.depth:
                    st.incl += dur
            if on_result is not None:
                on_result(out)
            return out

        return span

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; frobkit and frobkit.cli must be imported."""
        import frobkit.cli as cli

        mods = {layer: sys.modules[f"frobkit.{layer}"] for layer in LAYERS
                if layer != "cli"}
        on_result = {
            "series.mul": self._count_mul_out,
            "intertwine.solve_intertwiner": self._count_degrees,
            "witt.witt_polys": self._count_polys,
        }
        for layer, names in _FUNCTIONS.items():
            for entry in names:
                name, _, group = entry.partition(":")
                orig = getattr(mods[layer], name)
                w = self.wrap(orig, layer, f"{layer}.{group or name}",
                              on_result.get(f"{layer}.{name}"))
                _rebind(orig, w, name)
        for layer, specs in _METHODS.items():
            for clsname, names in specs:
                cls = getattr(mods[layer], clsname)
                for entry in names:
                    name, _, group = entry.partition(":")
                    metric = f"{layer}.{group or clsname + '.' + name}"
                    _patch_method(cls, name, lambda fn, m=metric, g=group:
                                  self.wrap(fn, layer, m,
                                            on_result.get(f"{layer}.{g}")))
        for modname, clsname in _TO_JSON:
            cls = getattr(mods[modname], clsname)
            _patch_method(cls, "to_json",
                          lambda fn: self.wrap(fn, "cli", "cli.to_json"))
        cli.run = self.wrap(cli.run, "cli", "cli.run")
        cli.json = _JsonProxy(self.wrap(json.dumps, "cli", "cli.to_json"))

    def _count_mul_out(self, out) -> None:
        self.counts["series.mul_out_coeffs"] += len(out.coeffs)

    def _count_degrees(self, res) -> None:
        self.counts["intertwine.degrees"] += len(res.losses)
        self.counts["intertwine.digits_lost"] += sum(res.losses)

    def _count_polys(self, polyset) -> None:
        # a memoised call hands back an object seen before; only a fresh
        # object was built by this call
        if not any(polyset is seen for seen in self._seen_polys):
            self._seen_polys.append(polyset)
            self.counts["witt.polys_built"] += 1

    # --- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit), zeros included."""
        st, cnt = self.stats, self.counts
        out = {}

        def secs(name, metric):
            out[name] = (st[metric].incl if metric in st else 0.0, "s")

        def calls(name, metric):
            out[name] = (st[metric].calls if metric in st else 0, "count")

        out["cli.self_s"] = (self.layer_self["cli"][0], "s")
        secs("cli.to_json_s", "cli.to_json")
        for fn in ("xi_iterate", "verify_height", "fil1_rank",
                   "hypothesis_check", "counterexample"):
            secs(f"kisin.{fn}_s", f"kisin.{fn}")
        calls("kisin.mat_mul_calls", "kisin.mat_mul")
        secs("kisin.mat_mul_s", "kisin.mat_mul")
        secs("intertwine.solve_s", "intertwine.solve")
        secs("intertwine.verify_s", "intertwine.verify")
        out["intertwine.degrees"] = (cnt["intertwine.degrees"], "count")
        out["intertwine.digits_lost"] = (cnt["intertwine.digits_lost"], "digits")
        secs("tower.report_s", "tower.report")
        secs("witt.polys_s", "witt.polys")
        out["witt.polys_built"] = (cnt["witt.polys_built"], "count")
        calls("witt.eval_calls", "witt.eval")
        secs("witt.eval_s", "witt.eval")
        secs("witt.ghost_map_s", "witt.ghost_map")
        secs("witt.fixed_point_s", "witt.fixed_point")
        calls("witt.perf_mul_calls", "witt.perf_mul")
        secs("witt.perf_mul_s", "witt.perf_mul")
        calls("series.mul_calls", "series.mul")
        secs("series.mul_s", "series.mul")
        out["series.mul_out_coeffs"] = (cnt["series.mul_out_coeffs"], "count")
        calls("series.compose_calls", "series.compose")
        secs("series.compose_s", "series.compose")
        calls("series.e_order_calls", "series.e_order")
        secs("series.e_order_s", "series.e_order")
        calls("scalars.felement_mul_calls", "scalars.felement_mul")
        calls("scalars.felement_add_calls", "scalars.felement_add")
        calls("scalars.ofelement_mul_calls", "scalars.ofelement_mul")
        calls("scalars.ofexact_mul_calls", "scalars.ofexact_mul")
        calls("scalars.ofexact_add_calls", "scalars.ofexact_add")
        # tower has no self time of its own among the metrics: its report
        # is nearly all tower.report_s
        for layer in ("kisin", "intertwine", "witt", "series", "scalars"):
            out[f"{layer}.self_s"] = (self.layer_self[layer][0], "s")
        return out


class _JsonProxy:
    """Stands in for the json module inside frobkit.cli with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def _rebind(orig, wrapper, name: str) -> None:
    for modname, mod in list(sys.modules.items()):
        if (modname == "frobkit" or modname.startswith("frobkit.")) \
                and getattr(mod, name, None) is orig:
            setattr(mod, name, wrapper)


def _patch_method(cls, name: str, make) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make(raw.__func__)))
    else:
        setattr(cls, name, make(raw))
