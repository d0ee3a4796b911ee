"""Batch command-line front end.

One job per invocation.  A subcommand picks the operation; inputs come from
flags or a JSON config file (flags win), and every named example ships as a
preset.  The machine-readable report goes to stdout (or --out), a one-line
summary to stderr.  Reports are deterministic byte for byte: keys are
ordered, exact rationals travel as "a/b" strings, pi-adics as digit lists.

Exit status 2 means the computation ran out of precision or budget and the
caller should retry with a larger N/M/J; exit status 1 is a real error,
including malformed configs (the message names the offending schema path).
"""

import argparse
import json
import os
import random
import sys
from functools import lru_cache

from .errors import (
    BudgetError,
    FrobkitError,
    IndeterminateError,
    PrecisionError,
)
from .intertwine import solve_intertwiner, solve_intertwiner_all, verify_intertwine
from .kisin import (
    KisinModule,
    check_counterexample,
    counterexample_module,
    fil1_rank,
    hypothesis_check,
    minimal_height_rank1,
    verify_height,
    xi_iterate,
)
from .scalars import DEFAULT_PREC, FieldSpec, OFExact, _fraction_in, field_spec, qp_spec
from .series import (
    PRESET_NAMES,
    EisensteinE,
    FrobLift,
    USeries,
    eisenstein_preset,
    frob_preset,
)
from .tower import TowerSpec, tower_report
from .witt import DEFAULT_BUDGET, e_reduction_report, f_fixed_point_report, ghost_trials


class ConfigError(ValueError):
    """Malformed job config; the message carries the schema path."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which would collide with
    # the "retry with more precision" code; route it through ConfigError
    def error(self, message: str) -> None:
        raise ConfigError(f"{self.prog}: {message}")


# --- config plumbing ---------------------------------------------------------


def _exact_in(spec: FieldSpec, v, path: str) -> OFExact:
    try:
        return OFExact.from_json(spec, v, path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _coeffs_in(spec: FieldSpec, v, path: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}: expected a non-empty coefficient list")
    return [_exact_in(spec, c, f"{path}[{i}]") for i, c in enumerate(v)]


def _int_in(v, path: str, low: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer")
    if low is not None and v < low:
        raise ConfigError(f"{path}: must be >= {low}")
    return v


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be an object")
    # a previously emitted report is accepted as-is
    if "config" in obj and isinstance(obj["config"], dict):
        obj = obj["config"]
    return obj


def _get(args, cfg: dict, key: str, default=None):
    v = getattr(args, key.replace("-", "_"), None)
    if v is not None:
        return v
    return cfg.get(key, default)


def _field(args, cfg: dict) -> FieldSpec:
    fld = cfg.get("field", {})
    if not isinstance(fld, dict):
        raise ConfigError("config.field: expected an object")
    p = getattr(args, "p", None)
    if p is None:
        p = fld.get("p")
    if p is None:
        p = 3
    p = _int_in(p, "config.field.p", low=2)
    g = getattr(args, "base_g", None)
    if g is None:
        g = fld.get("g")
    if g is None:
        return qp_spec(p)
    if not isinstance(g, list):
        raise ConfigError("config.field.g: expected a coefficient list")
    try:
        coeffs = [_fraction_in(c, f"config.field.g[{i}]") for i, c in enumerate(g)]
        for i, c in enumerate(coeffs):
            if c.denominator != 1:
                raise ValueError(f"config.field.g[{i}]: expected an integer")
        return field_spec(p, tuple(int(c) for c in coeffs))
    except ValueError as exc:
        raise ConfigError(f"config.field.g: {exc}") from None


def _field_out(spec: FieldSpec) -> dict:
    return {"p": spec.p, "g": [int(c) for c in spec.eisenstein]}


def _precision(args, cfg: dict) -> dict:
    pr = cfg.get("precision", {})
    if not isinstance(pr, dict):
        raise ConfigError("config.precision: expected an object")
    env = os.environ.get("FROBKIT_PRECISION")
    if env is not None:
        try:
            env_n = int(env)
        except ValueError:
            raise ConfigError(
                "config.precision.piadic: FROBKIT_PRECISION is not an integer"
            ) from None
    else:
        env_n = None
    out = {}
    for key, flag, default, low in (
        ("piadic", "N", env_n if env_n is not None else DEFAULT_PREC, 1),
        ("u_order", "M", None, 1),
        ("witt_len", "witt_len", 4, 1),
        ("root_budget", "J", DEFAULT_BUDGET[0], 1),
        ("exp_bound", "A_max", DEFAULT_BUDGET[1], 1),
    ):
        v = getattr(args, flag, None)
        if v is None:
            v = pr.get(key, default)
        if v is not None:
            v = _int_in(v, f"config.precision.{key}", low=low)
        out[key] = v
    return out


_PRESETS = {FrobLift: frob_preset, EisensteinE: eisenstein_preset}


def _resolve(cls, spec: FieldSpec, args, cfg: dict, key: str,
             preset_key: str = "preset"):
    """A FrobLift or EisensteinE from its coefficients or a preset name,
    together with that name."""
    raw = _get(args, cfg, key)
    name = _get(args, cfg, preset_key)
    if raw is not None:
        if isinstance(raw, str):
            raw = _parse_json_flag(raw, f"config.{key}")
        return cls.make(spec, _coeffs_in(spec, raw, f"config.{key}")), name
    if name is None:
        raise ConfigError(f"config.{key}: give --{key.replace('_', '-')} "
                          f"coefficients or a preset name")
    if name not in PRESET_NAMES:
        raise ConfigError(f"config.{preset_key}: unknown preset {name!r}")
    return _PRESETS[cls](spec, name), name


def _parse_json_flag(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def _matrix_in(value, path: str) -> list:
    if isinstance(value, str):
        value = _parse_json_flag(value, path)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    d = len(value)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != d:
            raise ConfigError(f"{path}[{i}]: expected a row of length {d}")
        out_row = []
        for j, entry in enumerate(row):
            here = f"{path}[{i}][{j}]"
            if isinstance(entry, bool):
                raise ConfigError(f"{here}: expected an integer or list")
            if isinstance(entry, int):
                out_row.append(entry)
            elif isinstance(entry, list):
                out_row.append([_int_in(c, f"{here}[{k}]")
                                for k, c in enumerate(entry)])
            else:
                raise ConfigError(f"{here}: expected an integer or list")
        rows.append(out_row)
    return rows


def _coeffs_out(x: FrobLift | EisensteinE) -> list:
    return [c.to_json() for c in x.coeffs]


# --- subcommand bodies -------------------------------------------------------


def _cmd_presets(args, filecfg: dict):
    spec = _field(args, filecfg)
    entries = []
    for name in PRESET_NAMES:
        E = eisenstein_preset(spec, name)
        f = frob_preset(spec, name)
        entries.append({
            "name": name,
            "field": _field_out(spec),
            "f": _coeffs_out(f),
            "E": _coeffs_out(E),
            "e0": E.e0,
        })
    cfg = {"field": _field_out(spec)}
    report = {"presets": entries}
    human = "presets: " + ", ".join(PRESET_NAMES)
    return cfg, report, human


def _cmd_tower(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    f, name = _resolve(FrobLift, spec, args, filecfg, "f")
    e0 = _get(args, filecfg, "e0")
    if e0 is None:
        if name is None:
            raise ConfigError("config.e0: required when f is explicit")
        e0 = eisenstein_preset(spec, name).e0
    e0 = _int_in(e0, "config.e0", low=1)
    levels = _int_in(_get(args, filecfg, "levels", 6), "config.levels", low=1)
    poly_levels = _int_in(_get(args, filecfg, "polygon_levels", 4),
                          "config.polygon_levels", low=1)
    report = tower_report(TowerSpec(f, e0), levels, poly_levels)
    cfg = {
        "field": _field_out(spec), "preset": name, "f": _coeffs_out(f),
        "e0": e0, "levels": levels, "polygon_levels": poly_levels,
        "precision": prec,
    }
    human = (f"tower: imin = {report['imin']}, c = {report['c']}, "
             f"single-segment polygons: {report['single_segment']}")
    return cfg, report, human


def _cmd_intertwine(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    f, name = _resolve(FrobLift, spec, args, filecfg, "f", "preset_f")
    f2, name2 = _resolve(FrobLift, spec, args, filecfg, "f2", "preset_f2")
    M = prec["u_order"] if prec["u_order"] is not None else 25
    N = prec["piadic"]
    all_mu0 = bool(_get(args, filecfg, "all_mu0", False))
    if all_mu0:
        results = solve_intertwiner_all(f, f2, M, N)
    else:
        mu0 = _int_in(_get(args, filecfg, "mu0", 1), "config.mu0")
        results = [solve_intertwiner(f, f2, mu0, M, N)]
    out = []
    for res in results:
        ok = verify_intertwine(f, f2, res.xi, *res.verified_to)
        body = res.to_json()
        body["verified"] = ok
        out.append(body)
    report = {"solutions": out}
    cfg = {
        "field": _field_out(spec), "preset_f": name, "preset_f2": name2,
        "f": _coeffs_out(f), "f2": _coeffs_out(f2), "all_mu0": all_mu0,
        "precision": dict(prec, u_order=M),
    }
    if not all_mu0:
        cfg["mu0"] = mu0
    first = out[0]
    human = (f"intertwine: {len(out)} solution(s), s = {first['s']}, "
             f"integral = {first['integral']}, verified = {first['verified']} "
             f"to (x^{M}, pi^{first['verified_to']['N']})")
    return cfg, report, human


def _cmd_witt_selftest(args, filecfg: dict):
    spec0 = _field(args, filecfg)
    prec = _precision(args, filecfg)
    max_len = prec["witt_len"]
    trials = _int_in(_get(args, filecfg, "trials", 100), "config.trials", low=0)
    seed = _int_in(_get(args, filecfg, "seed", 0), "config.seed")
    base = _get(args, filecfg, "base", "both")
    if base not in ("qp", "ramified", "both"):
        raise ConfigError("config.base: expected qp, ramified, or both")
    specs = []
    if base in ("qp", "both"):
        specs.append(spec0)
    if base in ("ramified", "both"):
        specs.append(field_spec(spec0.p, (-spec0.p, 0, 1)))
    rng = random.Random(seed)
    checks = []
    for spec in specs:
        for n in range(1, max_len + 1):
            exact = ghost_trials(spec, n, trials, rng)
            checks.append({
                "field": _field_out(spec), "length": n,
                "integral": True, "ghost_trials": trials,
                "ghost_exact": exact, "ok": exact == trials,
            })
    report = {"checks": checks, "ok": all(c["ok"] for c in checks)}
    cfg = {
        "field": _field_out(spec0), "base": base, "trials": trials,
        "seed": seed, "precision": prec,
    }
    human = (f"witt-selftest: {len(specs)} base(s) x lengths 1..{max_len}, "
             f"{trials} ghost trials each: "
             f"{'all exact' if report['ok'] else 'FAILED'}")
    return cfg, report, human


def _cmd_fixedpoint(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    f, name = _resolve(FrobLift, spec, args, filecfg, "f")
    E, _ = _resolve(EisensteinE, spec, args, filecfg, "E")
    budget = (prec["root_budget"], prec["exp_bound"])
    fixed = f_fixed_point_report(f, prec["witt_len"], budget)
    u = fixed["u"]
    red = e_reduction_report(E, u)
    report = {
        "iterations": fixed["iterations"],
        "frob_matches_f": fixed["frob_matches_f"],
        "reduces_to_ubar": fixed["reduces_to_ubar"],
        "e_reduction": red,
        "u": u.to_json(),
    }
    cfg = {
        "field": _field_out(spec), "preset": name,
        "f": _coeffs_out(f), "E": _coeffs_out(E), "precision": prec,
    }
    human = (f"fixedpoint: stabilized in {fixed['iterations']} iteration(s), "
             f"phi(u) = f(u): {fixed['frob_matches_f']}, "
             f"E-reduction ok: {red['ok']}")
    return cfg, report, human


def _kisin_module(spec, args, filecfg, prec, r):
    f, name = _resolve(FrobLift, spec, args, filecfg, "f")
    E, _ = _resolve(EisensteinE, spec, args, filecfg, "E")
    raw = _get(args, filecfg, "matrix")
    if raw is None:
        raise ConfigError("config.matrix: required")
    rows = _matrix_in(raw, "config.matrix")
    m = KisinModule.make(f, E, r, rows, absprec=prec["piadic"])
    cfg = {
        "field": _field_out(spec), "preset": name, "f": _coeffs_out(f),
        "E": _coeffs_out(E), "matrix": rows, "r": r, "precision": prec,
    }
    return m, cfg


def _cmd_kisin_height(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    r = _int_in(_get(args, filecfg, "r"), "config.r", low=0)
    m, cfg = _kisin_module(spec, args, filecfg, prec, r)
    ok = verify_height(m)
    report = {"r": r, "d": m.d, "verified": ok}
    human = f"kisin height: d = {m.d}, r = {r}: {'ok' if ok else 'FAILS'}"
    return cfg, report, human


def _cmd_kisin_minheight(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    E, name = _resolve(EisensteinE, spec, args, filecfg, "E")
    raw = _get(args, filecfg, "series")
    if raw is None:
        raise ConfigError("config.series: required")
    if isinstance(raw, str):
        raw = _parse_json_flag(raw, "config.series")
    a = USeries.make(spec, _coeffs_in(spec, raw, "config.series"),
                     absprec=prec["piadic"])
    res = minimal_height_rank1(a, E)
    report = res.to_json()
    cfg = {
        "field": _field_out(spec), "preset": name, "E": _coeffs_out(E),
        "series": raw, "precision": prec,
    }
    human = f"kisin minheight: m = {res.m}"
    return cfg, report, human


def _cmd_kisin_hypothesis(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    f, name = _resolve(FrobLift, spec, args, filecfg, "f")
    E, _ = _resolve(EisensteinE, spec, args, filecfg, "E")
    budget = _int_in(_get(args, filecfg, "N_budget", 6), "config.N_budget",
                     low=0)
    res = hypothesis_check(f, E, budget)
    report = res.to_json() if res is not None else {"found": False}
    cfg = {
        "field": _field_out(spec), "preset": name, "f": _coeffs_out(f),
        "E": _coeffs_out(E), "N_budget": budget, "precision": prec,
    }
    if res is None:
        human = f"kisin hypothesis: no witness up to n = {budget}"
    else:
        human = f"kisin hypothesis: found n = {res.n}, k = {res.k}"
    return cfg, report, human


def _cmd_kisin_counterexample(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    f, name = _resolve(FrobLift, spec, args, filecfg, "f")
    E, _ = _resolve(EisensteinE, spec, args, filecfg, "E")
    n = _int_in(_get(args, filecfg, "n"), "config.n", low=0)
    w = counterexample_module(f, E, n, absprec=prec["piadic"])
    report = w.to_json()
    report["identity_checked"] = check_counterexample(f, E, w.A, w.l)
    report["module_height_ok"] = verify_height(w.module)
    report["ambient_height_ok"] = verify_height(w.ambient)
    cfg = {
        "field": _field_out(spec), "preset": name, "f": _coeffs_out(f),
        "E": _coeffs_out(E), "n": n, "precision": prec,
    }
    human = (f"kisin counterexample: level n = {n}, l = {w.l}, "
             f"heights ok = {report['module_height_ok']}")
    return cfg, report, human


def _cmd_kisin_xi(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    r = _int_in(_get(args, filecfg, "r", 1), "config.r", low=0)
    max_n = _int_in(_get(args, filecfg, "max_n"), "config.max_n", low=1)
    m, cfg = _kisin_module(spec, args, filecfg, prec, r)
    rep = xi_iterate(m, max_n, u_order=prec["u_order"])
    report = rep.to_json()
    cfg["max_n"] = max_n
    last = report["gauges"][-1]
    human = f"kisin xi: {max_n} step(s), last gauge reading = {last}"
    return cfg, report, human


def _cmd_kisin_fil1(args, filecfg: dict):
    spec = _field(args, filecfg)
    prec = _precision(args, filecfg)
    m, cfg = _kisin_module(spec, args, filecfg, prec, 1)
    s = fil1_rank(m)
    report = {"fil1_rank": s, "d": m.d}
    human = f"kisin fil1: rank = {s} (of d = {m.d})"
    return cfg, report, human


# --- wiring ------------------------------------------------------------------


def _add_common(sp, with_N: bool = True):
    sp.add_argument("--p", type=int)
    sp.add_argument("--base-g", type=json.loads, metavar="JSON")
    sp.add_argument("--config", metavar="FILE")
    sp.add_argument("--out", metavar="FILE")
    if with_N:
        sp.add_argument("--N", type=int, help="pi-adic working precision")
    sp.add_argument("--M", type=int, help="u-adic order")
    sp.add_argument("--witt-len", dest="witt_len", type=int)
    sp.add_argument("--J", type=int, help="root-extraction budget")
    sp.add_argument("--A-max", dest="A_max", type=int, help="exponent bound")


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built on the first job of a process and shared
    by every later one."""
    top = _Parser(prog="frobkit", description=__doc__)
    sub = top.add_subparsers(dest="command", parser_class=_Parser)

    sp = sub.add_parser("presets", help="list the named examples")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_presets, label="presets")

    sp = sub.add_parser("tower", help="APF invariants of a lift tower")
    _add_common(sp)
    sp.add_argument("--preset", choices=PRESET_NAMES)
    sp.add_argument("--f", metavar="JSON")
    sp.add_argument("--e0", type=int)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--polygon-levels", dest="polygon_levels", type=int)
    sp.set_defaults(fn=_cmd_tower, label="tower")

    sp = sub.add_parser("intertwine", help="solve f o xi = xi o f2")
    _add_common(sp)
    sp.add_argument("--preset-f", dest="preset_f", choices=PRESET_NAMES)
    sp.add_argument("--preset-f2", dest="preset_f2", choices=PRESET_NAMES)
    sp.add_argument("--f", metavar="JSON")
    sp.add_argument("--f2", metavar="JSON")
    sp.add_argument("--mu0", type=int)
    sp.add_argument("--all-mu0", dest="all_mu0", action="store_const",
                    const=True)
    sp.set_defaults(fn=_cmd_intertwine, label="intertwine")

    sp = sub.add_parser("witt-selftest",
                        help="ghost compatibility and integrality checks")
    _add_common(sp)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--base", choices=("qp", "ramified", "both"))
    sp.set_defaults(fn=_cmd_witt_selftest, label="witt-selftest")

    sp = sub.add_parser("fixedpoint",
                        help="phi(u) = f(u) in the Witt vectors")
    _add_common(sp)
    sp.add_argument("--preset", choices=PRESET_NAMES)
    sp.add_argument("--f", metavar="JSON")
    sp.add_argument("--E", metavar="JSON")
    sp.set_defaults(fn=_cmd_fixedpoint, label="fixedpoint")

    sp = sub.add_parser("kisin", help="module-level operations")
    ksub = sp.add_subparsers(dest="kisin_command", parser_class=_Parser)

    def kadd(name, fn, help_text, *, matrix=False, extra=(), with_N=True):
        q = ksub.add_parser(name, help=help_text)
        _add_common(q, with_N=with_N)
        q.add_argument("--preset", choices=PRESET_NAMES)
        q.add_argument("--f", metavar="JSON")
        q.add_argument("--E", metavar="JSON")
        if matrix:
            q.add_argument("--matrix", metavar="JSON")
        for flag, kw in extra:
            q.add_argument(flag, **kw)
        q.set_defaults(fn=fn, label=f"kisin {name}")
        return q

    kadd("height", _cmd_kisin_height, "verify declared E-height", matrix=True,
         extra=(("--r", {"type": int}),))
    kadd("minheight", _cmd_kisin_minheight, "rank-one minimal height",
         extra=(("--series", {"metavar": "JSON"}),))
    # the scan is exact, so --N here is the level budget, not a precision
    kadd("hypothesis", _cmd_kisin_hypothesis,
         "scan for phi^n(f/u) = E^k", with_N=False,
         extra=(("--N", {"dest": "N_budget", "type": int}),
                ("--N-budget", {"dest": "N_budget", "type": int}),))
    kadd("counterexample", _cmd_kisin_counterexample,
         "build the level-n witness pair",
         extra=(("--n", {"type": int}),))
    kadd("xi", _cmd_kisin_xi, "run the Y_n iteration", matrix=True,
         extra=(("--r", {"type": int}), ("--max-n", {"dest": "max_n",
                                                     "type": int})))
    kadd("fil1", _cmd_kisin_fil1, "rank of the first filtration step",
         matrix=True)

    return top


def run(argv) -> int:
    top = _parser()
    try:
        args = top.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise ConfigError("frobkit: a subcommand is required")
        if args.command == "kisin" and getattr(args, "fn", None) is None:
            raise ConfigError("frobkit kisin: an operation is required")
        filecfg = _load_config(getattr(args, "config", None))
        cfg, report, human = args.fn(args, filecfg)
    except ConfigError as exc:
        print(f"frobkit: error: {exc}", file=sys.stderr)
        return 1
    except (IndeterminateError, PrecisionError, BudgetError) as exc:
        print(f"frobkit: indeterminate: {exc}", file=sys.stderr)
        return 2
    except (FrobkitError, ValueError, ArithmeticError) as exc:
        print(f"frobkit: error: {exc}", file=sys.stderr)
        return 1

    envelope = {"command": args.label, "config": cfg, "report": report}
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(human, file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
