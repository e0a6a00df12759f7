"""Command-line surface: every construction runnable with file outputs.

Exit codes: 0 success, 2 when a certified inequality gate fails on valid
input, 1 on usage errors or invalid input.  Every CSV and PGM embeds a config
echo in `#` header lines; JSON outputs carry a "config" key.  Outputs are
deterministic per (config, seed).

CSV cells and boundary-data JSON numbers are written as "%.17g" % x for
floats, which reads back to the same double, and "%d" % n for integers
(see `_numtext`); the other JSON values are `json.dump`'s.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import _numtext, chaos, foliation, moebius, poisson
from .arcspace import act_arc  # noqa: F401  (perfbench wraps cli.act_arc)
from .arcspace import Arc, iterate_arc
from .boundary import BoundaryFunction, TWO_PI, indicator
# bound here for perfbench/test_perfbench.py::test_every_binding_is_wrapped_and_restored
from .boundary import compose_with_moebius  # noqa: F401
from .poisson import CompactExhaustion, HarmonicFunction


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this surface reserves 2 for
    # failed validation gates, so remap parse failures to the usage path
    def error(self, message):
        raise UsageError(message)


def _complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _count(least: int):
    """argparse type of a count flag: an integer no smaller than `least`."""

    def count(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return count


def _echo_pairs(args) -> list[tuple[str, str]]:
    skip = {"func", "command"}
    pairs = []
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None:
            continue
        pairs.append((k.replace("_", "-"), str(v)))
    return pairs


def _write_csv(path, title, args, names, columns):
    """One line per row of the equal-length `columns`, each cell as its
    column's `_numtext.cells` text ("%d" or "%.17g")."""
    columns = list(columns)
    echo = " ".join(f"{k}={v}" for k, v in _echo_pairs(args))
    with open(path, "wb") as fh:
        fh.write(f"# discdyn {title}\n# {echo}\n{','.join(names)}\n".encode())
        if columns:
            fh.write(_numtext.table(columns))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _config_dict(title, args) -> dict:
    return {"command": title, **{k: v for k, v in _echo_pairs(args)}}


def _write_pgm(path, img, title, args, lo, hi):
    """8-bit P5; img is a float array (NaN = outside the domain, maps to 0)."""
    h, w = img.shape
    span = hi - lo
    scaled = np.zeros((h, w), dtype=np.uint8)
    inside = ~np.isnan(img)
    if span > 0:
        scaled[inside] = np.rint(255.0 * (img[inside] - lo) / span).astype(np.uint8)
    header = (
        f"P5\n# discdyn {title} "
        + " ".join(f"{k}={v}" for k, v in _echo_pairs(args))
        + f"\n# min={float(lo):.17g} max={float(hi):.17g}\n{w} {h}\n255\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(scaled.tobytes())


def _load_boundary(path) -> BoundaryFunction:
    with open(path) as fh:
        return BoundaryFunction.from_json(fh.read())


def _save_boundary(path, f: BoundaryFunction, config: dict):
    # the to_json() text as it is, the config added as its last key
    with open(path, "w") as fh:
        fh.write(f.to_json()[:-1] + ', "config": ' + json.dumps(config) + "}\n")


def _real(least: float = -math.inf):
    """argparse type of a float flag: a finite number no smaller than `least`."""

    def real(text: str) -> float:
        x = float(text)
        if not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"must be finite, got {x}")
        if x < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {x}")
        return x

    return real


def _normal_form(args, suffix="") -> tuple[str, float]:
    """(kind, rate) of the --lambda/--shift flags, exactly one of which is given."""
    lam = getattr(args, "lam" + suffix)
    shift = getattr(args, "shift" + suffix)
    if (lam is None) == (shift is None):
        raise UsageError(f"give exactly one of --lambda{suffix} or --shift{suffix}")
    return ("hyperbolic", lam) if shift is None else ("parabolic", shift)


def _element_from_args(args, suffix=""):
    """The MoebiusElement of --alpha/--beta, or the (kind, rate) of the normal
    form, which acts in the line coordinate."""
    alpha = getattr(args, "alpha" + suffix)
    beta = getattr(args, "beta" + suffix)
    if alpha is not None or beta is not None:
        if alpha is None or beta is None:
            raise UsageError("--alpha and --beta must be given together")
        if getattr(args, "lam" + suffix) is not None or getattr(args, "shift" + suffix) is not None:
            raise UsageError(f"--alpha/--beta exclude --lambda{suffix} and --shift{suffix}")
        return moebius.MoebiusElement(alpha, beta)
    return _normal_form(args, suffix)


def _add_normal_form_flags(p, suffix=""):
    p.add_argument(
        "--lambda" + suffix, dest="lam" + suffix, type=_real(), default=None,
        help="hyperbolic normal form x -> lambda x",
    )
    p.add_argument(
        "--shift" + suffix, type=_real(), default=None,
        help="parabolic normal form x -> x + shift",
    )


def _add_element_flags(p, suffix=""):
    p.add_argument("--alpha" + suffix, type=_complex, default=None)
    p.add_argument("--beta" + suffix, type=_complex, default=None)
    _add_normal_form_flags(p, suffix)


# --- subcommands ---------------------------------------------------------------


def cmd_extend(args) -> int:
    f = _load_boundary(args.boundary)
    n = args.grid
    xs = np.linspace(-0.95, 0.95, n)
    xx, yy = np.meshgrid(xs, xs)
    zz = xx + 1j * yy
    inside = np.abs(zz) <= 0.95
    vals = np.full(zz.shape, np.nan + 0j, dtype=complex)
    vals[inside] = poisson.extend_many(f, zz[inside])
    re = np.where(inside, vals.real, np.nan)
    lo = float(np.nanmin(re))
    hi = float(np.nanmax(re))
    _write_pgm(args.out + ".pgm", re[::-1], "extend", args, lo, hi)
    columns = [a[inside] for a in (xx, yy, vals.real, vals.imag)]
    _write_csv(args.out + ".csv", "extend", args, ["x", "y", "re", "im"], columns)
    return 0


def cmd_act(args) -> int:
    f = _load_boundary(args.boundary)
    *_, moved = chaos.translates(f, _element_from_args(args), 1)
    _save_boundary(args.out, moved, _config_dict("act", args))
    return 0


def cmd_orbit(args) -> int:
    f = _load_boundary(args.boundary)
    ex = CompactExhaustion()
    rows = []
    for n, fn in enumerate(chaos.translates(f, _element_from_args(args), args.steps)):
        val, bar = poisson.metric_norm(HarmonicFunction(fn), ex)
        m = fn.mean()
        rows.append((n, val, bar, m.real, m.imag))
    _write_csv(
        args.out, "orbit", args, ["n", "norm", "norm_bar", "mean_re", "mean_im"], zip(*rows)
    )
    return 0


def cmd_dense(args) -> int:
    kind, rate = _normal_form(args)
    family = chaos.TargetFamily.generate(args.levels, args.seed)
    rows = chaos.dense_orbit_report(family, chaos.schedule(kind, rate, args.levels))
    columns = zip(*((r.n, r.k, r.dist, r.bound, r.error_bar) for r in rows))
    _write_csv(args.out, "dense", args, ["n", "k_n", "dist", "bound", "error_bar"], columns)
    return 0 if all(r.ok for r in rows) else 2


def cmd_periodic(args) -> int:
    kind, rate = _normal_form(args)
    f = _load_boundary(args.boundary)
    approx = chaos.build_periodic_approximant(f, args.epsilon, kind, rate)
    l1, l1_bar = approx.l1_defect()
    dist, bar = approx.metric_defect()
    _save_boundary(args.out + ".json", approx.function.boundary, _config_dict("periodic", args))
    _write_csv(
        args.out + ".csv",
        "periodic",
        args,
        ["epsilon", "n", "k", "l1_defect", "l1_bar", "metric_defect", "metric_bar"],
        zip((args.epsilon, approx.n, approx.k, l1, l1_bar, dist, bar)),
    )
    return 0 if dist + bar <= args.epsilon else 2


def cmd_arcflow(args) -> int:
    m = chaos.line_map(_element_from_args(args))
    zeta, theta = iterate_arc(m, Arc(args.base_zeta, args.base_theta), args.steps)
    columns = [np.arange(args.steps + 1), zeta.real, zeta.imag, theta]
    _write_csv(args.out, "arcflow", args, ["step", "zeta_re", "zeta_im", "theta"], columns)
    return 0


def cmd_foliate(args) -> int:
    group = foliation.genus2_group()
    base = Arc(args.base_zeta, args.base_theta)
    sample = foliation.orbit_sample(group, base, args.points, args.max_word_len, args.seed)
    cov = foliation.coverage_statistic(sample, args.grid)
    names = ["word_length", "zeta_re", "zeta_im", "theta"]
    columns = [sample.word_lengths, sample.zeta.real, sample.zeta.imag, sample.theta]
    _write_csv(args.out + ".csv", "foliate", args, names, columns)
    _write_json(
        args.out + ".json",
        {
            "config": _config_dict("foliate", args),
            "coverage": cov,
            "cells": int(round(cov * args.grid * args.grid)),
            "points": args.points,
        },
    )
    return 0


def cmd_conjugate(args) -> int:
    g1 = _element_from_args(args, "1")
    g2 = _element_from_args(args, "2")
    conj = chaos.conjugating_map(g1, g2)
    if args.boundary:
        f = _load_boundary(args.boundary)
    else:
        f = indicator(Arc(1.0, math.pi))
    residual, bar = conj.intertwine_residual(f)
    _write_json(
        args.out,
        {
            "config": _config_dict("conjugate", args),
            "kind": conj.kind,
            "exponent": conj.exponent,
            "intertwine_residual": residual,
            "residual_bar": bar,
        },
    )
    return 0 if residual <= args.tol + bar else 2


def cmd_projective(args) -> int:
    rng = np.random.default_rng(args.seed)
    group = foliation.genus2_group()
    letters = group.letters()
    worst_inv = 0.0
    worst_cone = 0.0
    rows = []
    for i in range(args.samples):
        p = foliation.random_projective_point(rng)
        g = letters[int(rng.integers(0, len(letters)))]
        z = 0.8 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        z = complex(z)
        gz = moebius.act_disc(g, z)
        gp = foliation.projective_act(g, p)
        inv = abs(foliation.projective_f(gz, gp) - foliation.projective_f(z, p))
        cone = gp.cone_residual()
        worst_inv = max(worst_inv, inv)
        worst_cone = max(worst_cone, cone)
        rows.append((i, inv, cone))
    _write_csv(
        args.out, "projective", args, ["i", "invariance_residual", "cone_residual"], zip(*rows)
    )
    return 0 if worst_inv <= args.tol and worst_cone <= args.tol else 2


def cmd_limit(args) -> int:
    f = _load_boundary(args.boundary)
    gamma = _element_from_args(args)
    kind = chaos.class_of(gamma)
    if kind not in ("hyperbolic", "parabolic"):
        raise ValueError(f"{kind} element does not push orbits to the boundary")
    rows = poisson.limit_diagnostic(chaos.translates(f, gamma, args.nmax))
    columns = zip(*((n, osc, v.real, v.imag) for n, osc, v in rows))
    _write_csv(args.out, "limit", args, ["n", "oscillation", "value_re", "value_im"], columns)
    return 0


# --- parser ---------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged."""
    top = _Parser(prog="discdyn", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", parents=[], help="harmonic extension heatmap + CSV")
    p.add_argument("--boundary", required=True)
    # with 1 or 2 points a side, no grid point lies in |z| <= 0.95
    p.add_argument("--grid", type=_count(3), default=64)
    p.add_argument("--out", default="extend")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("act", help="f o gamma^-1; --lambda/--shift act on the line coordinate")
    p.add_argument("--boundary", required=True)
    _add_element_flags(p)
    p.add_argument("--out", default="act.json")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("orbit", help="norm and mean of f o gamma^-n, n = 0..steps")
    p.add_argument("--boundary", required=True)
    _add_element_flags(p)
    p.add_argument("--steps", type=_count(0), default=20)
    p.add_argument("--out", default="orbit.csv")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("dense", help="dense-orbit certificate rows")
    _add_normal_form_flags(p)
    p.add_argument("--levels", type=_count(1), default=6)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="dense.csv")
    p.set_defaults(func=cmd_dense)

    p = sub.add_parser("periodic", help="periodic approximant + defect report")
    p.add_argument("--boundary", required=True)
    p.add_argument("--epsilon", type=_real(), required=True)
    _add_normal_form_flags(p)
    p.add_argument("--out", default="periodic")
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("arcflow", help="iterate an element on one arc")
    _add_element_flags(p)
    p.add_argument("--base-zeta", type=_complex, default=complex(1.0))
    p.add_argument("--base-theta", type=_real(), default=math.pi)
    p.add_argument("--steps", type=_count(0), default=50)
    p.add_argument("--out", default="arcflow.csv")
    p.set_defaults(func=cmd_arcflow)

    p = sub.add_parser("foliate", help="genus-2 orbit sampling on the arc cylinder")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--points", type=_count(0), default=2000)
    p.add_argument("--max-word-len", type=_count(0), default=6)
    p.add_argument("--base-zeta", type=_complex, default=complex(1.0))
    p.add_argument("--base-theta", type=_real(), default=math.pi)
    p.add_argument("--grid", type=_count(1), default=32)
    p.add_argument("--out", default="foliate")
    p.set_defaults(func=cmd_foliate)

    p = sub.add_parser("conjugate", help="conjugating map + intertwining residual")
    _add_element_flags(p, "1")
    _add_element_flags(p, "2")
    p.add_argument("--boundary", default=None)
    p.add_argument("--tol", type=_real(0.0), default=1e-9)
    p.add_argument("--out", default="conjugate.json")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("projective", help="cone-model invariance residuals")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=_count(1), default=500)
    p.add_argument("--tol", type=_real(0.0), default=1e-9)
    p.add_argument("--out", default="projective.csv")
    p.set_defaults(func=cmd_projective)

    p = sub.add_parser("limit", help="iterate-to-constant table of f o gamma^-n, gamma divergent")
    p.add_argument("--boundary", required=True)
    _add_element_flags(p)
    p.add_argument("--nmax", type=_count(0), default=40)
    p.add_argument("--out", default="limit.csv")
    p.set_defaults(func=cmd_limit)

    return top


def _argv_from_config(path) -> list[str]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "command" not in data:
        raise UsageError("config file must be a JSON object with a 'command' key")
    params = data.get("params", {})
    if set(data) - {"command", "params"} or not isinstance(params, dict):
        keys = ", ".join(map(str, data))
        raise UsageError(f"config file takes 'command' and a 'params' object of flags, got: {keys}")
    argv = [str(data["command"])]
    for k, v in params.items():
        flag = "--" + str(k).replace("_", "-")
        if isinstance(v, bool):
            if v:
                argv.append(flag)
        else:
            argv += [flag, str(v)]
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] == ["--config"]:
            if len(argv) < 2:
                raise UsageError("--config needs a path")
            argv = _argv_from_config(argv[1]) + argv[2:]
        args = _build_parser().parse_args(argv)
        return int(args.func(args) or 0)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
