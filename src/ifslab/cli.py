"""Command-line interface: reproducible experiments with CSV/JSON output.

Every payload starts with a header echoing the command, its parsed
arguments and the tool version, so output files are self-describing and
byte-stable across runs.  Each ``cmd_*`` returns its payload and exit code;
`main` writes the payload to stdout and to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Tuple

from . import __version__
from . import commensurability as comm
from .dimension import check_osc_hull, similarity_dimension, ssc_gap
from .embedding import (fractional_orbit, renormalize_family,
                        self_embedding_family, verify_embedding)
from .errors import IfslabError, InvalidParameterError
from .measures import (ParamMeasure, act_convolve, entropy_dimension,
                       self_similar_measure)
from .similarity import IFS, Similarity, as_fraction
from .suite import run_paper_suite

_POW2 = re.compile(r"^2\^(-?\d+)$")
_LOGQ = re.compile(r"^log\(([^)]+)\)\s*/\s*log\(([^)]+)\)$")


def _parse_rational(text: str) -> Fraction:
    m = _POW2.match(text.strip())
    if m:
        return Fraction(2) ** int(m.group(1))
    return as_fraction(text.strip())


def _parse_g(text: str) -> Similarity:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidParameterError(f'expected "ratio,translation", got {text!r}')
    return Similarity(_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_x(text: str):
    m = _LOGQ.match(text.strip())
    if m:
        return comm._log_ratio(_parse_rational(m.group(1)),
                               _parse_rational(m.group(2)), 40)
    try:
        return _parse_rational(text)
    except IfslabError:
        return float(text)


def _load_json(path: str):
    """The JSON document in a file; an unreadable or malformed file is an
    input error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise InvalidParameterError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}") from e
    except OSError as e:
        raise InvalidParameterError(str(e)) from e


def _load_ifs(path: str) -> IFS:
    return IFS.from_dict(_load_json(path))


def _load_param_measure(path: str) -> ParamMeasure:
    d = _load_json(path)
    try:
        scale = [float(as_fraction(v)) for v in d["scale"]]
        trans = [float(as_fraction(v)) for v in d["trans"]]
        nx, ny = d["grid"]
        return ParamMeasure.uniform(tuple(scale), tuple(trans), (nx, ny))
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidParameterError(f"bad measure spec in {path}: {e}") from e


def _config(args) -> dict:
    """The subcommand's parsed arguments, echoed by every report."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "out")}


def _header(args) -> str:
    cfg = json.dumps(_config(args), sort_keys=True, default=str)
    return (f"# ifslab {__version__}\n"
            f"# command: {args.command}\n"
            f"# config: {cfg}\n")


def _json_doc(args, result: dict) -> str:
    return json.dumps({"tool": "ifslab", "version": __version__,
                       "command": args.command, "config": _config(args),
                       "result": result},
                      sort_keys=True, default=str, indent=2) + "\n"


def _weights(arg: str):
    if arg == "maximal":
        return arg
    return [float(as_fraction(w)) for w in arg.split(",")]


def _entropy_csv(args, theta) -> str:
    curve = entropy_dimension(theta, args.nmin, args.nmax)
    lines = [_header(args) + "n,H_bits"]
    lines += [f"{n},{h:.12f}" for n, h in curve.points]
    lines.append(f"slope,{curve.slope:.12f}")
    return "\n".join(lines) + "\n"


def cmd_dim(args) -> Tuple[str, int]:
    ifs = _load_ifs(args.ifs)
    s = similarity_dimension(ifs)
    return _header(args) + f"{s:.15g}\n", 0


def cmd_separation(args) -> Tuple[str, int]:
    ifs = _load_ifs(args.ifs)
    cert = ssc_gap(ifs, args.depth)
    if cert.kind == "none":
        osc = check_osc_hull(ifs)
        if osc.kind != "none":
            cert = osc
    result = {"kind": cert.kind, "gap": str(cert.gap), "witness": cert.witness}
    return _json_doc(args, result), 0


def cmd_entropy(args) -> Tuple[str, int]:
    ifs = _load_ifs(args.ifs)
    theta = self_similar_measure(ifs, _weights(args.weights), args.level)
    return _entropy_csv(args, theta), 0


def cmd_convolve(args) -> Tuple[str, int]:
    nu = _load_param_measure(args.nu)
    ifs = _load_ifs(args.mu)
    mu = self_similar_measure(ifs, _weights(args.weights), args.level)
    conv = act_convolve(nu, mu, args.out_level)
    return _entropy_csv(args, conv), 0


def cmd_embed_check(args) -> Tuple[str, int]:
    F, E = _load_ifs(args.F), _load_ifs(args.E)
    g = _parse_g(args.g)
    verdict = verify_embedding(g, F, E, _parse_rational(args.res))
    result = {"status": verdict.status, "resolution": str(verdict.resolution)}
    if verdict.status == "rejected":
        result["witness_word"] = list(verdict.witness_word)
        result["witness_interval"] = [str(verdict.witness_interval.lo),
                                      str(verdict.witness_interval.hi)]
    failed = args.expect is not None and args.expect != verdict.status
    return _json_doc(args, result), int(failed)


def cmd_renorm(args) -> Tuple[str, int]:
    F, E = _load_ifs(args.F), _load_ifs(args.E)
    g = _parse_g(args.g)
    delta0 = _parse_rational(args.res)
    if args.self_embedding:
        fam = self_embedding_family(g, F, args.nmax, delta0)
    else:
        fam = renormalize_family(g, F, E, args.i, args.nmax, delta0)
    lines = [_header(args) +
             f"# kappa={fam.kappa} c={fam.c} p={fam.p} N={fam.N}\n"
             "n,l_n,frac_n,eta_n,t_n,verified"]
    for e in fam.entries:
        lines.append(f"{e.n},{e.l_n},{e.frac:.12f},{e.eta:.12g},"
                     f"{float(e.t):.12g},{int(e.verified)}")
    return "\n".join(lines) + "\n", 0


def cmd_orbit(args) -> Tuple[str, int]:
    rep = fractional_orbit(_parse_x(args.x), args.N)
    lines = [_header(args) + "i,frac"]
    lines += [f"{i},{v:.12f}" for i, v in enumerate(rep.points)]
    lines.append(f"count,{rep.count}")
    lines.append(f"max_gap,{rep.max_gap:.12f}")
    lines.append(f"distinct_gap_lengths,{rep.distinct_gap_lengths}")
    return "\n".join(lines) + "\n", 0


def cmd_commensurable(args) -> Tuple[str, int]:
    res = comm.log_commensurable(_parse_rational(args.alpha),
                                 _parse_rational(args.beta))
    result = {"verdict": res.verdict, "p": res.p, "q": res.q,
              "certificate": res.certificate}
    return _json_doc(args, result), 0


def cmd_exponents(args) -> Tuple[str, int]:
    F, E = _load_ifs(args.F), _load_ifs(args.E)
    m = comm.conjecture_exponents(F, E)
    rows = [None if r is None else [str(t) for t in r] for r in m.rows]
    result = {"rows": rows, "has_negative": list(m.has_negative)}
    return _json_doc(args, result), 0


def cmd_pisot(args) -> Tuple[str, int]:
    coeffs = [int(c) for c in args.poly.split(",")]
    v = comm.is_pisot(coeffs)
    result = {"polynomial": list(v.polynomial),
              "dominant_root": v.dominant_root,
              "conjugate_moduli": list(v.conjugate_moduli),
              "is_pisot": v.is_pisot, "salem_suspect": v.salem_suspect,
              "max_residual": v.max_residual}
    return _json_doc(args, result), 0


def cmd_paper_suite(args) -> Tuple[str, int]:
    results = run_paper_suite()
    lines = [_header(args).rstrip("\n")]
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    n_ok = sum(ok for _, ok, _ in results)
    lines.append(f"{n_ok}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n", int(n_ok != len(results))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ifslab",
        description="self-similar sets, entropy dimension, certified "
                    "affine embeddings and log-commensurability arithmetic")
    ap.add_argument("--version", action="version",
                    version=f"ifslab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        p.add_argument("--out", help="also write the output to this file")
        return p

    p = add("dim", cmd_dim, help="similarity dimension via the Moran equation")
    p.add_argument("ifs")

    p = add("separation", cmd_separation, help="SSC/OSC separation certificate")
    p.add_argument("ifs")
    p.add_argument("--depth", type=int, default=None)

    p = add("entropy", cmd_entropy, help="dyadic entropy curve and slope")
    p.add_argument("ifs")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--weights", default="maximal")

    p = add("convolve", cmd_convolve,
            help="entropy curve of the action convolution nu.mu")
    p.add_argument("nu", help="JSON measure on the similarity group")
    p.add_argument("mu", help="IFS JSON for the line measure")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out-level", type=int, required=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--weights", default="maximal")

    p = add("embed-check", cmd_embed_check,
            help="certified affine-embedding check at a resolution")
    p.add_argument("F")
    p.add_argument("E")
    p.add_argument("--g", required=True, help='affine map as "ratio,trans"')
    p.add_argument("--res", default="2^-12")
    p.add_argument("--expect", choices=["consistent", "rejected"])

    p = add("renorm", cmd_renorm, help="renormalization family of embeddings")
    p.add_argument("F")
    p.add_argument("E")
    p.add_argument("--g", required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--res", default="2^-12")
    p.add_argument("--self-embedding", action="store_true")

    p = add("orbit", cmd_orbit, help="fractional-part orbit diagnostics")
    p.add_argument("--x", required=True,
                   help='a rational, float, or "log(a)/log(b)"')
    p.add_argument("--N", type=int, required=True)

    p = add("commensurable", cmd_commensurable,
            help="exact log-commensurability of two ratios")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = add("exponents", cmd_exponents,
            help="rational exponent matrix alpha_i = prod beta_j^t_ij")
    p.add_argument("F")
    p.add_argument("E")

    p = add("pisot", cmd_pisot, help="Pisot root-pattern test")
    p.add_argument("--poly", required=True,
                   help="monic integer coefficients, constant last")

    add("paper-suite", cmd_paper_suite,
        help="run every acceptance experiment and print a pass/fail table")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (IfslabError, ValueError, OSError) as e:
        print(f"ifslab: error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
