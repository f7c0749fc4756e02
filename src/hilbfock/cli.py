"""Command-line front end: model validation, products, tables, verifiers.

All primary output is a single JSON report on stdout (pretty-printed with
--pretty); progress notes go to stderr.  Exit codes: 0 pass, 1 verification
violation, 2 usage/model error, 3 computability-gate rejection.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from pathlib import Path

from .errors import EngineError, ModelError, UnknownCoefficientsError
from .fock import FockSpace, verify_heisenberg
from .models import load_model
from .partitions import PartitionFunction
from .rational import load_json, parse_int, parse_q, qstr
from .ring import (RingEngine, fit_polynomial_in_n, verify_a_homomorphism,
                   verify_affine_plane_quotient, verify_fh_ring,
                   verify_ideal_suite, verify_mod_h4_independence,
                   verify_n_independence, verify_polynomiality,
                   verify_ring_isomorphism)
from .surface import validate_model
from .vertex import (SparsePolynomial, lehn_apply, verify_lemma_ks,
                     verify_nonsense1)


# the largest level or weight a command accepts: no run above it would finish
REACH = 100


def parse_range(text):
    """'a..b' inclusive, or a single integer; levels lie in 0..REACH."""
    match = re.fullmatch(r"(-?[0-9]+)(?:\.\.(-?[0-9]+))?", text)
    if match is None:
        raise ValueError(f"--n {text!r} is neither a level a nor a range a..b")
    lo = parse_int(match[1], "--n")
    hi = lo if match[2] is None else parse_int(match[2], "--n")
    if hi < lo:
        raise ValueError("empty level range")
    if lo < 0:
        raise ValueError(f"level {lo} is negative")
    if hi > REACH:
        raise ValueError(f"level {hi} is out of reach; levels go up to {REACH}")
    return list(range(lo, hi + 1))


def parse_integer(text, option):
    """The integer that an option's text names, read through parse_int, so
    that a text which is no integer or has too many digits is refused in
    one message naming the option."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"{option} {text!r} is not an integer")
    return parse_int(text, option)


def parse_level(text):
    """A single nonnegative level: a range of several is a usage error."""
    levels = parse_range(text)
    if len(levels) > 1:
        raise ValueError(f"--n takes one level, got the range {text}")
    return levels[0]


def _basis_arg(model, obj):
    """A partition function that names a basis class: no class of the
    restriction ideal, no repeated part on an odd class."""
    rho = PartitionFunction.from_json(model, obj)
    for c, parts in rho.parts.items():
        if c in model.ideal_pivots:
            raise ValueError(f"class {model.basis[c].name!r} is in the restriction ideal")
        if model.parities[c] and len(set(parts)) < len(parts):
            raise ValueError(f"odd class {model.basis[c].name!r} has a repeated part")
    return rho


def _load_json_arg(text, option):
    """The JSON document that the option gives inline or as @file."""
    if text.startswith("@"):
        text = Path(text[1:]).read_text(encoding="utf-8")
    return load_json(text, option)


@functools.cache
def build_parser():
    top = argparse.ArgumentParser(prog="hilbfock", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pretty", action="store_true", help="indent JSON output")
    shared.add_argument("--timing", action="store_true",
                        help="include the wall-clock time of the computation in "
                        "the report (not the render or write of --out)")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(subs, name, cmd, levels=True, side=False, **kw):
        # no abbreviations: --n must not stand for --norm-bound
        p = subs.add_parser(name, parents=[shared], allow_abbrev=False, **kw)
        p.set_defaults(cmd=cmd)
        p.add_argument("--model", required=True, help="model file or built-in name")
        if levels:
            p.add_argument("--n", required=True, help="level")
        if side:
            p.add_argument("--side", choices=("hilbert", "orbifold"),
                           default="hilbert")
            p.add_argument("--s", help="deformation parameter t^{1/3} as p/q "
                           "(orbifold side only; default -1)")
        p.add_argument("--out", help="also write the report/table to this path")
        return p

    p = add_parser(sub, "validate", cmd_validate, levels=False,
                   help="check the model invariants")
    p.add_argument("--check-euler", action="store_true",
                   help="also warn on Euler-characteristic inconsistencies")

    p = add_parser(sub, "product", cmd_product, side=True, help="expand one basis product")
    p.add_argument("--rho", required=True, help="JSON {class: [parts..]} or @file")
    p.add_argument("--sigma", required=True, help="JSON {class: [parts..]} or @file")
    p.add_argument("--dump", help="write the raw product vector JSON here")

    add_parser(sub, "structure-constants", cmd_structure_constants, side=True,
               help="full table at one level")

    p = add_parser(sub, "orb-structure-constants", cmd_structure_constants,
                   help="deformed-product table at one level")
    p.add_argument("--s", default="-1", help="deformation parameter t^{1/3}")
    p.set_defaults(side="orbifold")

    p = sub.add_parser("lehn-apply", parents=[shared],
                       help="apply the degree-k differential operator to a polynomial")
    p.set_defaults(cmd=cmd_lehn)
    p.add_argument("--k", required=True)
    p.add_argument("--poly", required=True, help="polynomial JSON file ('-' for stdin)")
    p.add_argument("--out", help="write the image polynomial here")

    # one sub-parser per verifier with only the options it reads (n and
    # triple are None if unread)
    ids = sub.add_parser("verify", help="run a named theorem verifier (options "
                         "follow the id)").add_subparsers(dest="id", required=True)
    for vid, (options, _) in REGISTRY.items():
        p = add_parser(ids, vid, cmd_verify, levels=False)
        p.set_defaults(n=None, triple=None)
        for option in options:
            p.add_argument(option, **VERIFY_OPTIONS[option])
    return top


def _report(command, model_hash, params, status="pass", witnesses=(), details=None):
    """The report of one command, deterministic given its model and
    parameters: main adds the run's timing_ms only under --timing."""
    return {"command": command, "model": model_hash, "params": params,
            "status": status, "witnesses": list(witnesses), "details": details or {}}


def _emit(report, args, chunks=None):
    """Print the report, compact or indented under --pretty; with --out, also
    write the chunks of text, or else the indented report, to that path, each
    chunk as it comes."""
    if args.out is not None:
        if chunks is None:
            chunks = [json.dumps(report, indent=2, sort_keys=True) + "\n"]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    json.dump(report, sys.stdout, sort_keys=True, **layout)
    sys.stdout.write("\n")


def _engine(model, args):
    """The ring engine of the requested side; s (default -1) is for the orbifold only."""
    if args.side == "orbifold":
        return RingEngine(model, parse_q("-1" if args.s is None else args.s, "--s"))
    if args.s is not None:
        raise ValueError("--s applies only with --side orbifold")
    return RingEngine(model)


def _side_params(engine):
    """The report params naming the ring: the side, and s on the orbifold side."""
    if engine.side == "orbifold":
        return {"side": engine.side, "s": qstr(engine.fock.s)}
    return {"side": engine.side}


def cmd_validate(args):
    model = load_model(args.model)
    diags = validate_model(model, check_euler=args.check_euler)
    errors = [d for d in diags if not d.startswith("warning:")]
    status = "pass" if not errors else "fail"
    return _report("validate", model.content_hash,
                   {"model": args.model, "check_euler": args.check_euler},
                   status, errors, {"diagnostics": diags}), None


def cmd_product(args):
    model = load_model(args.model)
    n = parse_level(args.n)
    engine = _engine(model, args)
    rho, sigma = (_basis_arg(model, _load_json_arg(text, option))
                  for text, option in ((args.rho, "--rho"), (args.sigma, "--sigma")))
    vec = engine.product_index(rho, sigma, n)
    coords = engine.coordinates(vec, n)
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(engine.fock_vector(vec, n).to_json(model), fh, indent=2)
            fh.write("\n")
    expansion = [{"nu": nu.to_json(model), "coeff": qstr(c)}
                 for nu, c in sorted(coords.items(), key=lambda t: t[0].key())]
    return _report("product", model.content_hash,
                   {"n": n, **_side_params(engine),
                    "rho": rho.to_json(model), "sigma": sigma.to_json(model)},
                   details={"expansion": expansion}), None


def cmd_structure_constants(args):
    model = load_model(args.model)
    n = parse_level(args.n)
    engine = _engine(model, args)
    # computed for its always-on checks; rendered only for --out to read,
    # by _emit as it writes, one row at a time
    table = engine.structure_constants(n)
    chunks = table.render() if args.out is not None else None
    return _report("structure-constants", model.content_hash,
                   {"n": n, **_side_params(engine)},
                   details={"entries": len(engine.basis(n)) ** 2}), chunks


def cmd_lehn(args):
    k = parse_integer(args.k, "--k")
    text = sys.stdin.read() if args.poly == "-" else Path(args.poly).read_text(encoding="utf-8")
    image = lehn_apply(k, SparsePolynomial.from_json(load_json(text, "--poly")))
    out = image.to_json()
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    return _report("lehn-apply", "-", {"k": k}, details={"image": out}), [text]


# -- verifiers: each id maps (model, levels, args) to one library call ---------
# The call builds the ring a single-ring verifier checks (the Fock space for
# heisenberg) and hands it over; a verifier that derives or compares rings, or
# checks the ambient side, takes the model.  The library verifier owns its
# level loop and level count, its preconditions and the refusal of a run that
# would check nothing.  Its report is {"ok", "witnesses", ...}: the keys after
# those two are the details printed.


def _fit_triple(model, levels, text):
    """polynomiality --triple: the fit of the one triple that text names."""
    spec = _load_json_arg(text, "--triple")
    keys = ("rho", "sigma", "nu")
    shape = "--triple must be a JSON object {rho, sigma, nu}"
    if not isinstance(spec, dict):
        raise ValueError(shape)
    missing = [k for k in keys if k not in spec]
    if missing:
        raise ValueError(f"{shape}: missing {missing[0]!r}")
    engine = RingEngine(model)
    rho, sigma, nu = (_basis_arg(model, spec[k]) for k in keys)
    return fit_polynomial_in_n(engine, rho, sigma, nu, levels)


# the options a verifier may read, each declared once; the integer bounds
# keep their text, which cmd_verify reads through parse_integer
VERIFY_OPTIONS = {
    "--n": {"help": "level or inclusive range a..b"},
    "--s": {"default": "-1", "help": "deformation parameter t^{1/3}"},
    "--triple": {"help": "JSON {rho, sigma, nu} or @file: fit this one triple"},
    "--norm-bound": {"default": "5"},
    "--max-weight": {"default": "5"},
    "--max-index": {"default": "4"},
}
BOUNDS = ("--norm-bound", "--max-weight", "--max-index")

# verifier id -> (options it reads, call on (model, levels, args))
REGISTRY = {
    "heisenberg": (("--max-weight", "--max-index"), lambda m, ns, a:
                   verify_heisenberg(FockSpace(m), a.max_weight, a.max_index)),
    "lemma-ks": (("--max-weight",), lambda m, ns, a: verify_lemma_ks(m, 5, a.max_weight)),
    "nonsense1": ((), lambda m, ns, a: verify_nonsense1(m)),
    "ideal": (("--n",), lambda m, ns, a: verify_ideal_suite(m, ns, ("absorb", "contains"))),
    "ideal-generators": (("--n",), lambda m, ns, a: verify_ideal_suite(m, ns, ("generate",))),
    "n-independence": (("--n",), lambda m, ns, a: verify_n_independence(RingEngine(m), ns)),
    "mod-h4-independence": (("--n",), lambda m, ns, a: verify_mod_h4_independence(m, ns)),
    "polynomiality": (("--n", "--triple"), lambda m, ns, a:
                      verify_polynomiality(RingEngine(m), ns)),
    "fh-ring": (("--norm-bound",), lambda m, ns, a: verify_fh_ring(RingEngine(m), a.norm_bound)),
    "c2-quotient": (("--n",), lambda m, ns, a: verify_affine_plane_quotient(m, ns)),
    "a-homomorphism": (("--n",), lambda m, ns, a: verify_a_homomorphism(RingEngine(m), ns)),
    "ring-isom": (("--n",), lambda m, ns, a: verify_ring_isomorphism(m, ns)),
    "orb-n-independence": (("--n", "--s"), lambda m, ns, a:
                           verify_n_independence(RingEngine(m, parse_q(a.s, "--s")), ns)),
}


def cmd_verify(args):
    model = load_model(args.model)
    vid = args.id
    options, call = REGISTRY[vid]
    # an integer bound is a level, a weight or an index: no run above REACH
    # would finish (lemma-ks alone checks about (2w)^5/120 words at weight w)
    for option in (o for o in options if o in BOUNDS):
        dest = option[2:].replace("-", "_")
        value = parse_integer(getattr(args, dest), option)
        if value > REACH:
            raise ValueError(f"{option} {value} is out of reach; "
                             f"verifiers take at most {REACH}")
        setattr(args, dest, value)
    levels = parse_range(args.n) if args.n else None
    if levels is None and "--n" in options:
        raise ValueError(f"verifier {vid!r} needs --n")
    if args.triple is not None:
        rep = details = _fit_triple(model, levels, args.triple)  # printed whole
    else:
        rep = call(model, levels, args)
        details = {k: v for k, v in rep.items() if k not in ("ok", "witnesses")}
    return _report("verify", model.content_hash, {"id": vid, "n": args.n},
                   "pass" if rep["ok"] else "fail", rep["witnesses"], details), None


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a token such as -7/2 as an option: glue it to --s
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--s" and re.fullmatch(r"-\d+/\d+", argv[i]):
            argv[i - 1:i + 1] = ["--s=" + argv[i]]
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report, chunks = args.cmd(args)
        if args.timing:
            report["timing_ms"] = int((time.monotonic() - started) * 1000)
        _emit(report, args, chunks)
    except UnknownCoefficientsError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    except (ModelError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
