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

from . import cache
from .errors import EngineError, ModelError, UnknownCoefficientsError
from .fock import FockSpace, heisenberg_witnesses
from .models import load_model
from .partitions import PartitionFunction
from .rational import parse_q, qstr
from .reports import RunReport
from .ring import (RingEngine, fit_polynomial_in_n, verify_a_homomorphism,
                   verify_affine_plane_quotient, verify_fh_ring,
                   verify_ideal_suite, verify_marker_vanishing,
                   verify_mod_h4_independence, verify_n_independence,
                   verify_orb_n_independence, verify_polynomiality,
                   verify_ring_isomorphism)
from .surface import validate_model
from .vertex import (SparsePolynomial, lehn_apply, verify_lemma_ks,
                     verify_nonsense1)


# the largest level or weight a command accepts: no run above it would finish
REACH = 100


def parse_range(text):
    """'a..b' inclusive, or a single integer; levels lie in 0..REACH."""
    if ".." in text:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError("empty level range")
    else:
        lo = hi = int(text)
    if lo < 0:
        raise ValueError(f"level {lo} is negative")
    if hi > REACH:
        raise ValueError(f"level {hi} is out of reach; levels go up to {REACH}")
    return list(range(lo, hi + 1))


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


def _load_json_arg(text):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


@functools.cache
def build_parser():
    top = argparse.ArgumentParser(prog="hilbfock", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pretty", action="store_true", help="indent JSON output")
    shared.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")
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
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--poly", required=True, help="polynomial JSON file ('-' for stdin)")
    p.add_argument("--out", help="write the image polynomial here")

    # one sub-parser per verifier with only the options it reads (n is None if unread)
    ids = sub.add_parser("verify", help="run a named theorem verifier (options "
                         "follow the id)").add_subparsers(dest="id", required=True)
    for vid, (_, options, _) in REGISTRY.items():
        p = add_parser(ids, vid, cmd_verify, levels=False)
        p.set_defaults(n=None)
        for option in options:
            p.add_argument(option, **VERIFY_OPTIONS[option])
    return top


def _emit(report, args, text=None):
    """Print the report; with --out, also write text, or else the indented
    report, to that path."""
    if args.out:
        if text is None:
            text = json.dumps(report.to_json(with_timing=args.timing), indent=2,
                              sort_keys=True) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    report.emit(pretty=args.pretty, with_timing=args.timing)


def _table_text(engine, model, n):
    """The structure-table file: the cached text, or else the rendered text,
    which is then stored.  The kind changes whenever the file text does."""
    key = cache.cache_key(model.content_hash, "structure-table-file",
                          n=n, side=engine.side, s=qstr(engine.fock.kappa))
    text = cache.load(key)
    if text is None:
        text = engine.structure_constants(n).render(model)
        cache.store(key, text)
    return text


def _engine(model, args):
    """The ring engine of the requested side; s (default -1) is for the orbifold only."""
    if args.side == "orbifold":
        return RingEngine(model, parse_q("-1" if args.s is None else args.s))
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
    return RunReport("validate", model.content_hash,
                     {"model": args.model, "check_euler": args.check_euler},
                     status, witnesses=errors,
                     details={"diagnostics": diags}), None


def cmd_product(args):
    model = load_model(args.model)
    n = parse_level(args.n)
    engine = _engine(model, args)
    rho, sigma = (_basis_arg(model, _load_json_arg(a)) for a in (args.rho, args.sigma))
    coords = engine.b_product(rho, sigma, n)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(engine.product_vector(rho, sigma, n).to_json(model),
                      fh, indent=2)
            fh.write("\n")
    expansion = [{"nu": nu.to_json(model), "coeff": qstr(c)}
                 for nu, c in sorted(coords.items(), key=lambda t: t[0].key())]
    return RunReport("product", model.content_hash,
                     {"n": n, **_side_params(engine),
                      "rho": rho.to_json(model), "sigma": sigma.to_json(model)},
                     "pass", details={"expansion": expansion}), None


def cmd_structure_constants(args):
    model = load_model(args.model)
    n = parse_level(args.n)
    engine = _engine(model, args)
    # render only for a reader of the text: --out or the on-disk cache
    text = None
    if args.out or cache.cache_dir():
        text = _table_text(engine, model, n)
    else:
        engine.structure_constants(n)  # for its always-on checks
    return RunReport("structure-constants", model.content_hash,
                     {"n": n, **_side_params(engine)}, "pass",
                     details={"entries": len(engine.basis(n)) ** 2}), text


def cmd_lehn(args):
    if args.poly == "-":
        obj = json.load(sys.stdin)
    else:
        with open(args.poly, encoding="utf-8") as fh:
            obj = json.load(fh)
    image = lehn_apply(args.k, SparsePolynomial.from_json(obj))
    out = image.to_json()
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    return RunReport("lehn-apply", "-", {"k": args.k}, "pass",
                     details={"image": out}), text


# -- verifiers: each maps (model, levels, args) to (ok, witnesses, details) -----


def _merged(reps):
    return all(r["ok"] for r in reps), [w for r in reps for w in r["witnesses"]]


def _instances(rep):
    if not rep["instances_checked"]:
        raise ValueError("the bounds leave no instance to check; widen them")
    return rep["ok"], rep["witnesses"], {"instances_checked": rep["instances_checked"]}


def _triples(rep, **extra):
    return rep["ok"], rep["witnesses"], {"triples_checked": rep["triples_checked"],
                                         **extra}


def _heisenberg(model, levels, args):
    # weight 0 (the vacuum) and index 1 are the least that check a bracket
    if args.max_weight < 0 or args.max_index < 1:
        raise ValueError("the bounds leave no bracket to check; need "
                         "--max-weight >= 0 and --max-index >= 1")
    wit = heisenberg_witnesses(FockSpace(model), max_weight=args.max_weight,
                               max_index=args.max_index)
    return not wit, wit, {}


def _ideal_suite(parts):
    def run(model, levels, args):
        reps = [verify_ideal_suite(model, n, parts) for n in levels]
        if not any(r["ideal_dimension"] for r in reps):
            raise ValueError(f"no level in --n {args.n} has an ideal monomial "
                             "to check; widen --n")
        return (*_merged(reps), {
            "levels": levels,
            "exact_generators": all(r["exact_generators"] for r in reps)})
    return run


def _n_independence(model, levels, args):
    if not model.has_ideal:
        raise ModelError("level-independence needs a model with an ideal; "
                         "use mod-h4-independence for projective models")
    return _triples(verify_n_independence(RingEngine(model), levels))


def _polynomiality(model, levels, args):
    if args.triple:
        spec = _load_json_arg(args.triple)
        keys = ("rho", "sigma", "nu")
        shape = "--triple must be a JSON object {rho, sigma, nu}"
        if not isinstance(spec, dict):
            raise ValueError(shape)
        missing = [k for k in keys if k not in spec]
        if missing:
            raise ValueError(f"{shape}: missing {missing[0]!r}")
        engine = RingEngine(model)
        rho, sigma, nu = (_basis_arg(model, spec[k]) for k in keys)
        rep = fit_polynomial_in_n(engine, rho, sigma, nu, levels)
        return rep["ok"], rep["witnesses"], rep
    rep = verify_polynomiality(model, levels)
    if not rep["triples_fitted"]:
        raise ValueError(f"no triple has enough levels in {levels[0]}..{levels[-1]} "
                         "for a checked fit; widen --n")
    return rep["ok"], rep["witnesses"], {"triples_fitted": rep["triples_fitted"]}


def _fh_ring(model, levels, args):
    if args.norm_bound < 0:
        raise ValueError("the bounds leave no monomial to check; need --norm-bound >= 0")
    rep = verify_fh_ring(model, norm_bound=args.norm_bound,
                         cost_bound=min(args.norm_bound, 5))
    return rep["ok"], rep["witnesses"], {
        k: rep[k] for k in ("monomials_checked", "independent", "generation_window")}


def _require_positive(levels, args):
    """At level 0 the ring is b_empty . b_empty = b_empty, which holds by
    construction: a run on level 0 alone checks nothing."""
    if not any(levels):
        raise ValueError(f"--n {args.n} has no level >= 1 to check; widen --n")


def _c2_quotient(model, levels, args):
    _require_positive(levels, args)
    return (*_merged([verify_affine_plane_quotient(model, n) for n in levels]),
            {"levels": levels})


def _a_homomorphism(model, levels, args):
    engine = RingEngine(model)
    return (*_merged([verify_a_homomorphism(engine, n) for n in levels]),
            {"levels": levels})


def _ring_isom(model, levels, args):
    _require_positive(levels, args)
    ok, witnesses = _merged([verify_ring_isomorphism(model, n) for n in levels])
    details = {"levels": levels}
    if model.has_ideal:
        marker = verify_marker_vanishing(model, max(levels))
        ok = ok and marker["ok"]
        witnesses += marker["witnesses"]
        details["marker_terms_checked"] = marker["terms_checked"]
    return ok, witnesses, details


# the options a verifier may read, each declared once
VERIFY_OPTIONS = {
    "--n": {"help": "level or inclusive range a..b"},
    "--s": {"default": "-1", "help": "deformation parameter t^{1/3}"},
    "--triple": {"help": "JSON {rho, sigma, nu} or @file: fit this one triple"},
    "--norm-bound": {"type": int, "default": 5},
    "--max-weight": {"type": int, "default": 5},
    "--max-index": {"type": int, "default": 4},
}

# verifier id -> (least number of levels --n must give, options it reads, run)
REGISTRY = {
    "heisenberg": (0, ("--max-weight", "--max-index"), _heisenberg),
    "lemma-ks": (0, ("--max-weight",), lambda model, levels, args: _instances(
        verify_lemma_ks(model, ksum_max=5, weight_max=args.max_weight))),
    "nonsense1": (0, (), lambda model, levels, args: _instances(verify_nonsense1(model))),
    "ideal": (1, ("--n",), _ideal_suite(("absorb", "contains"))),
    "ideal-generators": (1, ("--n",), _ideal_suite(("generate",))),
    "n-independence": (2, ("--n",), _n_independence),
    "mod-h4-independence": (2, ("--n",), lambda model, levels, args: _triples(
        verify_mod_h4_independence(model, levels))),
    "polynomiality": (1, ("--n", "--triple"), _polynomiality),
    "fh-ring": (0, ("--norm-bound",), _fh_ring),
    "c2-quotient": (1, ("--n",), _c2_quotient),
    "a-homomorphism": (1, ("--n",), _a_homomorphism),
    "ring-isom": (1, ("--n",), _ring_isom),
    "orb-n-independence": (2, ("--n", "--s"), lambda model, levels, args: _triples(
        verify_orb_n_independence(model, levels, parse_q(args.s)), s=args.s)),
}


def cmd_verify(args):
    model = load_model(args.model)
    vid = args.id
    least, options, run = REGISTRY[vid]
    # an integer bound is a level, a weight or an index: no run above REACH
    # would finish (lemma-ks alone checks about (2w)^5/120 words at weight w)
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if VERIFY_OPTIONS[option].get("type") is int and value > REACH:
            raise ValueError(f"{option} {value} is out of reach; "
                             f"verifiers take at most {REACH}")
    levels = parse_range(args.n) if args.n else None
    if least and len(levels or ()) < least:
        raise ValueError(f"verifier {vid!r} needs --n" +
                         (f" with at least {least} levels" if least > 1 else ""))
    ok, witnesses, details = run(model, levels, args)
    return RunReport("verify", model.content_hash, {"id": vid, "n": args.n},
                     "pass" if ok else "fail", witnesses=witnesses,
                     details=details), None


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a token such as -7/2 as an option: glue it to --s
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--s" and re.fullmatch(r"-\d+/\d+", argv[i]):
            argv[i - 1:i + 1] = ["--s=" + argv[i]]
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report, text = args.cmd(args)
        report.timing_ms = int((time.monotonic() - started) * 1000)
        _emit(report, args, text)
    except UnknownCoefficientsError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    except (ModelError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
