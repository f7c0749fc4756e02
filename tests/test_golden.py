"""Byte-identical gate on the command-line outputs of every built-in model.

Each case runs `hilbfock.cli.main` in-process and compares its exit code,
stdout, stderr and the sha256 of every file it writes against
`golden_outputs.json`.  The recording was made before the sparse-combination
refactor; a refactor must leave every byte as it was.  Re-record only for an
intended change of output:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hilbfock.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# {tmp} is replaced by a fresh directory; a file named poly.json there holds POLY.
POLY = {"terms": [{"coeff": "1", "monomial": {"1": 3}},
                  {"coeff": "-2/3", "monomial": {"1": 1, "2": 1}},
                  {"coeff": "5", "monomial": {"3": 1}}]}

_MODELS = ("c2", "p2", "toy_b2_1", "odd_toy", "ale_1", "ale_2", "k3_like")
_TABLES = [f"structure-constants --model {m} --n 3 --out {{tmp}}/t.json"
           for m in _MODELS] + [
    "structure-constants --model cotangent_g1 --n 2 --out {tmp}/t.json",
    "structure-constants --model c2 --n 5 --out {tmp}/t.json",
    "structure-constants --model toy_b2_1 --n 4 --out {tmp}/t.json",
]
_ORBIFOLD = [f"structure-constants --model {m} --n {n} --side orbifold --s {s} "
             "--out {tmp}/t.json"
             for m, n in [(m, 3) for m in _MODELS] + [("cotangent_g1", 2)]
             for s in ("-1", "1/2")] + [
    "orb-structure-constants --model ale_1 --n 3 --s 2 --out {tmp}/t.json",
    "orb-structure-constants --model ale_2 --n 4 --s 2 --out {tmp}/t.json",
    "structure-constants --model toy_b2_1 --n 2 --side orbifold --s 2 "
    "--out {tmp}/t.json",
]
_PRODUCTS = [
    'product --model c2 --n 3 --rho {"1":[1]} --sigma {"1":[1]} --dump {tmp}/v.json',
    'product --model ale_2 --n 3 --rho {"h1":[1]} --sigma {"h2":[1],"1":[1]} '
    "--side orbifold --s 1/2 --dump {tmp}/v.json",
    'product --model odd_toy --n 3 --rho {"u":[1]} --sigma {"v":[2]}',
    "lehn-apply --k 1 --poly {tmp}/poly.json --out {tmp}/image.json",
    "lehn-apply --k 2 --poly {tmp}/poly.json",
]
_VERIFY = [
    "verify heisenberg --model odd_toy --max-weight 3 --max-index 2",
    "verify heisenberg --model toy_b2_1 --max-weight 3 --max-index 2",
    "verify lemma-ks --model toy_b2_1 --max-weight 2",
    "verify lemma-ks --model odd_toy --max-weight 2",
    "verify nonsense1 --model toy_b2_1",
    "verify nonsense1 --model p2",
    "verify ideal --model c2 --n 2..3",
    "verify ideal --model cotangent_g1 --n 2",
    "verify ideal-generators --model ale_2 --n 2..3",
    "verify n-independence --model c2 --n 2..4",
    "verify n-independence --model ale_2 --n 2..3",
    "verify n-independence --model k3_like --n 2..3",
    "verify mod-h4-independence --model toy_b2_1 --n 2..3",
    "verify mod-h4-independence --model p2 --n 2..3",
    "verify polynomiality --model toy_b2_1 --n 3..6",
    "verify polynomiality --model p2 --n 3..6",
    'verify polynomiality --model toy_b2_1 --n 3..9 '
    '--triple {"rho":{"h":[1]},"sigma":{"h":[1]},"nu":{}}',
    "verify fh-ring --model c2 --norm-bound 3",
    "verify fh-ring --model ale_1 --norm-bound 2",
    "verify c2-quotient --model k3_like --n 2..3",
    "verify c2-quotient --model c2 --n 2..4 --out {tmp}/r.json",
    "verify a-homomorphism --model c2 --n 2..3",
    "verify a-homomorphism --model ale_1 --n 2",
    "verify ring-isom --model ale_2 --n 2",
    "verify ring-isom --model cotangent_g1 --n 2",
    "verify ring-isom --model toy_b2_1 --n 2",
    "verify ring-isom --model p2 --n 2",
    "verify orb-n-independence --model ale_2 --n 2..3 --s 1/2",
    "verify orb-n-independence --model c2 --n 2..4 --pretty",
]
CASES = _TABLES + _ORBIFOLD + _PRODUCTS + _VERIFY


def run_case(case):
    """Exit code, stdout, stderr and written-file digests of one CLI case."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "poly.json").write_text(json.dumps(POLY), encoding="utf-8")
        argv = [a.replace("{tmp}", tmp) for a in case.split()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = {}
        for name in sorted(os.listdir(tmp)):
            if name != "poly.json":
                data = Path(tmp, name).read_bytes()
                files[name] = hashlib.sha256(data).hexdigest()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, golden):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record = {case: run_case(case) for case in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
