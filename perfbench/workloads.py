"""The benchmark's workloads: seeded input generators and per-op oracles.

Each workload turns (seed, phase, op index) into the argv of one `qmeasure`
CLI call, plus the scenario document that call reads, and checks the call's
JSON output against an answer recomputed here with plain numpy from the same
generated inputs. Nothing in this module imports qmeasure.

Why these four workloads, and which layers each one stresses, is written up
in WORKLOADS.md beside this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("compare_d16", "cat_chain7", "run_mixed", "verify_suite")

# phases draw from disjoint streams, so warm-up ops never repeat a timed op
TIMED, WARMUP = 0, 1

SCENARIO = "<scenario>"  # argv slot the runner replaces with the document path
TOL = 1e-9

_TAG = {name: k for k, name in enumerate(WORKLOADS, start=1)}
_DOC_STREAM = 2  # per-run document of compare_d16, shared by all its ops

COMPARE_DIM = 16
COMPARE_CASES = 4
CAT_CHAIN = 7
MIXED_DIM = 12
MIXED_APPARATUS = 16
MIXED_TRIALS = 100_000
MIXED_GAP = 0.1


@dataclass(frozen=True)
class OpInput:
    """Everything the program receives for one op, and what the oracle needs.

    argv holds SCENARIO where the path of `document` goes. `expect` is only
    read by the oracle; the program never sees it.
    """

    argv: tuple[str, ...]
    document: str | None
    expect: dict

    def argv_for(self, path: str) -> list[str]:
        return [path if a == SCENARIO else a for a in self.argv]


def _rng(seed: int, workload: str, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _TAG[workload], *tags]))


def _pairs_vec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _pairs(m) -> list:
    return [_pairs_vec(row) for row in np.asarray(m, dtype=complex)]


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitian(basis: np.ndarray, values) -> np.ndarray:
    m = (basis * np.asarray(values, dtype=float)) @ basis.conj().T
    return (m + m.conj().T) / 2


def _gapped(n: int, rng: np.random.Generator, start: float) -> np.ndarray:
    """n ascending values, neighbours at least MIXED_GAP apart."""
    return start + np.cumsum(MIXED_GAP + rng.uniform(0.0, 0.9, n))


def _document(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------- generators


def _compare_document(seed: int) -> str:
    rng = _rng(seed, "compare_d16", _DOC_STREAM)
    d = COMPARE_DIM
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    obs = _hermitian(_haar_unitary(d, rng), _gapped(d, rng, -4.0))
    return _document(
        {
            "system_dim": d,
            "initial_state": {"kind": "vector", "data": _pairs_vec(psi), "normalize": True},
            "observable": _pairs(obs),
            "apparatus": {"dim": d},
            "trials": 0,
            "seed": int(rng.integers(0, 2**63)),
        }
    )


def _compare_op(seed: int, phase: int, index: int) -> OpInput:
    case_seed = int(_rng(seed, "compare_d16", phase, index).integers(0, 2**63))
    argv = (
        "compare", SCENARIO, "--random", str(COMPARE_CASES),
        "--seed", str(case_seed), "--format", "json",
    )
    return OpInput(argv, _compare_document(seed), {"seed": case_seed})


def _cat_op(seed: int, phase: int, index: int) -> OpInput:
    rng = _rng(seed, "cat_chain7", phase, index)
    theta = rng.uniform(0.1, math.pi / 2 - 0.1)
    phi1, phi2 = rng.uniform(0.0, 2 * math.pi, 2)
    c1 = complex(math.cos(theta) * math.cos(phi1), math.cos(theta) * math.sin(phi1))
    c2 = complex(math.sin(theta) * math.cos(phi2), math.sin(theta) * math.sin(phi2))
    argv = (
        "cat", "--chain", str(CAT_CHAIN),
        # the = form keeps argparse from reading a negative part as an option
        f"--c1={c1.real!r},{c1.imag!r}", f"--c2={c2.real!r},{c2.imag!r}",
        "--format", "json",
    )
    return OpInput(argv, None, {"c1": [c1.real, c1.imag], "c2": [c2.real, c2.imag]})


def _mixed_op(seed: int, phase: int, index: int) -> OpInput:
    rng = _rng(seed, "run_mixed", phase, index)
    d, dm = MIXED_DIM, MIXED_APPARATUS
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    observable = _hermitian(_haar_unitary(d, rng), _gapped(d, rng, -3.0))
    pointer_values = 2.0 * rng.permutation(d) - 7.0
    idle = float(pointer_values.min()) - 1.0
    # generator 1 is the pointer readout itself; generator 2 is zero on the
    # pointer columns and splits the idle block with a non-diagonal matrix
    readout = np.diag(np.concatenate([pointer_values, np.full(dm - d, idle)]))
    splitter = np.zeros((dm, dm), dtype=complex)
    splitter[d:, d:] = _hermitian(_haar_unitary(dm - d, rng), _gapped(dm - d, rng, 1.0))
    doc = {
        "system_dim": d,
        "initial_state": {"kind": "density", "data": _pairs(rho)},
        "observable": _pairs(observable),
        "apparatus": {"dim": dm, "pointer_values": [float(v) for v in pointer_values]},
        "algebra_generators": [_pairs(readout), _pairs(splitter)],
        "trials": MIXED_TRIALS,
        "seed": int(rng.integers(0, 2**63)),
    }
    return OpInput(("run", SCENARIO, "--format", "json"), _document(doc), {})


def _verify_op(seed: int, phase: int, index: int) -> OpInput:
    # the built-in suite is pinned to its own seed; it reads no input
    return OpInput(("verify", "--format", "json"), None, {})


_GENERATORS = {
    "compare_d16": _compare_op,
    "cat_chain7": _cat_op,
    "run_mixed": _mixed_op,
    "verify_suite": _verify_op,
}


def make_op(workload: str, seed: int, phase: int, index: int) -> OpInput:
    """Inputs of op `index` in `phase` of a run of `workload` with `seed`."""
    return _GENERATORS[workload](seed, phase, index)


# ------------------------------------------------------------------- oracles


class OracleError(Exception):
    """The program's output disagrees with the recomputed answer."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


def _close(got, want, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    _require(gap <= TOL * max(1.0, float(np.max(np.abs(want), initial=0.0))),
             f"{what}: off by {gap:.3e}")


def _complex_matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _check_compare(op: OpInput, out) -> dict:
    seed = op.expect["seed"]
    _require(out["dim"] == COMPARE_DIM and out["n_random"] == COMPARE_CASES, "wrong problem size")
    _require(out["seed"] == seed, "wrong master seed")
    _require(0 <= out["worst"] <= TOL, f"worst deviation {out['worst']!r}")
    _require(0 <= out["mean"] <= out["worst"], "mean above worst")
    k = out["worst_index"]
    _require(0 <= k < COMPARE_CASES, "worst index out of range")
    _require(out["worst_case_key"] == [seed, 2, k], "worst case key does not replay")
    return {}


def _check_born_collapse(out, outcomes, probabilities) -> None:
    _close(out["born"]["outcomes"], outcomes, "born outcomes")
    _close(out["born"]["probabilities"], probabilities, "born probabilities")
    _close(out["collapsed_diag"], probabilities, "collapse diagonal")
    _require(0 <= out["max_deviation"] <= TOL, f"max deviation {out['max_deviation']!r}")
    _close(out["cross_terms"], np.zeros(len(out["cross_terms"])), "cross terms")


def _check_cat(op: OpInput, out) -> dict:
    c1 = complex(*op.expect["c1"])
    c2 = complex(*op.expect["c2"])
    outcomes = np.arange(-CAT_CHAIN, CAT_CHAIN + 1, 2, dtype=float)
    weights = np.zeros(outcomes.size)
    weights[0] = abs(c2) ** 2  # branch 2 sits on the lowest readout
    weights[-1] = abs(c1) ** 2
    _check_born_collapse(out, outcomes, weights)
    _close(out["restricted"]["characters"], outcomes[:, None], "characters")
    _close(out["restricted"]["weights"], weights, "restricted weights")
    _require(out["empirical"] is None, "cat run must not sample")
    return {}


def _check_mixed(op: OpInput, out) -> dict:
    doc = json.loads(op.document)
    rho = _complex_matrix(doc["initial_state"]["data"])
    values, q = np.linalg.eigh(_complex_matrix(doc["observable"]))
    born = np.real(np.diag(q.conj().T @ rho @ q))
    _check_born_collapse(out, values, born)

    pointer_values = np.array(doc["apparatus"]["pointer_values"])
    chars = np.asarray(out["restricted"]["characters"], dtype=float)
    weights = np.asarray(out["restricted"]["weights"], dtype=float)
    _require(chars.shape == (MIXED_APPARATUS, 2), f"spectrum has shape {chars.shape}")
    folded = np.zeros(MIXED_DIM)
    for char, w in zip(chars, weights):
        hits = np.flatnonzero(np.abs(pointer_values - char[0]) <= TOL)
        if hits.size:
            folded[hits[0]] += w
        else:
            _require(abs(w) <= TOL, f"idle point carries weight {w!r}")
    _close(folded, born, "folded restricted weights")

    emp = out["empirical"]
    counts = np.asarray(emp["counts"])
    _require(emp["trials"] == doc["trials"], "wrong trial count")
    _require(counts.size == MIXED_DIM and int(counts.sum()) == doc["trials"],
             "counts do not add up to the trial count")
    _close(emp["frequencies"], counts / doc["trials"], "frequencies")
    return {}


def _check_verify(op: OpInput, out) -> dict:
    _require(isinstance(out, list) and out, "verify printed no checks")
    for check in out:
        _require(check["passed"] is True, f"check {check['name']!r} failed")
        _require(check["worst"] <= check["tolerance"], f"check {check['name']!r} over tolerance")
    return {"checks": [check["name"] for check in out]}


_ORACLES = {
    "compare_d16": _check_compare,
    "cat_chain7": _check_cat,
    "run_mixed": _check_mixed,
    "verify_suite": _check_verify,
}


def check_output(workload: str, op: OpInput, code: int, stdout: str) -> dict:
    """Raise OracleError unless the call exited 0 and printed the right
    answer; return what the run should record about it (verify's check
    names), which is empty for the other workloads."""
    _require(code == 0, f"exit code {code}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as err:
        raise OracleError(f"output is not JSON: {err}") from err
    try:
        return _ORACLES[workload](op, out)
    except (KeyError, TypeError, ValueError, IndexError) as err:
        raise OracleError(f"output has the wrong form: {type(err).__name__}: {err}") from err
