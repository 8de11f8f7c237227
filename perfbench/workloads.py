"""Seeded input documents, request mixes and ground truth for the benchmark.

Everything here is built from numpy and ``fractions`` only. Nothing calls the
``flagdesic`` samplers or serializers, so a change to the library cannot
change the inputs it is measured on. Documents follow the README format: the
upper block triangle only, float entries as ``[re, im]``, exact entries as
``"p/q+r/si"`` strings, zero blocks omitted.

Every constructed vector is a sum of disjoint *atoms*. An atom is a star: a
centre index joined to one or two leaf indices in other blocks. Its nonzero
eigenvalues are ``+-i*theta`` with ``theta^2`` the sum of the squared leaf
moduli, so the spectrum is known exactly. A two-leaf atom whose leaves share
a block is a rank-one block and stays equigeodesic; one whose leaves sit in
two different blocks is an ``a_ij a_jm`` chain and breaks the block condition.
Block-unitary conjugation afterwards keeps both the spectrum and the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

#: Pythagorean triples for integer-ratio chains and rational rotations.
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))

#: Unit Gaussian rationals used as exact phases.
EXACT_PHASES = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(-15, 17)),
)


@dataclass
class Case:
    """One generated vector document and what is true of it."""

    doc: dict
    equigeodesic: bool
    #: theta^2 of every +-theta pair (one entry per atom).
    theta_sq: list
    metric: Optional[dict] = None
    max_denominator: int = 1

    @property
    def parts(self) -> tuple:
        return tuple(self.doc["parts"])

    @property
    def exact(self) -> bool:
        return self.doc["mode"] == "exact"

    @property
    def commensurate(self) -> bool:
        return commensurate_period(self.theta_sq)[0]

    @property
    def period(self) -> Optional[float]:
        return commensurate_period(self.theta_sq)[1]

    def spectrum(self) -> list:
        """Every eigenvalue theta of -iA (n of them), ascending."""
        pos = [math.sqrt(float(t)) for t in self.theta_sq if t]
        n = sum(self.parts)
        return sorted(pos + [-v for v in pos] + [0.0] * (n - 2 * len(pos)))

    @property
    def pair_values(self) -> list:
        """Positive canonical values a_k, descending (the canonical form's pairs)."""
        return sorted((math.sqrt(float(t)) for t in self.theta_sq if t), reverse=True)

    def nonzero_block_share(self) -> float:
        s = len(self.doc["parts"])
        return len(self.doc["blocks"]) / (s * (s - 1) // 2)


@dataclass
class Request:
    """One CLI call: the command, its options, and the input it reads."""

    command: str
    case: Case
    mode: str = "float"
    with_metric: bool = False
    samples: int = 0
    t_max: float = 0.0
    index: int = 0
    files: dict = field(default_factory=dict)

    def argv(self, vector: str, metric: Optional[str], out: str) -> list:
        args = [self.command, vector]
        if self.command == "check" and self.with_metric:
            args.append(metric)
        if self.command in ("check", "closedness") and self.mode == "exact":
            args += ["--mode", "exact"]
        if self.command == "curve":
            args += ["--t-max", repr(self.t_max), "--samples", str(self.samples)]
        if self.command in ("canonicalize", "curve"):
            args += ["--out", out]
        return args


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    p, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if p * p == q.numerator and d * d == q.denominator:
        return Fraction(p, d)
    return None


def commensurate_period(theta_sq) -> tuple:
    """(commensurate, minimal period 2*pi/lambda0 or None) from exact theta^2.

    All theta are commensurate iff every theta_k^2 / theta_ref^2 is the square
    of a rational r_k; then lambda0 = theta_ref * gcd(num r_k) / lcm(den r_k).
    """
    nonzero = [Fraction(t) for t in theta_sq if t]
    if not nonzero:
        return False, None
    ref = max(nonzero)
    ratios = []
    for t in nonzero:
        r = _rational_sqrt(t / ref)
        if r is None:
            return False, None
        ratios.append(r)
    g = math.gcd(*(r.numerator for r in ratios))
    ell = math.lcm(*(r.denominator for r in ratios))
    lambda0 = math.sqrt(ref) * g / ell
    return True, 2.0 * math.pi / lambda0


# ---------------------------------------------------------------------------
# atoms and matrices
# ---------------------------------------------------------------------------


def _block_of(parts) -> list:
    return [b for b, size in enumerate(parts) for _ in range(size)]


def _offsets(parts) -> list:
    out = [0]
    for size in parts:
        out.append(out[-1] + size)
    return out


def _place_atoms(rng, parts, n_pairs, n_chains=0, n_rank_one=0):
    """Disjoint atoms on the partition.

    Returns (centre, leaves, kind) triples, leaves a tuple of one or two
    indices. A "chain" has its two leaves in two different blocks, neither the
    centre's; a "rank-one" atom has both leaves in one block; a "pair" has one.
    """
    block = _block_of(parts)
    free = set(range(sum(parts)))
    atoms = []

    def take(candidates):
        pool = sorted(candidates & free)
        if not pool:
            raise ValueError(f"partition {parts} has no room for the requested atoms")
        pick = int(pool[rng.integers(len(pool))])
        free.discard(pick)
        return pick

    for _ in range(n_chains):
        centre = take(free)
        a = take({k for k in free if block[k] != block[centre]})
        b = take({k for k in free if block[k] not in (block[centre], block[a])})
        atoms.append((centre, (a, b), "chain"))
    for _ in range(n_rank_one):
        wide = [k for k in free if sum(1 for m in free if block[m] == block[k]) >= 2]
        leaf = take(set(wide))
        other = take({k for k in free if block[k] == block[leaf]})
        centre = take({k for k in free if block[k] != block[leaf]})
        atoms.append((centre, (leaf, other), "rank-one"))
    for _ in range(n_pairs):
        # centres come from a fullest block, so a perfect matching never strands
        counts = {b: sum(1 for k in free if block[k] == b) for b in set(block)}
        centre = take({k for k in free if counts[block[k]] == max(counts.values())})
        leaf = take({k for k in free if block[k] != block[centre]})
        atoms.append((centre, (leaf,), "pair"))
    return atoms


def _float_doc(parts, a: np.ndarray) -> dict:
    off = _offsets(parts)
    blocks = {}
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            blk = a[off[i]:off[i + 1], off[j]:off[j + 1]]
            if np.any(blk != 0):
                blocks[f"{i + 1},{j + 1}"] = [
                    [[float(v.real), float(v.imag)] for v in row] for row in blk
                ]
    return {"n": off[-1], "parts": list(parts), "mode": "float", "blocks": blocks}


def _skew_from_upper(n: int, entries) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.complex128)
    for r, c, z in entries:
        a[r, c] = z
        a[c, r] = -np.conj(z)
    return a


def _haar_unitary(rng, k: int) -> np.ndarray:
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _block_diag(parts, blocks) -> np.ndarray:
    n = sum(parts)
    u = np.zeros((n, n), dtype=np.complex128)
    off = _offsets(parts)
    for i, b in enumerate(blocks):
        u[off[i]:off[i + 1], off[i]:off[i + 1]] = b
    return u


def float_atoms_case(rng, parts, n_pairs, chain=False, haar=False, metric=False):
    """Float vector built from atoms with values m/2 (m = 1..12), optionally chain-broken.

    The chain atom has leaf moduli (3u, 4u), so theta = 5u stays rational and
    the spectrum stays commensurate. Without ``haar`` the atoms are only
    rotated by diagonal phases; with it, by Haar block unitaries.
    """
    n = sum(parts)
    atoms = _place_atoms(rng, parts, n_pairs, n_chains=1 if chain else 0)
    entries, theta_sq = [], []
    for centre, leaves, kind in atoms:
        u = Fraction(int(rng.integers(1, 13)), 2)
        mods = (3 * u, 4 * u) if kind == "chain" else (u,)
        for leaf, m in zip(leaves, mods):
            entries.append((centre, leaf, float(m)))
        theta_sq.append(sum(m * m for m in mods))
    a = _skew_from_upper(n, entries)
    phases = np.exp(2j * math.pi * rng.random(n))
    a = (phases[:, None] * a) * phases.conj()[None, :]
    if haar:
        u = _block_diag(parts, [_haar_unitary(rng, k) for k in parts])
        a = u @ a @ u.conj().T
        a = (a - a.conj().T) / 2
        off = _offsets(parts)
        for i in range(len(parts)):
            a[off[i]:off[i + 1], off[i]:off[i + 1]] = 0
    case = Case(_float_doc(parts, a), equigeodesic=not chain, theta_sq=theta_sq)
    if metric:
        case.metric = _metric_doc(rng, parts, atoms)
    return case


def _metric_doc(rng, parts, atoms) -> dict:
    """Random positive multipliers; the two block pairs of a chain differ by >= 0.5,

    so a chain input is certainly not geodesic for this metric.
    """
    s = len(parts)
    block = _block_of(parts)
    lam = {(i, j): round(float(rng.uniform(0.5, 3.0)), 6) for i in range(s) for j in range(i + 1, s)}
    for centre, leaves, kind in atoms:
        if kind == "chain":
            p1 = tuple(sorted((block[centre], block[leaves[0]])))
            p2 = tuple(sorted((block[centre], block[leaves[1]])))
            if abs(lam[p1] - lam[p2]) < 0.5:
                lam[p2] = lam[p1] + 1.0
    return {"parts": list(parts), "lambda": {f"{i + 1},{j + 1}": v for (i, j), v in lam.items()}}


# exact matrices are (re, im) pairs of Fraction matrices as nested lists


def _fzeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _fmatmul(x, y):
    n, k, m = len(x), len(y), len(y[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for r in range(n):
        xr = x[r]
        orow = out[r]
        for t in range(k):
            v = xr[t]
            if v:
                yt = y[t]
                for c in range(m):
                    if yt[c]:
                        orow[c] += v * yt[c]
    return out


def _ftranspose(x):
    return [list(col) for col in zip(*x)]


def _rational_rotation_blocks(rng, parts):
    """Block-diagonal rational orthogonal Q: one Pythagorean Givens rotation per block."""
    n = sum(parts)
    q = _fzeros(n)
    for k in range(n):
        q[k][k] = Fraction(1)
    off = _offsets(parts)
    for b, size in enumerate(parts):
        if size < 2:
            continue
        p1, p2 = (off[b] + int(v) for v in rng.choice(size, 2, replace=False))
        a, bb, c = TRIPLES[int(rng.integers(len(TRIPLES)))]
        cs, sn = Fraction(a, c), Fraction(bb, c) * (1 if rng.random() < 0.5 else -1)
        q[p1][p1], q[p1][p2], q[p2][p1], q[p2][p2] = cs, -sn, sn, cs
    return q


def _gauss_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    mag = f"{abs(im)}i"
    if re == 0:
        return mag if im > 0 else f"-{mag}"
    return f"{re}{'+' if im > 0 else '-'}{mag}"


#: Denominators of the exact atom moduli p/q; their product grows the
#: denominators of the characteristic polynomial of -A^2.
EXACT_DENOMINATORS = (1, 2, 3, 5, 7, 10, 11, 13)


def exact_atoms_case(rng, parts, n_pairs, n_chains=0, n_rank_one=0,
                     pythagorean_chain=True, denominators=EXACT_DENOMINATORS):
    """Exact vector: atoms with rational moduli and Gaussian phases, then Q^T A Q.

    A Pythagorean chain keeps theta rational; a unit chain (1, 1)*u and every
    rank-one atom (leaves u, u) give theta^2 = 2u^2, incommensurate with the
    rational atoms beside them.
    """
    n = sum(parts)
    atoms = _place_atoms(rng, parts, n_pairs, n_chains=n_chains, n_rank_one=n_rank_one)
    re, im = _fzeros(n), _fzeros(n)
    theta_sq = []
    for centre, leaves, kind in atoms:
        q = denominators[int(rng.integers(len(denominators)))]
        u = Fraction(int(rng.integers(1, 3 * q + 1)), q)
        if kind == "chain" and pythagorean_chain:
            mods = (3 * u, 4 * u)
        elif kind == "pair":
            mods = (u,)
        else:
            mods = (u, u)
        for leaf, m in zip(leaves, mods):
            ph_re, ph_im = EXACT_PHASES[int(rng.integers(len(EXACT_PHASES)))]
            zr, zi = m * ph_re, m * ph_im
            re[centre][leaf], im[centre][leaf] = zr, zi
            re[leaf][centre], im[leaf][centre] = -zr, zi
        theta_sq.append(sum(m * m for m in mods))
    q = _rational_rotation_blocks(rng, parts)
    qt = _ftranspose(q)
    re = _fmatmul(_fmatmul(qt, re), q)
    im = _fmatmul(_fmatmul(qt, im), q)
    off = _offsets(parts)
    blocks = {}
    max_den = 1
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            rows = range(off[i], off[i + 1])
            cols = range(off[j], off[j + 1])
            if all(re[r][c] == 0 and im[r][c] == 0 for r in rows for c in cols):
                continue
            blocks[f"{i + 1},{j + 1}"] = [[_gauss_str(re[r][c], im[r][c]) for c in cols] for r in rows]
            for r in rows:
                for c in cols:
                    max_den = max(max_den, re[r][c].denominator, im[r][c].denominator)
    doc = {"n": n, "parts": list(parts), "mode": "exact", "blocks": blocks}
    return Case(doc, equigeodesic=n_chains == 0, theta_sq=theta_sq, max_denominator=max_den)


# ---------------------------------------------------------------------------
# workload mixes
# ---------------------------------------------------------------------------


def _near_full(rng, s, twos):
    parts = [1] * s
    for k in rng.choice(s, twos, replace=False):
        parts[int(k)] = 2
    return tuple(parts)


#: float-many-blocks: (command, s, twos, equigeodesic, with_metric) per slot of one cycle.
MANY_BLOCKS_SLOTS = (
    ("check", 12, 0, True, False), ("check", 16, 2, False, False),
    ("check", 14, 0, True, False), ("check", 24, 0, False, False),
    ("check", 14, 3, True, False), ("check", 18, 0, False, False),
    ("check", 12, 2, False, False),
    ("check", 24, 2, True, True), ("check", 18, 0, False, True),
    ("canonicalize", 12, 0, True, False), ("canonicalize", 16, 0, False, False),
    ("canonicalize", 20, 3, True, False), ("canonicalize", 24, 0, True, False),
    ("canonicalize", 28, 0, False, False),
    ("closedness", 12, 0, True, False), ("closedness", 24, 0, False, False),
    ("closedness", 32, 4, True, False), ("closedness", 16, 0, False, False),
    ("curve", 20, 0, True, False), ("curve", 12, 2, False, False),
)

#: exact-rational: (command, parts, atoms); canonicalize and curve take the float path.
#: "pairs" leaves one index pair empty, "full" pairs every index, "rank-one" and
#: "chain" add one two-leaf atom beside the pairs.
EXACT_SLOTS = (
    ("check", (1,) * 5, "pairs"), ("check", (1,) * 6, "chain"),
    ("check", (2, 2, 2), "pairs"), ("check", (2, 2, 2), "rank-one"),
    ("check", (1, 2, 2, 1), "chain"), ("check", (3, 3), "rank-one"),
    ("check", (2, 2, 2, 2), "pairs"), ("check", (2, 3, 2), "chain"),
    ("closedness", (1,) * 6, "pairs"), ("closedness", (1,) * 6, "chain"),
    ("closedness", (2, 2, 2), "rank-one"), ("closedness", (1, 2, 2, 1), "chain"),
    ("closedness", (3, 3), "rank-one"), ("closedness", (4, 4), "full"),
    ("closedness", (1,) * 8, "pairs"), ("closedness", (2, 2, 2, 2, 2), "full"),
    ("canonicalize", (2, 2, 2, 2), "pairs"), ("canonicalize", (3, 3), "rank-one"),
    ("curve", (3, 3, 3), "rank-one"), ("curve", (2, 2, 2), "pairs"),
)

CURVE_SAMPLES = {"float-many-blocks": 8, "exact-rational": 40}


def _many_blocks_cycle(rng) -> list:
    out = []
    for command, s, twos, equi, with_metric in MANY_BLOCKS_SLOTS:
        parts = _near_full(rng, s, twos)
        n_pairs = (sum(parts) - (0 if equi else 3)) // 2 - 1
        case = float_atoms_case(rng, parts, n_pairs, chain=not equi, metric=with_metric)
        out.append(Request(command, case, with_metric=with_metric))
    return out


def _exact_cycle(rng) -> list:
    out = []
    for command, parts, spec in EXACT_SLOTS:
        n = sum(parts)
        if spec in ("pairs", "full"):
            case = exact_atoms_case(rng, parts, n // 2 - (spec == "pairs"))
        elif spec == "rank-one":
            case = exact_atoms_case(rng, parts, (n - 3) // 2, n_rank_one=1)
        else:
            case = exact_atoms_case(rng, parts, (n - 3) // 2, n_chains=1,
                                    pythagorean_chain=bool(rng.random() < 0.5))
        mode = "exact" if command in ("check", "closedness") else "float"
        out.append(Request(command, case, mode=mode))
    return out


#: workload -> (slots of one cycle, function that makes one cycle's requests)
_CYCLES = {
    "float-many-blocks": (MANY_BLOCKS_SLOTS, _many_blocks_cycle),
    "exact-rational": (EXACT_SLOTS, _exact_cycle),
}
WORKLOADS = tuple(_CYCLES)


def cycle_length(workload: str) -> int:
    return len(_CYCLES[workload][0])


def build_requests(workload: str, seed: int, count: int) -> list:
    """At least ``count`` requests: whole cycles of the workload's slots, fresh inputs each.

    Every cycle holds the same mix of commands and sizes, so runs with
    different seeds measure the same amount of work; the seed draws the
    entries, phases, rotations, block sizes and the order within a cycle.
    """
    rng = np.random.default_rng(seed)
    requests = []
    while len(requests) < count:
        cycle = _CYCLES[workload][1](rng)
        for k in rng.permutation(len(cycle)):
            req = cycle[int(k)]
            if req.command == "curve":
                req.samples = CURVE_SAMPLES[workload]
                req.t_max = req.case.period if req.case.commensurate else 6.0
            req.index = len(requests)
            requests.append(req)
    return requests


def write_inputs(requests, directory) -> None:
    """Write each request's vector (and metric) document under ``directory``."""
    for req in requests:
        vec = directory / f"vec-{req.index:04d}.json"
        vec.write_text(json.dumps(req.case.doc))
        req.files["vector"] = str(vec)
        if req.with_metric:
            met = directory / f"metric-{req.index:04d}.json"
            met.write_text(json.dumps(req.case.metric))
            req.files["metric"] = str(met)


def descriptors(requests) -> dict:
    """Shape of the attempted requests, recorded beside every result."""
    per_command = {}
    for req in requests:
        per_command[req.command] = per_command.get(req.command, 0) + 1
    ns = [sum(r.case.parts) for r in requests]
    ss = [len(r.case.parts) for r in requests]
    return {
        "requests_per_command": per_command,
        "n_range": [min(ns), max(ns)],
        "s_range": [min(ss), max(ss)],
        "equigeodesic_share": round(sum(r.case.equigeodesic for r in requests) / len(requests), 4),
        "nonzero_block_share": round(
            sum(r.case.nonzero_block_share() for r in requests) / len(requests), 4
        ),
        "max_exact_denominator": max(r.case.max_denominator for r in requests),
    }
