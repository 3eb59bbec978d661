"""Reference model of the program's outputs, written independently of
``groupedbh`` so that it stays fixed while the package changes.

It reproduces, operation for operation, the arithmetic of the package as
recorded in ``fixtures/``: the data-adaptive and oracle hierarchical
weights (overlap-aware assembly), their harmonic mean over a forest, the
weighted step-up rule, and the Monte Carlo study behind ``groupedbh
simulate``. The benchmark compares every program output against it.

A structure is given as ``levels``: one list per tree level of
``(path, members)`` pairs, paths 1-based as in the spec format.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

import numpy as np

Levels = list[list[tuple[tuple[int, ...], np.ndarray]]]


# ---------------------------------------------------------------------------
# spec decoding


def decode_members(encoded: list) -> np.ndarray:
    """Members entry of the spec format: plain indices and [start, stop) runs."""
    parts = [
        np.arange(item[0], item[1], dtype=np.int64)
        if isinstance(item, list)
        else np.array([item], dtype=np.int64)
        for item in encoded
    ]
    if not parts:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(parts))


def spec_forest(spec: dict) -> tuple[int, list[Levels]]:
    """(n, per-tree levels) of a decoded spec JSON document."""
    trees = [
        [
            [(tuple(int(v) for v in g["path"]), decode_members(g["members"])) for g in level]
            for level in tree["levels"]
        ]
        for tree in spec["trees"]
    ]
    return int(spec["n"]), trees


def structure_digest(n: int, trees: list[Levels]) -> str:
    """Order-independent SHA-256 of a forest: each tree's groups sorted by path."""
    h = hashlib.sha256(f"n={n};trees={len(trees)}".encode())
    for levels in trees:
        h.update(f"|depth={len(levels)}".encode())
        for level in levels:
            for path, members in sorted(level, key=lambda g: g[0]):
                h.update(repr(path).encode())
                h.update(np.unique(np.asarray(members, dtype=np.int64)).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# weights


def _ratio(pi0: float) -> float:
    return math.inf if pi0 >= 1.0 else pi0 / (1.0 - pi0)


def _safe_div(a: float, b: float) -> float:
    if a == 0.0:
        return 0.0
    if b == 0.0:
        return math.inf
    if math.isinf(b):
        return 0.0
    return a / b


def _leaves(levels: Levels) -> list[tuple[tuple[int, ...], np.ndarray]]:
    return sorted(levels[-1], key=lambda g: g[0])


def assemble(n: int, members, effects, null_mass) -> np.ndarray:
    """W_i = A / sum over leaves holding i of 1/w_leaf, with A fixed by
    Condition 1 for the given null mass (0 for w = 0, inf when uncovered)."""
    inv_sum = np.zeros(n)
    a_terms = []
    for mem, w, mass in zip(members, effects, null_mass):
        if w == 0.0:
            inv_sum[mem] = math.inf
        elif not math.isinf(w):
            inv_sum[mem] += 1.0 / w
        if mass > 0.0 and not math.isinf(w):
            a_terms.append(_safe_div(mass, w))
    norm = math.fsum(a_terms) / n
    weights = np.empty(n)
    zero = np.isinf(inv_sum)
    never = inv_sum == 0.0
    finite = ~zero & ~never
    weights[zero] = 0.0
    weights[never] = math.inf
    weights[finite] = math.inf if math.isinf(norm) else norm / inv_sum[finite]
    return weights


def storey_n_hat0(pvalues: np.ndarray, lam: float) -> float:
    r = int(np.count_nonzero(pvalues <= lam))
    return (pvalues.size - r + 1) / (1.0 - lam)


def da_hier_weights(n: int, levels: Levels, pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Adaptive weights, recursive ancestor counts: a leaf's effect is its
    Storey count times the branching factors along its lineage, over N."""
    if not levels:
        return np.full(n, storey_n_hat0(pvalues, lam) / n)
    branching: dict[tuple[int, ...], int] = {}
    for level in levels:
        for path, _ in level:
            branching[path[:-1]] = branching.get(path[:-1], 0) + 1
    mult: dict[tuple[int, ...], int] = {(): 1}
    effects: dict[tuple[int, ...], float] = {}
    for level in levels:
        for path, members in level:
            parent = path[:-1]
            effects[path] = storey_n_hat0(pvalues[members], lam) * mult[parent] * branching[parent] / n
            mult[path] = mult[parent] * branching[parent]
    leaves = _leaves(levels)
    return assemble(
        n,
        [mem for _, mem in leaves],
        [effects[path] for path, _ in leaves],
        [storey_n_hat0(pvalues[mem], lam) for _, mem in leaves],
    )


def oracle_hier_weights(n: int, levels: Levels, is_null: np.ndarray) -> np.ndarray:
    """Oracle weights by the forward recursion w_l = pi0 (1 - pi0) r_l / w_{l-1}."""
    pi0 = float(is_null.mean())
    if pi0 == 0.0 or pi0 == 1.0 or not levels:
        return np.full(n, pi0)
    effects: dict[tuple[int, ...], float] = {(): pi0}
    null_count: dict[tuple[int, ...], int] = {}
    for level in levels:
        for path, members in level:
            n0 = int(is_null[members].sum())
            null_count[path] = n0
            r = _ratio(n0 / members.size)
            if r == 0.0:
                effects[path] = 0.0
            elif math.isinf(r):
                effects[path] = math.inf
            else:
                effects[path] = pi0 * (1.0 - pi0) * _safe_div(r, effects[path[:-1]])
    leaves = _leaves(levels)
    return assemble(
        n,
        [mem for _, mem in leaves],
        [effects[path] for path, _ in leaves],
        [float(null_count[path]) for path, _ in leaves],
    )


def da_gen_weights(n: int, trees: list[Levels], pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Harmonic mean over trees of the per-tree adaptive weights."""
    inv_acc = np.zeros(n)
    for levels in trees:
        inv_acc += 1.0 / da_hier_weights(n, levels, pvalues, lam)
    return len(trees) / inv_acc


# ---------------------------------------------------------------------------
# step-up


def weighted_bh(pvalues: np.ndarray, weights: np.ndarray, alpha: float) -> tuple[np.ndarray, int]:
    """(rejected mask, threshold index k) of the weighted step-up rule."""
    n = pvalues.size
    with np.errstate(invalid="ignore"):
        wp = weights * pvalues
    wp[np.isinf(weights)] = np.inf
    order = np.lexsort((np.arange(n), wp))
    ok = wp[order] <= alpha * np.arange(1, n + 1) / n
    k = int(np.flatnonzero(ok)[-1]) + 1 if ok.any() else 0
    rejected = np.zeros(n, dtype=bool)
    rejected[order[:k]] = True
    return rejected, k


# ---------------------------------------------------------------------------
# `groupedbh test` output

TEST_COLUMNS = "index,pvalue,weight,weighted_pvalue,rejected"


def expected_test_output(method: str, pvalues: np.ndarray, weights: np.ndarray, alpha: float, lam: float) -> dict:
    """Header lines and per-row columns that `groupedbh test --adaptive` must print."""
    rejected, k = weighted_bh(pvalues, weights, alpha)
    wp = weights * pvalues
    wp[np.isinf(weights)] = np.inf
    header = [
        f"# method={method}",
        "# adaptive=True",
        f"# alpha={alpha!r}",
        f"# lambda={lam!r}",
        f"# n={pvalues.size}",
        f"# rejections={int(rejected.sum())}",
        f"# threshold_index={k}",
        TEST_COLUMNS,
    ]
    return {"header": header, "pvalue": pvalues, "weight": weights, "wp": wp, "rejected": rejected}


# ---------------------------------------------------------------------------
# `groupedbh simulate`

SIM_METHODS = ("BH", "AdaptiveBH", "HeirGBH", "DAHeirGBH")
SIM_COLUMNS = (
    "method", "one_minus_pi0", "mean_fdp", "se_fdp", "mean_power", "se_power",
    "replicates", "rho_L1", "rho_L2", "lambda", "alpha", "seed",
)
SIM_FLOAT_COLUMNS = ("mean_fdp", "se_fdp", "mean_power", "se_power")
DEFAULT_GRID = tuple(round(float(x), 10) for x in np.linspace(0.0, 1.0, 11))


def simulation_levels(m: int = 50, n: int = 100) -> Levels:
    """The study's tree: rows [0, 0.6m) and [0.5m, m) at level 1, rows below."""
    half, overlap = m // 2, m // 10

    def rows(r0, r1):
        return np.arange(r0 * n, r1 * n, dtype=np.int64)

    groups = [((1,), range(0, half + overlap)), ((2,), range(half, m))]
    level1 = [(path, rows(rs.start, rs.stop)) for path, rs in groups]
    level2 = [
        (path + (j,), rows(r, r + 1)) for path, rs in groups for j, r in enumerate(rs, start=1)
    ]
    return [level1, level2]


def simulate_rows(
    seed: int,
    replicates: int,
    grid=DEFAULT_GRID,
    rho_l1: float = 0.0,
    rho_l2: float = 0.0,
    m: int = 50,
    n: int = 100,
    mu: float = 3.0,
    pi1: float = 0.5,
    pi1_star: float = 0.25,
    pi2: float = 0.5,
    lam: float = 0.5,
    alpha: float = 0.05,
) -> list[list[str]]:
    """CSV rows (header first) of the density sweep for one plan."""
    from scipy.stats import norm  # a second to import, and only sim-sweep needs it

    total = m * n
    levels = simulation_levels(m, n)
    half, overlap = m // 2, m // 10
    coef = (
        math.sqrt((1.0 - rho_l1) * (1.0 - rho_l2)),
        math.sqrt((1.0 - rho_l1) * rho_l2),
        math.sqrt(rho_l1 * (1.0 - rho_l2)),
        math.sqrt(rho_l1 * rho_l2),
    )

    def se(values: np.ndarray) -> float:
        return float(values.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0

    rows = [list(SIM_COLUMNS)]
    for d, density in enumerate(grid):
        fdp = np.empty((len(SIM_METHODS), replicates))
        power = np.empty((len(SIM_METHODS), replicates))
        for r in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(d, r)))
            theta0 = rng.binomial(1, density, size=(m, n))
            theta1 = np.empty((m, n), dtype=np.int64)
            theta1[:half] = rng.binomial(1, 1.0 - pi1)
            theta1[half : half + overlap] = rng.binomial(1, 1.0 - pi1_star)
            theta1[half + overlap :] = rng.binomial(1, 1.0 - pi1)
            theta2 = rng.binomial(1, 1.0 - pi2, size=m)
            theta = theta0 * theta1 * theta2[:, None]
            z_mn = rng.standard_normal((m, n))
            z_m = rng.standard_normal(m)
            z_n = rng.standard_normal(n)
            z_0 = rng.standard_normal()
            x = (
                mu * theta
                + coef[0] * z_mn
                + coef[1] * z_m[:, None]
                + coef[2] * z_n[None, :]
                + coef[3] * z_0
            )
            pvalues = norm.sf(x.reshape(-1))
            is_null = theta.reshape(-1) == 0
            weights = (
                np.full(total, is_null.mean()),
                np.full(total, storey_n_hat0(pvalues, lam) / total),
                oracle_hier_weights(total, levels, is_null),
                da_hier_weights(total, levels, pvalues, lam),
            )
            n_false = int((~is_null).sum())
            for i, w in enumerate(weights):
                rejected, _ = weighted_bh(pvalues, w, alpha)
                n_rej = int(rejected.sum())
                v = int((rejected & is_null).sum())
                fdp[i, r] = v / max(n_rej, 1)
                power[i, r] = (n_rej - v) / n_false if n_false else 0.0
        for i, method in enumerate(SIM_METHODS):
            rows.append(
                [
                    method,
                    repr(float(density)),
                    repr(float(fdp[i].mean())),
                    repr(se(fdp[i])),
                    repr(float(power[i].mean())),
                    repr(se(power[i])),
                    str(replicates),
                    repr(rho_l1),
                    repr(rho_l2),
                    repr(lam),
                    repr(alpha),
                    str(seed),
                ]
            )
    return rows


def csv_text(rows: list[list[str]]) -> str:
    """Rows as `groupedbh simulate` writes them (csv module, CRLF endings)."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()
