import json
from fractions import Fraction

import numpy as np
import pytest

import clearnet as cn

# (r, m) grid used by the ensemble checks
R_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
M_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
ENSEMBLE_SIZE = 200


def ensemble_system(i: int) -> cn.FinancialSystem:
    """Seeded system i of the test ensemble: 2-49 banks, density 0.2-0.8."""
    n_banks = 2 + (i % 48)
    density = 0.2 + 0.6 * ((i * 0.37) % 1.0)
    return cn.generate_random_system(seed=i, n_banks=n_banks, density=density)


def partial_default_variant(system: cn.FinancialSystem, seed: int) -> cn.FinancialSystem:
    """Shock a random subset of banks so only part of the system defaults."""
    rng = np.random.default_rng(10_000 + seed)
    n = system.n_banks
    hit = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    a = system.external_assets.copy()
    a[hit] = a[hit] * rng.uniform(0.0, 0.5, size=hit.size)
    return system.with_external_assets(a)


def contagion_only_system() -> cn.FinancialSystem:
    """Bank 0's claim on bank 1 (6) exceeds its own liabilities (5), so no
    asset shock defaults it directly: with zero assets it fails once bank 1
    pays less than 5 / 0.6."""
    return cn.build_system([[0, 0, 5], [6, 0, 4], [0, 0, 0]], [6.0, 11.0, 1.0])


def search_step_system(system: cn.FinancialSystem, k: int, max_steps: int):
    """The system at step k of the relaxed search, from its definition:
    bank assets (1 - k/max_steps)(l - C l), floored at zero. ``C l`` is
    taken with the sparse ``C`` the search uses, so the assets agree bit
    for bit."""
    l = cn.total_liabilities(system)
    cl = system.claims @ l
    a = system.pre_shock_assets.copy()
    b = system.banks
    a[b] = np.maximum((1.0 - k / max_steps) * (l[b] - cl[b]), 0.0)
    return system.with_external_assets(a)


def linear_scan_step(system: cn.FinancialSystem, params, max_steps: int):
    """Reference for the relaxed search: scan k = 1, 2, ... and return the
    first step whose clearing defaults every node (None if none does)."""
    for k in range(1, max_steps + 1):
        shocked = search_step_system(system, k, max_steps)
        solution = cn.fictitious_default_sequence(shocked, params)
        if solution.defaults.count == system.node_count:
            return k
    return None


def fraction_solve(A: list, b: list) -> list:
    """Solve ``A x = b`` exactly by Gaussian elimination on Fractions."""
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if M[i][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        for i in range(n):
            if i != col and M[i][col] != 0:
                f = M[i][col] / M[col][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_frozen_payments(system: cn.FinancialSystem, r, r_a, flags) -> list:
    """Fixed point of the clearing map with the default set ``flags``
    frozen, in exact rational arithmetic on the system's float inputs:
    solvent nodes pay ``l``, defaulted ones solve
    ``(I - r C_DD) p_D = r C_DS l_S + r_a a_D``."""
    L = [[Fraction(x) for x in row] for row in system.liabilities.tolist()]
    n = len(L)
    l = [sum(row, Fraction(0)) for row in L]
    C = [[L[j][i] / l[j] if l[j] else Fraction(0) for j in range(n)] for i in range(n)]
    a = [Fraction(x) for x in system.external_assets.tolist()]
    r = [Fraction(x) for x in np.broadcast_to(np.asarray(r, dtype=float), (n,)).tolist()]
    D = [i for i in range(n) if flags[i]]
    S = [i for i in range(n) if not flags[i]]
    A = [[int(i == j) - r[i] * C[i][j] for j in D] for i in D]
    b = [r[i] * sum((C[i][j] * l[j] for j in S), Fraction(0)) + Fraction(r_a) * a[i]
         for i in D]
    p = list(l)
    for i, x in zip(D, fraction_solve(A, b)):
        p[i] = x
    return p


def _reference_emit(value, out: list) -> None:
    if isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _reference_emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(np.asarray(value).tolist() if isinstance(value, np.ndarray) else value):
            if i:
                out.append(", ")
            _reference_emit(v, out)
        out.append("]")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite value {x}")
        out.append(format(x, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_dumps_canonical(value) -> str:
    """Reference for ``io_cli.dumps_canonical``: the element-wise writer,
    which formats and checks one value at a time."""
    out: list = []
    _reference_emit(value, out)
    return "".join(out)


@pytest.fixture
def sys_a() -> cn.FinancialSystem:
    """Two banks owing each other and the sink; solvent at full payment."""
    return cn.build_system([[0, 2, 8], [3, 0, 7], [0, 0, 0]], [8.0, 9.0, 1.0])


@pytest.fixture
def sys_0() -> cn.FinancialSystem:
    """Two banks owing only the sink; bank 2 is undercapitalized."""
    return cn.build_system([[0, 0, 10], [0, 0, 8], [0, 0, 0]], [12.0, 4.0, 1.0])


@pytest.fixture(scope="session")
def ensemble() -> list:
    return [ensemble_system(i) for i in range(ENSEMBLE_SIZE)]
