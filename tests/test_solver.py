"""Operator identities, extremal eigenpair solves, closed forms."""

import math

import numpy as np
import pytest

from plap import cli, families, graph, solver
from plap.linalg import adjacency
from plap.solver import (PEigenPair, SolverConfig, SolverError, apply_plap,
                         closed_form_complete, closed_form_star,
                         complete_extremes, monotonicity_functionals,
                         normalize_sp, potential_shift_check, psi, rayleigh,
                         residual, solve_largest, solve_smallest)

from conftest import (antibalanced_negative_kappa, random_balanced,
                      random_connected_antibalanced, random_signed, random_weighted,
                      sparse_antibalanced)


def _signless_laplacian_eigs(g):
    """Independent p=2 oracle: generalized spectrum of Deg + K - A."""
    lap = np.diag(g.weighted_degrees() + g.kappa_array()) - adjacency(g)
    rt = 1.0 / np.sqrt(g.mu_array())
    return np.sort(np.linalg.eigvalsh(lap * rt[:, None] * rt[None, :]))


def test_apply_plap_examples():
    c5 = families.cycle(5)
    assert np.allclose(apply_plap(c5, 3, np.ones(5)), 0.0)
    assert np.allclose(apply_plap(families.complete(2), 4, np.array([1.0, -1.0])),
                       [8.0, -8.0])
    k2n = graph.negate(families.complete(2))
    assert np.allclose(apply_plap(k2n, 3, np.array([1.0, 1.0])), [4.0, 4.0])
    with pytest.raises(ValueError):
        apply_plap(c5, 1.0, np.ones(5))


def test_rayleigh_examples():
    assert rayleigh(families.cycle(4), 3, np.ones(4)) == 0.0
    assert rayleigh(families.complete(2), 2, np.array([1.0, -1.0])) == 2.0
    k2n = graph.negate(families.complete(2))
    assert rayleigh(k2n, 2, np.array([1.0, 1.0])) == 2.0
    with pytest.raises(ValueError):
        rayleigh(families.complete(2), 2, np.zeros(2))


def test_rayleigh_scale_invariance(rng):
    g = random_signed(6, 0.6, 3)
    f = rng.standard_normal(6)
    for c in (2.0, -3.5, 1e-4):
        assert math.isclose(rayleigh(g, 2.5, c * f), rayleigh(g, 2.5, f),
                            rel_tol=1e-12)


def test_apply_plap_homogeneity(rng):
    g = random_signed(6, 0.6, 5)
    f = rng.standard_normal(6)
    for p in (1.5, 2, 3, 4):
        for c in (2.0, 0.3):
            assert np.allclose(apply_plap(g, p, c * f),
                               c ** (p - 1) * apply_plap(g, p, f), rtol=1e-12)


def test_residual_examples():
    c4 = families.cycle(4)
    assert residual(c4, 3, 0.0, np.ones(4)) == 0.0
    assert residual(families.complete(2), 2, 2.0, np.array([1.0, -1.0])) == 0.0
    base = np.array([1.0, -1.0])
    prev = 0.0
    for eps in (1e-3, 2e-3, 4e-3):
        cur = residual(families.complete(2), 2, 2.0, base + np.array([eps, 0.0]))
        assert cur > prev
        prev = cur


def _masked_psi(p, x):
    """psi as it was written before it went branch-free."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(ax)
    nz = ax > 0
    out[nz] = ax[nz] ** (p - 1.0) * np.sign(x[nz])
    return out


def _grid_exponents():
    """Every p of the CLI grids and the exponents p - 1 and 1/(p - 1) of the
    cone map: 0.5, 1 and 2 among them, where a scalar ** is no pow."""
    ps = sorted({*cli.DEFAULT_P_GRID, *cli.LIMIT_P_GRID})
    return ps, sorted({*ps, *(p - 1.0 for p in ps), *(1.0 / (p - 1.0) for p in ps)})


def test_psi_is_the_masked_definition_bit_for_bit(rng):
    for p in (1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 32.0, 64.0):
        for shape in ((1,), (7,), (40,), (3, 9), (17, 20), (2, 3, 5)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
            x.flat[::3] = 0.0
            x.flat[1::5] = -0.0
            with np.errstate(over="ignore"):
                got, want = psi(p, x), _masked_psi(p, x)
            assert got.tobytes() == want.tobytes(), (p, shape)
    assert psi(3.0, [-0.0, 0.0]).tobytes() == np.zeros(2).tobytes()


def test_pnorm_roots_are_the_scalar_pow_bit_for_bit(rng):
    # the vectorized ** rounds some roots differently in the last place
    for p in (1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 32.0, 64.0):
        for shape in ((1, 6), (24, 8), (3, 40), (2, 3, 5)):
            f = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
            f[..., 0, :1] = 0.0
            mu = rng.uniform(0.5, 2.0, shape[-1])
            got = solver.pnorm(f, p, mu)
            sums = (mu * np.abs(f) ** p).sum(-1)
            want = [x ** (1.0 / p) for x in sums.flat]
            assert got.shape == sums.shape and got.ravel().tolist() == want, (p, shape)
            assert got.ravel().tolist() == [solver.pnorm(row, p, mu)
                                            for row in f.reshape(-1, shape[-1])]
    # one exponent per row: each a p of the grids or an exponent of the cone map
    _, exps = _grid_exponents()
    for n in (1, 8, 40, 1000):
        mu = rng.uniform(0.5, 2.0, n)
        for order in (exps, exps[::-1], rng.permutation(exps)):
            p = np.asarray(order)
            f = rng.standard_normal((len(p), n)) * 10.0 ** rng.integers(-2, 2, (len(p), n))
            with np.errstate(over="ignore"):
                got, unit = solver.pnorm(f, p, mu), normalize_sp(f, p, mu)
                for i, pi in enumerate(p.tolist()):
                    assert got[i] == solver.pnorm(f[i], pi, mu), (pi, n)
                    assert unit[i].tobytes() == normalize_sp(f[i], pi, mu).tobytes()


def test_nan_flows_through_psi_apply_plap_and_residual():
    # the masked psi sent NaN to 0, so a NaN eigenfunction could pass a check
    f = np.array([1.0, math.nan, 0.5, -0.3])
    assert math.isnan(psi(3.0, math.nan))
    assert np.isnan(psi(3.0, f)).tolist() == [False, True, False, False]
    assert np.isnan(apply_plap(families.complete(4), 3.0, f)).all()
    assert math.isnan(residual(families.complete(4), 3.0, 1.0, f))


def test_gradient_matches_finite_differences():
    # central differences on the sphere, step 1e-6, 100 seeded points
    rng = np.random.default_rng(42)
    checked = 0
    for p in (1.5, 2.0, 3.0, 4.0):
        for seed in range(25):
            g = random_signed(6, 0.6, seed)
            mu = g.mu_array()
            f = normalize_sp(rng.standard_normal(6), p, mu)
            grad = p * (apply_plap(g, p, f) - rayleigh(g, p, f) * mu * psi(p, f))
            h = 1e-6
            fd = np.empty(6)
            for i in range(6):
                up, dn = f.copy(), f.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (rayleigh(g, p, up) - rayleigh(g, p, dn)) / (2 * h)
            denom = max(np.linalg.norm(grad), 1e-12)
            assert np.linalg.norm(fd - grad) / denom <= 1e-4, (p, seed)
            checked += 1
    assert checked == 100


def test_solve_largest_star_formula():
    for m, p in [(5, 2.0), (5, 3.0), (7, 1.5), (4, 8.0)]:
        pair = solve_largest(families.star(m), p)
        ref = closed_form_star(m, p)
        assert abs(pair.value - ref) <= 1e-6 * ref
        assert pair.certificate == "perron-certified"
    assert closed_form_star(5, 2.0) == 5.0


def test_solve_largest_complete_p2():
    for n in (3, 5):
        pair = solve_largest(families.complete(n), 2.0)
        assert abs(pair.value - n) < 1e-8


def test_solve_largest_c4_negative():
    c4n = graph.negate(families.cycle(4))
    oracle = _signless_laplacian_eigs(c4n)[-1]
    pair = solve_largest(c4n, 2.0)
    assert abs(oracle - 4.0) < 1e-12
    assert abs(pair.value - oracle) < 1e-8


def test_solve_smallest_balanced_exact():
    for g in (families.cycle(4), families.complete(5),
              graph.switch(families.complete(4), (1, -1, 1, -1))):
        pair = solve_smallest(g, 3.0)
        assert pair.value == 0.0 and pair.certificate == "closed-form"
        assert pair.residual == 0.0


def test_solve_smallest_on_an_edgeless_graph_is_the_smallest_potential_ratio():
    # kappa/mu = (3, -1, 0.25): the bottom pair sits on vertex 1
    g = graph.validate(3, [], mu=[1.0, 2.0, 4.0], kappa=[3.0, -2.0, 1.0])
    pair = solve_smallest(g, 3.0)
    assert pair.value == -1.0 and pair.certificate == "closed-form"
    assert np.flatnonzero(pair.f).tolist() == [1] and pair.residual == 0.0


def test_solve_smallest_k2_negative():
    pair = solve_smallest(graph.negate(families.complete(2)), 2.0)
    assert pair.value == 0.0


def test_solve_smallest_negative_triangle():
    k3n = graph.negate(families.complete(3))
    oracle = _signless_laplacian_eigs(k3n)[0]
    assert abs(oracle - 1.0) < 1e-12
    pair = solve_smallest(k3n, 2.0)
    assert abs(pair.value - oracle) <= 1e-7


def test_solver_p_cap():
    with pytest.raises(ValueError):
        solve_largest(families.complete(3), 65.0)


def test_pair_residual_is_the_eigen_equation_defect():
    pair = solve_largest(families.star(4), 3.0)
    assert math.isclose(pair.residual,
                        residual(families.star(4), 3.0, pair.value, pair.f),
                        rel_tol=0, abs_tol=1e-15)


def test_switching_invariance_of_solve_largest(rng):
    cfg = SolverConfig(tol=1e-10)
    for seed in range(5):
        g = random_connected_antibalanced(6, 0.5, seed)
        tau = tuple(int(x) for x in np.where(rng.random(6) < 0.5, 1, -1))
        a = solve_largest(g, 3.0, cfg)
        b = solve_largest(graph.switch(g, tau), 3.0, cfg)
        assert abs(a.value - b.value) <= 2 * cfg.tol * (1 + abs(a.value))


def test_perron_eigenfunction_is_one_signed():
    for seed in range(5):
        g = random_connected_antibalanced(7, 0.5, seed)
        tau = np.asarray(graph.classify_balance(g).antibalanced_witness)
        pair = solve_largest(g, 2.5)
        assert pair.certificate == "perron-certified"
        signed = tau * pair.f   # maps back to the all-negative picture
        assert np.all(signed > 0) or np.all(signed < 0)


def test_rayleigh_upper_bound(rng):
    # 2^(p-1) * max_i (sum_j w_ij + kappa_i) / mu_i bounds every quotient
    for seed in range(5):
        g = random_signed(6, 0.7, seed)
        bound_base = np.max((g.weighted_degrees() + g.kappa_array()) / g.mu_array())
        for p in (1.5, 2, 4):
            for _ in range(10):
                f = rng.standard_normal(6)
                assert rayleigh(g, p, f) <= 2 ** (p - 1) * bound_base + 1e-9


@pytest.mark.parametrize("field,value", [
    ("tol", 0.0), ("tol", -1e-8), ("tol", math.inf), ("tol", math.nan),
    ("restarts", 0),
    ("max_iters", -1),
    ("armijo_slope", -1e-4), ("armijo_slope", math.nan),
    ("backtrack", 0.0), ("backtrack", 1.0), ("backtrack", 1.5), ("backtrack", math.nan),
    ("initial_step", 0.0), ("initial_step", -1.0), ("initial_step", math.inf),
    ("initial_step", math.nan)])
def test_solver_config_rejects_out_of_range_fields(field, value):
    # the ascent's settings are module constants: SolverConfig takes no
    # keyword for them, whatever the value
    if field in ("tol", "restarts"):
        error, match = ValueError, f"SolverConfig.{field} must be"
    else:
        error, match = TypeError, f"unexpected keyword argument '{field}'"
    with pytest.raises(error, match=match):
        SolverConfig(**{field: value})


def test_solver_config_accepts_the_edges_of_its_ranges():
    SolverConfig(restarts=1, tol=1e300)


# --- lockstep restarts against the serial loop they replaced -------------------

def _ref_apply(g, p, f):
    a = g._arrays
    t = psi(p, f[a.u] - a.sigma * f[a.v])
    idx = np.concatenate((np.arange(g.n), a.u, a.v))
    vals = np.concatenate((a.kappa * psi(p, f), a.w * t, -a.sigma * a.w * t))
    return np.bincount(idx, vals, minlength=g.n)


def _ref_rayleigh(g, p, f):
    a = g._arrays
    af = np.abs(f) ** p
    num = float(np.sum(a.kappa * af))
    if g.m:
        num += float(np.sum(a.w * np.abs(f[a.u] - a.sigma * f[a.v]) ** p))
    return num / float(np.sum(a.mu * af))


def _ref_normalize(f, p, mu):
    nrm = float(np.sum(mu * np.abs(f) ** p) ** (1.0 / p))
    if nrm == 0 or not np.isfinite(nrm):
        raise ValueError("cannot normalize the zero (or non-finite) function")
    return f / nrm


def _ref_newton_rounds(g, p, lam, x, pin):
    """The one-row Newton rounds the stacked polish replaced, verbatim:
    (residual, lambda, f) of the best pair seen from (lam, x), holding the
    entries marked in pin at 0."""
    n = g.n
    a = g._arrays
    mu, kap, u, v, w, s = a.mu, a.kappa, a.u, a.v, a.w, a.sigma
    side = n + 1
    cells = np.concatenate((u * side + u, v * side + v, u * side + v, v * side + u))
    unknown = np.append(~pin, True)
    defect = apply_plap(g, p, x) - lam * g.mu_array() * psi(p, x)
    best = (float(np.max(np.abs(defect))), lam, x)
    for _ in range(solver.POLISH_ROUNDS):
        lm = best[1]
        absx = np.abs(x)
        d = x[u] - s * x[v]
        with np.errstate(divide="ignore"):   # 0 ** (p - 2) at p < 2 only
            dx = np.ones_like(x) if p == 2 else absx ** (p - 2.0)
            dd = np.ones_like(d) if p == 2 else np.abs(d) ** (p - 2.0)
        if p < 2:
            dx[pin] = 0.0
            dd[pin[u] & pin[v]] = 0.0
            if not (np.isfinite(dx).all() and np.isfinite(dd).all()):
                break
        px = psi(p, x)
        coef = (p - 1.0) * w * dd
        off = -s * coef
        jac = np.bincount(cells, np.concatenate((coef, coef, off, off)),
                          minlength=side * side).reshape(side, side)
        idx = np.arange(n)
        jac[idx, idx] += (p - 1.0) * (kap - lm * mu) * dx
        jac[:n, n] = -mu * px
        jac[n, :n] = p * mu * px
        rhs = np.empty(n + 1)
        rhs[:n] = defect
        rhs[n] = float(np.sum(mu * absx ** p) - 1.0)
        solved = jac.any(axis=1) & unknown
        try:
            if solved.all():
                delta = np.linalg.solve(jac, -rhs)
            else:
                keep = np.flatnonzero(solved)
                delta = np.zeros(side)
                delta[keep] = np.linalg.solve(jac[np.ix_(keep, keep)], -rhs[keep])
        except np.linalg.LinAlgError:
            break
        x2 = x + delta[:n]
        lm2 = lm + float(delta[n])
        with np.errstate(over="ignore", invalid="ignore"):
            nrm2 = np.sum(mu * np.abs(x2) ** p)
        if not (np.isfinite(nrm2) and nrm2 > 0):
            break
        x2 = x2 / nrm2 ** (1.0 / p)
        defect2 = apply_plap(g, p, x2) - lm2 * g.mu_array() * psi(p, x2)
        r2 = float(np.max(np.abs(defect2)))
        if r2 < best[0]:
            best = (r2, lm2, x2)
            x, defect = x2, defect2
        else:
            break
    return best


def _ref_polish(g, p, lam, f, tol):
    """The one-row polish the stacked one replaced, verbatim: plain rounds,
    then below p = 2 a pinned try if they miss tol; (residual, lambda, f)."""
    x = np.asarray(f, dtype=float).copy()
    pin = np.zeros(g.n, dtype=bool)
    best = _ref_newton_rounds(g, p, float(lam), x, pin)
    if p < 2 and not best[0] <= tol * (1.0 + abs(best[1])):
        _, lm, x = best
        pin = np.abs(x) <= solver.PIN * np.abs(x).max()
        if pin.any():
            x = normalize_sp(np.where(pin, 0.0, x), p, g.mu_array())
            best = min(best, _ref_newton_rounds(g, p, lm, x, pin), key=lambda b: b[0])
    return best


def _ref_finish(g, p, f, lam, tol):
    """One start's serial polish as (f, lambda, residual)."""
    res, lam, f = _ref_polish(g, p, lam, f, tol)
    return f, lam, res


def _handoff_level(p):
    """The relative residual at which a row is handed to the polish."""
    return solver.HANDOFF if p >= 2 else solver.HANDOFF_P_BELOW_2


def _serial_ascent(g, p, f0, cfg, maximize, handoff=None):
    """One start at a time, on 1-D kernels: the loop the lockstep stack
    replaced.  With handoff, the run first stops at the hand-off residual and
    asks handoff(f, lambda) whether to end there; at p < 2 it asks again each
    time its relative residual has fallen to REHANDOFF times that of the last
    call.  Returns (f, lambda, stop reason)."""
    mu = g.mu_array()
    sgn = 1.0 if maximize else -1.0
    f = _ref_normalize(f0, p, mu)
    lam = _ref_rayleigh(g, p, f)
    step = solver.INITIAL_STEP
    level = -math.inf if handoff is None else _handoff_level(p)
    for _ in range(solver.MAX_ITERS):
        plap = _ref_apply(g, p, f)
        res = float(np.max(np.abs(plap - lam * mu * psi(p, f))))
        if res <= level * (1.0 + abs(lam)):
            level = solver.REHANDOFF * (res / (1.0 + abs(lam))) if p < 2 else -math.inf
            if handoff(f, lam):
                return f, lam, "handoff"
        if res <= 1e-3 * cfg.tol * (1.0 + abs(lam)):
            return f, lam, "residual"
        grad = sgn * (p * (plap - lam * mu * psi(p, f)))
        g2 = float(grad @ grad)
        if g2 <= 1e-30:
            return f, lam, "gradient"
        t = step
        moved = False
        while t > 1e-18:
            # a trial that cannot be normalized is rejected like a failed one
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    cand = _ref_normalize(f + t * grad, p, mu)
                except ValueError:
                    t *= solver.BACKTRACK
                    continue
            lam_c = _ref_rayleigh(g, p, cand)
            if sgn * (lam_c - lam) >= solver.ARMIJO_SLOPE * t * g2:
                f, lam = cand, lam_c
                moved = True
                break
            t *= solver.BACKTRACK
        if not moved:
            return f, lam, "no-armijo-step"
        step = min(max(t * 2.0, 1e-12), 1e3)
    return f, lam, "max-iters"


def _pick(pairs, p, cfg, largest):
    """The highest (lowest) polished pair within tolerance, the first on a tie."""
    best = None
    for f, lam, res in pairs:
        better = best is None or (lam > best[1] if largest else lam < best[1])
        if res <= cfg.tol * (1.0 + abs(lam)) and better:
            best = (f, lam, res)
    if best is None:
        raise SolverError(f"no restart reached residual tolerance {cfg.tol:g} "
                          f"(p={p}, restarts={cfg.restarts})")
    f, lam, res = best
    return PEigenPair(p=p, value=lam, f=f, residual=res, certificate="multi-restart")


def _serial_best_restart(g, p, cfg, largest, lead=(), finish=_ref_finish):
    """The restart loop one start at a time, each polish the serial one
    (finish).  At p = 2 the one start is the first of _starts, the pencil
    vector.  Otherwise each start is polished at each hand-off and, while
    that misses the tolerance, ascends on; if no hand-off meets it, its end
    point is polished instead."""
    if p == 2:
        f = _ref_normalize(solver._starts(g, p, cfg, largest)[0], p, g.mu_array())
        return _pick([finish(g, p, f, _ref_rayleigh(g, p, f), cfg.tol)],
                     p, cfg, largest)
    pairs = []
    for f0 in _solver_starts(g, p, cfg, largest, lead):
        handed = []

        def handoff(f, lam):
            handed.append(finish(g, p, f, lam, cfg.tol))
            _, lam, res = handed[-1]
            return res <= cfg.tol * (1.0 + abs(lam))
        f, lam, why = _serial_ascent(g, p, f0, cfg, largest, handoff)
        pairs.append(handed[-1] if why == "handoff" else finish(g, p, f, lam, cfg.tol))
    return _pick(pairs, p, cfg, largest)


def _lead(g, largest):
    """The starts solve_smallest puts before _starts: the balanced witness."""
    witness = graph.classify_balance(g).balanced_witness
    return () if largest or witness is None else (witness,)


def _solver_starts(g, p, cfg, largest, lead=()):
    """The starts _best_restart ascends from at p != 2."""
    return [np.asarray(f, dtype=float) for f in (*lead, *solver._starts(g, p, cfg, largest))]


def _balanced_kappa(n, seed):
    g = random_balanced(n, 0.6, seed)
    kappa = np.random.default_rng(seed).uniform(0.1, 1.0, n)
    return graph.validate(n, [tuple(e) for e in g.edges], kappa=kappa.tolist())


IDENTITY_GRAPHS = {
    "K3": families.complete(3), "K4": families.complete(4),
    "K5": families.complete(5), "K6": families.complete(6),
    "S4": families.star(4), "S7": families.star(7),
    "balanced-kappa7": _balanced_kappa(7, 3),
    "antibalanced-kappa6": antibalanced_negative_kappa(),
    "weighted8": random_weighted(8, 0.5, 0),    # non-unit w and mu, kappa != 0
    "weighted9": random_weighted(9, 0.6, 1, isolated=1),
    "signed9": random_signed(9, 0.5, 2),
}


def _short(monkeypatch, **constants):
    """Set the ascent's constants for one test, MAX_ITERS to 20 unless given:
    short runs keep the serial reference cheap, and every row still takes up
    to 20 accepted or rejected Armijo steps, which any rounding change would
    alter."""
    for name, value in {"MAX_ITERS": 20, **constants}.items():
        monkeypatch.setattr(solver, name, value)
    return SolverConfig()


def _assert_same_solve(g, p, cfg, largest, lead=()):
    try:
        want = _serial_best_restart(g, p, cfg, largest, lead)
    except SolverError as exc:
        with pytest.raises(SolverError) as got:
            solver._best_restart(g, p, cfg, largest, lead)
        assert str(got.value) == str(exc)
        return "error"
    got = solver._best_restart(g, p, cfg, largest, lead)
    assert np.array_equal(got.f, want.f)
    assert (got.value, got.residual, got.certificate) == \
        (want.value, want.residual, want.certificate)
    assert type(got.value) is float
    return "pair"


def _never(rows, F, lam):
    """A hand-off that ends no row: each row resumes where it was parked,
    so the ascent is the one it makes without hand-offs, bit for bit."""
    return np.zeros(len(rows), dtype=bool)


def _recording_handoff(g, p, cfg, calls):
    """A serial hand-off that polishes one row as _best_restart did before
    its polish was stacked, and logs each call."""
    def handoff(f, lam):
        _, lm, res = _ref_finish(g, p, f, lam, cfg.tol)
        calls.append((f.copy(), lam))
        return res <= cfg.tol * (1.0 + abs(lm))
    return handoff


def _recording_stacked_handoff(g, p, cfg, calls, stacks):
    """_ascent's hand-off as _best_restart makes it: polish the parked rows
    as one stack and end those that meet the tolerance; logs each row's
    point in calls[row] and each stack's rows in stacks."""
    def handoff(rows, F, lam):
        res, lms, _ = solver._newton_polish(g, p, lam, F, cfg.tol)
        stacks.append(rows.tolist())
        for i, f, lm in zip(rows.tolist(), F, lam.tolist()):
            calls[i].append((f.copy(), lm))
        return res <= cfg.tol * (1.0 + np.abs(lms))
    return handoff


@pytest.mark.parametrize("name", IDENTITY_GRAPHS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 8.0])
def test_lockstep_ascent_equals_the_serial_loop(name, p, monkeypatch):
    g, cfg = IDENTITY_GRAPHS[name], _short(monkeypatch)
    for largest in (True, False):
        lead = _lead(g, largest)
        starts = _solver_starts(g, p, cfg, largest, lead)
        for handing in (False, True):
            got, stacks = {i: [] for i in range(len(starts))}, []
            handoff = _recording_stacked_handoff(g, p, cfg, got, stacks) if handing else _never
            F, lam = solver._ascent(g, p, np.array(starts), cfg, largest, handoff)
            assert F.shape == (len(starts), g.n) and lam.shape == (len(starts),)
            for i, f0 in enumerate(starts):
                want = []
                f, lm, _ = _serial_ascent(g, p, f0, cfg, largest,
                                          _recording_handoff(g, p, cfg, want) if handing else None)
                assert np.array_equal(F[i], f) and lam[i] == lm, (i, largest, handing)
                # below p = 2 a row may be handed off more than once, and
                # each stack holds a row at most once
                assert len(got[i]) == len(want) and (p < 2 or len(want) <= 1)
                assert all(len(set(rows)) == len(rows) for rows in stacks)
                assert all(np.array_equal(a[0], b[0]) and a[1] == b[1]
                           for a, b in zip(got[i], want))
                if not handing:
                    F1, lam1 = solver._ascent(g, p, f0[None, :], cfg, largest, _never)
                    assert np.array_equal(F1[0], f) and lam1[0] == lm, (i, largest)
        _assert_same_solve(g, p, cfg, largest, lead)


def test_lockstep_covers_every_stop_reason(monkeypatch):
    # tol 1e-16 puts the internal stop below the rounding floor, so rows also
    # stop on a vanishing gradient or on no Armijo step
    monkeypatch.setattr(solver, "MAX_ITERS", 80)
    cfg = SolverConfig(tol=1e-16)
    g = families.complete(4)
    starts = _solver_starts(g, 2.0, cfg, True)
    F, lam = solver._ascent(g, 2.0, np.array(starts), cfg, True, _never)
    reasons = set()
    for i, f0 in enumerate(starts):
        f, lm, why = _serial_ascent(g, 2.0, f0, cfg, True)
        assert np.array_equal(F[i], f) and lam[i] == lm
        reasons.add(why)
    assert reasons == {"residual", "gradient", "no-armijo-step", "max-iters"}


@pytest.mark.parametrize("largest", [True, False], ids=["largest", "smallest"])
def test_a_row_at_residual_zero_is_parked_once_per_iteration(largest, monkeypatch):
    # on K3 at p = 1.5 the two-point start e0 - e1 is an exact eigenfunction:
    # its residual is 0.0, under every hand-off level, so a row resumed from
    # a hand-off that ends nothing is due again at once.  It must redo the
    # iteration it was parked in and stop there, as the serial loop does;
    # the raise makes a row parked again and again a failure, not a hang
    g, cfg = IDENTITY_GRAPHS["K3"], _short(monkeypatch)
    f0 = np.array([1.0, -1.0, 0.0])
    stacks, calls = [], []

    def ends_none(rows, F, lam):
        stacks.append(rows.tolist())
        if len(stacks) > 10:
            raise AssertionError("a resumed row was parked again in the same iteration")
        return np.zeros(len(rows), dtype=bool)

    def serial_ends_none(f, lam):
        calls.append(lam)
        return False
    F, lam = solver._ascent(g, 1.5, f0[None, :], cfg, largest, ends_none)
    f, lm, why = _serial_ascent(g, 1.5, f0, cfg, largest, serial_ends_none)
    assert why == "residual" and stacks == [[0]] and len(calls) == 1
    assert np.array_equal(F[0], f) and lam[0] == lm


def _assert_rows_equal_the_serial_loop(g, p, cfg, largest, rows=None):
    starts = _solver_starts(g, p, cfg, largest, _lead(g, largest))[:rows]
    F, lam = solver._ascent(g, p, np.array(starts), cfg, largest, _never)
    for i, f0 in enumerate(starts):
        f, lm, _ = _serial_ascent(g, p, f0, cfg, largest)
        assert np.array_equal(F[i], f) and lam[i] == lm, (i, largest)


@pytest.fixture
def blocks(monkeypatch):
    """Log 'a' for each call of the operator kernel (one per lockstep
    iteration) and 'r' for each call of the quotient kernel (one per block
    of Armijo trials); the test fails if either kernel is never called."""
    log = []
    for name, tag in (("_plap", "a"), ("_quotient", "r")):
        def spy(*args, _fn=getattr(solver, name), _tag=tag):
            log.append(_tag)
            return _fn(*args)
        monkeypatch.setattr(solver, name, spy)
    yield log
    assert "a" in log and "r" in log, "a spied kernel was never called"


@pytest.mark.parametrize("name", ["K4", "signed9", "weighted8"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_a_row_needing_more_than_one_block_equals_the_serial_loop(name, p, monkeypatch, blocks):
    # from a step of 1e3 the first iterations back off more than
    # ARMIJO_BLOCK times, so some iteration runs a second block
    g, cfg = IDENTITY_GRAPHS[name], _short(monkeypatch, INITIAL_STEP=1e3)
    for largest in (True, False):
        _assert_rows_equal_the_serial_loop(g, p, cfg, largest)
    assert "arr" in "".join(blocks)


@pytest.mark.parametrize("name", ["K4", "signed9", "weighted9"])
@pytest.mark.parametrize("step", [1.5e-18, 3.5e-18], ids=["trial-2", "trial-3"])
def test_a_floor_inside_a_block_equals_the_serial_loop(name, step, monkeypatch):
    # a first step just above the 1e-18 floor puts the floor inside the
    # first block: the trials past it must not count.  At p = 64 the
    # gradient is large enough for a step below the floor to pass the test
    cfg = _short(monkeypatch, INITIAL_STEP=step)
    for p in (1.5, 3.0, 64.0):
        for largest in (True, False):
            _assert_rows_equal_the_serial_loop(IDENTITY_GRAPHS[name], p, cfg, largest)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_a_slow_backtrack_equals_the_serial_loop(p, monkeypatch):
    # at b = 0.999 a row runs hundreds of blocks in its first iteration; the
    # first four starts keep the serial reference short
    cfg = _short(monkeypatch, BACKTRACK=0.999)
    for largest in (True, False):
        _assert_rows_equal_the_serial_loop(IDENTITY_GRAPHS["K4"], p, cfg, largest, rows=4)


@pytest.mark.parametrize("p", [32.0, 64.0])
def test_trials_off_the_sphere_are_rejected_as_in_the_serial_loop(p, monkeypatch):
    # at p >= 32 the p-norm of a long trial step overflows; the serial loop
    # rejects that trial and backs off, and so must every row of a block
    cfg = _short(monkeypatch)
    for name in ("K4", "signed9"):
        for largest in (True, False):
            _assert_rows_equal_the_serial_loop(IDENTITY_GRAPHS[name], p, cfg, largest)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("p", [32.0, 64.0])
def test_solve_largest_of_complete_graphs_at_large_p(n, p):
    pair = solve_largest(families.complete(n), p)
    vals = closed_form_complete(n, p)
    assert np.min(np.abs(vals - pair.value)) <= 1e-12 * pair.value
    assert pair.value <= vals[-1] * (1 + 1e-12)
    assert pair.residual <= SolverConfig().tol * (1 + pair.value)
    assert pair.residual == residual(families.complete(n), p, pair.value, pair.f)


def test_a_generic_signed_graph_at_p64_returns_a_pair():
    g = random_signed(8, 0.6, 0)
    assert graph.classify_balance(g).kind == "neither"
    for solve in (solve_largest, solve_smallest):
        pair = solve(g, 64.0)
        assert pair.certificate == "multi-restart"
        assert pair.residual <= SolverConfig().tol * (1 + abs(pair.value))


@pytest.mark.parametrize("name,p,largest", [("K3", 2.0, True), ("S4", 3.0, True),
                                            ("balanced-kappa7", 2.0, False),
                                            ("signed9", 2.0, True),
                                            ("K4", 3.0, True), ("signed9", 4.0, False),
                                            ("weighted9", 3.0, True)])
def test_lockstep_solve_equals_the_serial_loop_at_the_default_config(name, p, largest):
    g, cfg = IDENTITY_GRAPHS[name], SolverConfig()
    assert _assert_same_solve(g, p, cfg, largest, _lead(g, largest)) == "pair"


def test_lockstep_solve_where_every_restart_fails(monkeypatch):
    g, cfg = IDENTITY_GRAPHS["weighted9"], _short(monkeypatch)
    for largest in (True, False):
        assert _assert_same_solve(g, 1.5, cfg, largest, _lead(g, largest)) == "error"


@pytest.mark.parametrize("name,p,largest", [("K4", 3.0, True), ("signed9", 4.0, True),
                                            ("weighted9", 8.0, False)])
def test_a_handed_off_row_that_misses_the_tolerance_resumes(name, p, largest, monkeypatch):
    # with the polish a no-op, every row handed off short of the tolerance
    # must go on exactly as if it had never been handed off
    g, cfg = IDENTITY_GRAPHS[name], _short(monkeypatch, MAX_ITERS=300)
    lead = _lead(g, largest)

    def no_polish(g, p, lam, F, tol):
        return (np.array([residual(g, p, lm, f) for lm, f in zip(lam, F)]),
                np.array(lam, dtype=float), np.array(F, dtype=float))
    monkeypatch.setattr(solver, "_newton_polish", no_polish)

    def no_finish(g, p, f, lam, tol):
        return f, lam, residual(g, p, lam, f)
    answers = []
    ascent = solver._ascent

    def spy(g, p, F0, cfg, maximize, handoff):
        def logged(rows, F, lam):
            ended = handoff(rows, F, lam)
            answers.extend((residual(g, p, lm, f) <= cfg.tol * (1 + abs(lm)), bool(end))
                           for f, lm, end in zip(F, lam.tolist(), ended))
            return ended
        return ascent(g, p, F0, cfg, maximize, logged)
    monkeypatch.setattr(solver, "_ascent", spy)
    got = solver._best_restart(g, p, cfg, largest, lead)
    assert answers and all(ok == ended for ok, ended in answers)
    assert sum(not ended for _, ended in answers) >= 3
    no_handoff = [no_finish(g, p, *_serial_ascent(g, p, f0, cfg, largest)[:2], cfg.tol)
                  for f0 in _solver_starts(g, p, cfg, largest, lead)]
    for want in (_serial_best_restart(g, p, cfg, largest, lead, no_finish),
                 _pick(no_handoff, p, cfg, largest)):
        assert np.array_equal(got.f, want.f)
        assert (got.value, got.residual) == (want.value, want.residual)


def test_perron_single_start_is_one_row():
    g = IDENTITY_GRAPHS["antibalanced-kappa6"]
    gneg = graph.switch(g, graph.classify_balance(g).antibalanced_witness)
    cfg = SolverConfig()
    f0 = np.abs(np.random.default_rng(cfg.rng_seed).standard_normal(g.n)) + 0.1
    F, lam = solver._ascent(gneg, 3.0, f0[None, :], cfg, True, _never)
    f, lm, _ = _serial_ascent(gneg, 3.0, f0, cfg, True)
    assert np.array_equal(F[0], f) and lam[0] == lm
    assert solve_largest(g, 3.0, cfg).certificate == "perron-certified"


def _count_polish(monkeypatch) -> list:
    calls = []
    polish = solver._newton_polish

    def counted(g, p, lam, F, tol):
        calls.append(p)
        return polish(g, p, lam, F, tol)
    monkeypatch.setattr(solver, "_newton_polish", counted)
    return calls


def test_a_bracketed_cone_stop_skips_the_polish(monkeypatch):
    # the cone stop pins lambda already; no dense Jacobian is built or solved
    calls = _count_polish(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", None)
    pair = solve_largest(families.hypercube(10), 8.0)
    assert pair.certificate == "perron-certified" and calls == []
    assert pair.residual <= 1e-14 * (1 + pair.value)


def test_the_polish_runs_when_the_cone_iteration_runs_out(monkeypatch):
    calls = _count_polish(monkeypatch)
    refine = solver._power_refine
    monkeypatch.setattr(solver, "_power_refine",
                        lambda *args: (refine(*args)[0], np.zeros(len(args[1]), dtype=bool),
                                       np.zeros(len(args[1]), dtype=bool)))
    assert solve_largest(families.hypercube(6), 8.0).certificate == "perron-certified"
    assert calls == [8.0]


def test_a_negative_kappa_solve_runs_the_shifted_cone_iteration(monkeypatch):
    # kappa < 0 runs the cone iteration on kappa + c mu, not an ascent, and
    # a closed bracket skips the polish there too
    calls = _count_polish(monkeypatch)
    monkeypatch.setattr(solver, "_ascent", None)
    pair = solve_largest(IDENTITY_GRAPHS["antibalanced-kappa6"], 3.0)
    assert pair.certificate == "perron-certified" and calls == []


# --- the stacked p-grid against the one-p cone loop it replaced -------------

def _serial_cone(gneg, p, f0, tol=None, shift=0.0):
    """The cone iteration one p at a time, on 1-D kernels: (f, stopped).  A
    round stops it once its Collatz-Wielandt bracket [lo, hi] has closed to
    CONE_RTOL, or (tol not None, and not a rescaled round) once f_max^(p-1)
    (hi^(p-1) - lo^(p-1)) of the new iterate f is at most min(CONE_DEFECT *
    tol / max mu * (1 + |lo^(p-1) - shift|), CONE_DEFECT_CAP); tol None is
    the loop before that rule."""
    mu = gneg.mu_array()
    f = np.abs(np.asarray(f0, dtype=float))
    f[f == 0] = 1e-12
    f = _ref_normalize(f, p, mu)
    invexp, pm1 = 1.0 / (p - 1.0), p - 1.0
    for _ in range(solver.CONE_ROUNDS):
        rescaled = False
        with np.errstate(over="ignore", invalid="ignore"):
            d = _ref_apply(gneg, p, f) / mu
            t = d ** invexp
            try:
                _ref_normalize(t, p, mu)
            except ValueError:      # redo the round from d over its largest entry
                t, rescaled = (d / d.max()) ** invexp, True
                if not t.all():     # an entry underflowed: out of the open cone
                    raise
        ratio = t / f
        lo, hi = float(ratio.min()), float(ratio.max())
        f = _ref_normalize(t, p, mu)
        if hi - lo <= solver.CONE_RTOL * hi:
            return f, True
        if tol is None or rescaled:
            continue
        try:
            low = lo ** pm1
            bound = float(f.max()) ** pm1 * (hi ** pm1 - low)
        except OverflowError:
            continue
        target = solver.CONE_DEFECT * tol / float(mu.max()) * (1.0 + abs(low - shift))
        if bound <= min(target, solver.CONE_DEFECT_CAP):
            return f, True
    return f, False


def _shift(gneg):
    """c = max(-kappa / mu)."""
    return max(-k / m for k, m in zip(gneg.kappa_array().tolist(), gneg.mu_array().tolist()))


def _shifted(gneg):
    """gneg with kappa + c mu, c = _shift(gneg), clipped at 0."""
    mu, kappa = gneg.mu_array(), gneg.kappa_array()
    return graph.validate(gneg.n, [tuple(e) for e in gneg.edges], mu=gneg.mu,
                          kappa=np.maximum(kappa + _shift(gneg) * mu, 0.0).tolist())


def _serial_largest(g, p, cfg, closure_only=False):
    """solve_largest as it was before grids: one p, the serial cone loop,
    on the potential shifted to kappa >= 0 where some kappa_i < 0; with
    closure_only, the loop that stops only at a CONE_RTOL closure."""
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    if p > solver.P_CAP:
        raise ValueError(f"p > {solver.P_CAP:g} is not supported by the iterative solvers")
    if g.m == 0:
        return solver._edgeless_pair(g, p, largest=True)
    witness = graph.connected_antibalancing_tau(g)
    if witness is not None:
        tau = np.asarray(witness, dtype=float)
        gneg = graph.switch(g, witness)
        gcone, c = (gneg, 0.0) if min(gneg.kappa) >= 0 else (_shifted(gneg), _shift(gneg))
        f, bracketed = _serial_cone(gcone, p, np.ones(g.n), None if closure_only else cfg.tol, c)
        lam = _ref_rayleigh(gneg, p, f)
        if bracketed or p < 2:
            res = residual(gneg, p, lam, f)
        else:
            f, lam, res = _ref_finish(gneg, p, f, lam, cfg.tol)
        if (np.all(f > 0) or np.all(f < 0)) and res <= cfg.tol * (1.0 + abs(lam)):
            return PEigenPair(p=p, value=lam, f=tau * np.abs(f), residual=res,
                              certificate="perron-certified")
    return solver._best_restart(g, p, cfg, largest=True)


def _ascent_largest(g, p, cfg):
    """solve_largest on a connected antibalanced graph with some kappa_i < 0
    as it was before the potential shift: one ascent from one random start,
    polished at p >= 2, else the restarts.  _never keeps the ascent the one
    without hand-offs."""
    witness = graph.connected_antibalancing_tau(g)
    tau = np.asarray(witness, dtype=float)
    gneg = graph.switch(g, witness)
    f0 = np.abs(np.random.default_rng(cfg.rng_seed).standard_normal(g.n)) + 0.1
    F1, lams = solver._ascent(gneg, p, f0[None, :], cfg, True, _never)
    f, lam, bracketed = F1[0], float(lams[0]), False
    if bracketed or p < 2:
        res = residual(gneg, p, lam, f)
    else:
        (f, lam, res), = solver._polish_rows(gneg, p, [lam], f[None, :], cfg.tol)
    one_signed = bool(np.all(f > 0) or np.all(f < 0))
    if one_signed and res <= cfg.tol * (1.0 + abs(lam)):
        return PEigenPair(p=p, value=lam, f=tau * np.abs(f), residual=res,
                          certificate="perron-certified")
    return solver._best_restart(g, p, cfg, largest=True)


def _assert_grid_is_serial(g, ps, cfg=None):
    """solve_largest_grid(g, ps) against the serial loop: the same pairs bit
    for bit, or the same exception; returns the certificates or "error"."""
    cfg = cfg or SolverConfig()
    try:
        want = [_serial_largest(g, p, cfg) for p in ps]
    except (SolverError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            list(solver.solve_largest_grid(g, ps, cfg))
        assert str(got.value) == str(exc)
        return "error"
    got = list(solver.solve_largest_grid(g, ps, cfg))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.f.tobytes() == b.f.tobytes()
        assert (a.p, a.value, a.residual, a.certificate) == \
            (b.p, b.value, b.residual, b.certificate)
        assert type(a.p) is type(b.p) and type(a.value) is float
    return [pair.certificate for pair in got]


def _weighted_antibalanced(n, seed):
    """Connected antibalanced graph with non-unit w and mu and kappa > 0."""
    g = random_connected_antibalanced(n, 0.5, seed)
    rng = np.random.default_rng(seed)
    edges = [(e.u, e.v, float(rng.uniform(0.2, 3.0)), e.sigma) for e in g.edges]
    return graph.validate(n, edges, mu=rng.uniform(0.3, 4.0, n).tolist(),
                          kappa=rng.uniform(0.1, 2.0, n).tolist())


def _negative_kappa(n, seed, low=-2.0, high=1.0):
    """_weighted_antibalanced(n, seed) with kappa drawn from [low, high]."""
    g = _weighted_antibalanced(n, seed)
    kappa = np.random.default_rng(seed + 1000).uniform(low, high, n)
    return graph.validate(n, [tuple(e) for e in g.edges], mu=g.mu, kappa=kappa.tolist())


def _clipped_shift():
    """kappa_0 = -0.1 and mu_0 = 2.9 set c = 0.1 / 2.9, and kappa_0 + c mu_0
    rounds to -1.4e-17: the shifted potential needs its clip at 0."""
    g = _weighted_antibalanced(7, 12)
    return graph.validate(7, [tuple(e) for e in g.edges], mu=(2.9, *g.mu[1:]),
                          kappa=(-0.1, *g.kappa[1:]))


# connected antibalanced graphs with some kappa_i < 0: n 4-12 with kappa
# from [-2, 1], one with kappa from [-50, -10], and the clip case
NEGATIVE_KAPPA = {**{f"n{n}": _negative_kappa(n, 20 + n) for n in range(4, 13)},
                  "large-shift": _negative_kappa(8, 40, -50.0, -10.0),
                  "clip": _clipped_shift()}
GRIDS = {"default": cli.DEFAULT_P_GRID, "limit": cli.LIMIT_P_GRID, "tensor": (2, 4),
         "unsorted": (8.0, 2.0, 1.5, 16.0, 2.0, 3.0)}
PERRON_GRAPHS = {"anti4": random_connected_antibalanced(4, 0.8, 1),
                 "anti7": random_connected_antibalanced(7, 0.5, 2),
                 "anti10": random_connected_antibalanced(10, 0.4, 3),
                 "anti15": random_connected_antibalanced(15, 0.3, 4),
                 "star6": families.star(6),
                 "weighted-kappa9": _weighted_antibalanced(9, 5),
                 "antibalanced-kappa6": IDENTITY_GRAPHS["antibalanced-kappa6"]}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", PERRON_GRAPHS)
def test_a_perron_grid_is_the_serial_loop_bit_for_bit(name, grid):
    got = _assert_grid_is_serial(PERRON_GRAPHS[name], GRIDS[grid])
    assert got == ["perron-certified"] * len(GRIDS[grid])


def test_a_perron_grid_runs_one_stack(monkeypatch):
    calls = []
    refine = solver._power_refine

    def counted(gneg, ps, *rule):
        calls.append(list(ps))
        return refine(gneg, ps, *rule)
    monkeypatch.setattr(solver, "_power_refine", counted)
    list(solver.solve_largest_grid(PERRON_GRAPHS["anti7"], cli.DEFAULT_P_GRID))
    assert calls == [list(cli.DEFAULT_P_GRID)]


def test_a_grid_finishes_each_row_when_it_is_asked_for(monkeypatch):
    # the stack runs before the first pair; each row's Rayleigh quotient and
    # certificate come only when the caller takes that row, so a caller that
    # stops at one p never finishes (nor raises at) a later one
    calls = []
    ray = solver.rayleigh
    monkeypatch.setattr(solver, "rayleigh", lambda g, p, f: calls.append(p) or ray(g, p, f))
    pairs = solver.solve_largest_grid(PERRON_GRAPHS["anti7"], (3.0, 2.0, 8.0, 1.0))
    assert next(pairs).p == 3.0 and calls == [3.0]
    assert next(pairs).p == 2.0 and calls == [3.0, 2.0]


@pytest.mark.parametrize("g,ps,want", [
    (IDENTITY_GRAPHS["K4"], (3.0, 2.0, 4.0), ["multi-restart"] * 3),   # not antibalanced
    (families.edgeless(4), (2.0, 3.0), ["closed-form"] * 2),
    (graph.negate(families.path(5)), (2.0, 3.0), ["perron-certified"] * 2),
], ids=["not-antibalanced", "edgeless", "negated-path"])
def test_a_grid_off_the_stack_is_the_serial_loop(g, ps, want):
    got = _assert_grid_is_serial(g, ps)
    assert got == want


NEGATIVE_KAPPA_PS = (1.1, 1.25, 1.5, 2.0, 3.0, 8.0, 16.0, 32.0, 64.0)


@pytest.mark.parametrize("name", NEGATIVE_KAPPA)
def test_a_negative_kappa_solve_is_certified_and_never_below_the_ascent(name):
    # before the potential shift these graphs took _ascent_largest, which
    # fell back to the restarts or raised SolverError on many of them and,
    # at p >= 16, often returned an eigenvalue below the top one
    g, cfg = NEGATIVE_KAPPA[name], SolverConfig()
    assert min(g.kappa) < 0
    pairs = [solve_largest(g, p, cfg) for p in NEGATIVE_KAPPA_PS]
    pairs += solver.solve_largest_grid(g, cli.DEFAULT_P_GRID, cfg)
    before = {}
    for p, pair in zip((*NEGATIVE_KAPPA_PS, *cli.DEFAULT_P_GRID), pairs):
        slack = cfg.tol * (1.0 + abs(pair.value))
        assert pair.p == p and pair.certificate == "perron-certified"
        assert pair.residual <= slack
        assert potential_shift_check(g, p, g.n).passed
        if p not in before:
            try:
                before[p] = _ascent_largest(g, p, cfg).value
            except SolverError:
                before[p] = -math.inf
        assert pair.value >= before[p] - slack, p


def test_the_clip_case_rounds_below_zero():
    # without the clip at 0 the shifted potential would have a negative entry
    gneg = graph.switch(NEGATIVE_KAPPA["clip"],
                        graph.connected_antibalancing_tau(NEGATIVE_KAPPA["clip"]))
    mu, kappa = gneg.mu_array(), gneg.kappa_array()
    c = np.max(-kappa / mu)
    assert c == 0.1 / 2.9 and (kappa + c * mu)[0] < 0
    assert min(_shifted(gneg).kappa) == 0.0


@pytest.mark.parametrize("rounds", [0, 3, 46, 58])
def test_rows_that_run_out_of_cone_rounds_are_the_serial_loop(rounds, monkeypatch):
    # too few rounds: rows at p >= 2 are polished, and rows below 2 that miss
    # the tolerance fall through to the restarts, each as in a single solve.
    # The rows stop after 47, 46, 52 and 64 rounds: at 46 the p = 2 row stops
    # in the stack and the other three run out, at 58 the p = 8 row runs out
    # as the only live row
    monkeypatch.setattr(solver, "CONE_ROUNDS", rounds)
    calls = _count_polish(monkeypatch)
    got = _assert_grid_is_serial(PERRON_GRAPHS["anti7"], (1.5, 2.0, 3.0, 8.0))
    assert got != "error" and 8.0 in calls


@pytest.mark.parametrize("ps", [(2.0, 100.0), (2.0, 1.0), (1.0, 2.0), (100.0, 1.0),
                                (3.0, float("nan"))])
@pytest.mark.parametrize("name", ["anti7", "K4"])
def test_a_grid_raises_the_serial_loops_error_at_the_same_p(name, ps):
    g = PERRON_GRAPHS.get(name) or IDENTITY_GRAPHS[name]
    assert _assert_grid_is_serial(g, ps) == "error"


def _heavy_path(w):
    """The path 0 - 1 - 2, all negative, with weights w and 1."""
    return graph.validate(3, [(0, 1, w, -1), (1, 2, 1.0, -1)])


@pytest.mark.parametrize("ps", [(32.0, 2.0, 64.0), (2.0,), (32.0, 64.0, 3.0)])
def test_a_row_whose_norm_overflows_raises_as_the_serial_loop(ps):
    # at p >= 32, Delta_p of the first cone iterate overflows with weight
    # 1e300, so no rescale can save the round; p = 2 and 3 rescale and certify
    got = _assert_grid_is_serial(_heavy_path(1e300), ps)
    assert (got == "error") == (32.0 in ps)


@pytest.mark.parametrize("w,ps", [(1e200, (2.0, 3.0, 8.0, 32.0, 64.0)),
                                  (1e300, (2.0, 3.0, 4.0, 8.0, 16.0))])
def test_a_huge_finite_weight_is_certified_after_a_rescale(w, ps):
    # the p-norm of T(f) overflows; T is 1-homogeneous, so the round is
    # redone from Delta_p f / mu over its largest entry.  The heavy edge
    # dominates: lambda = w 2^(p-1) to far below the last place
    g = _heavy_path(w)
    assert _assert_grid_is_serial(g, ps) == ["perron-certified"] * len(ps)
    for p in ps:
        pair = solve_largest(g, p)
        assert pair.value == pytest.approx(w * 2.0 ** (p - 1.0), rel=1e-12)
        assert np.all(pair.f > 0) and pair.residual <= 1e-8 * (1.0 + pair.value)


@pytest.mark.parametrize("w,p", [(1e200, 1.5), (1e300, 1.5), (1e300, 1.9), (1e300, 32.0),
                                 (1e300, 64.0)])
def test_a_huge_weight_that_no_rescale_saves_fails_by_name(w, p):
    # below p = 2 the rescaled T(f) underflows to 0 at the light end and
    # leaves the open cone; at p >= 32, Delta_p itself overflows at 1e300
    with pytest.raises(ValueError, match="cannot normalize the zero"):
        solve_largest(_heavy_path(w), p)


def _two_components():
    a, b = random_weighted(5, 0.7, 3), random_weighted(4, 0.9, 4)
    edges = [tuple(e) for e in a.edges] + [(e.u + 5, e.v + 5, e.w, e.sigma) for e in b.edges]
    return graph.validate(9, edges, mu=[*a.mu, *b.mu], kappa=[*a.kappa, *b.kappa])


@pytest.mark.parametrize("g", [IDENTITY_GRAPHS["weighted8"], IDENTITY_GRAPHS["weighted9"],
                               IDENTITY_GRAPHS["signed9"], _two_components(),
                               random_signed(8, 0.5, 0)],
                         ids=["weighted8", "weighted9-isolated", "signed9",
                              "two-components", "signed8-isolated"])
def test_p2_solves_directly_to_the_pencil_extremes(g, monkeypatch):
    # the p = 2 quotient is the pencil's, so its extreme eigenvalues are the
    # answers; no restart stack is built or ascended
    monkeypatch.setattr(solver, "_ascent", None)
    monkeypatch.setattr(solver, "_starts", None)
    eigs = _signless_laplacian_eigs(g)
    for solve, want in ((solve_largest, eigs[-1]), (solve_smallest, eigs[0])):
        pair = solve(g, 2.0)
        assert pair.certificate == "multi-restart"
        assert abs(pair.value - want) <= 1e-12 * (1 + abs(want))
        assert pair.residual <= 1e-14 * (1 + abs(pair.value))


def test_p2_keeps_the_perron_and_closed_form_paths():
    for g in (families.star(6), random_connected_antibalanced(7, 0.5, 2),
              graph.negate(families.cycle(5))):
        assert solve_largest(g, 2.0).certificate == "perron-certified"
    shifted = graph.validate(4, [tuple(e) for e in families.cycle(4).edges],
                             mu=[2.0, 1.0, 0.5, 1.0], kappa=[1.4, 0.7, 0.35, 0.7])
    for g in (families.cycle(4), random_balanced(7, 0.6, 1), shifted):
        assert solve_smallest(g, 2.0).certificate == "closed-form"


@pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
def test_polish_solves_around_a_decoupled_vertex(p):
    # vertex 4 is isolated; a row that is zero there has a vanishing Jacobian
    # row and column at p > 2, which made the bordered system singular
    g = random_signed(8, 0.5, 0)
    assert not any(4 in (e.u, e.v) for e in g.edges)
    cfg = SolverConfig()
    F, lam = solver._ascent(g, p, np.array(solver._starts(g, p, cfg, True)), cfg, True,
                            lambda rows, F, lam: np.ones(len(rows), dtype=bool))
    rows = np.flatnonzero(F[:, 4] == 0)
    assert rows.size >= 2
    # the rows share their unknowns, so they are solved as one stack
    res, lms, X = solver._newton_polish(g, p, lam[rows], F[rows], cfg.tol)
    for i, r, lm, x in zip(rows, res, lms, X):
        assert x[4] == 0
        assert residual(g, p, lm, x) <= 1e-14 * (1 + abs(lm))
        want = _ref_polish(g, p, lam[i], F[i], cfg.tol)
        assert (r, lm, x.tobytes()) == (want[0], want[1], want[2].tobytes())


def _assert_stack_is_the_serial_polish(g, p, lam, F, tol):
    """Each row of _newton_polish on the stack (lam, F) is _ref_polish of
    that row alone: residual, lambda and the bytes of f."""
    res, lms, X = solver._newton_polish(g, p, lam, F, tol)
    assert res.shape == lms.shape == (len(F),) and X.shape == F.shape
    for lm, f, r, got_lm, x in zip(np.asarray(lam).tolist(), F, res.tolist(), lms.tolist(), X):
        want = _ref_polish(g, p, lm, f, tol)
        assert (r, got_lm, x.tobytes()) == (want[0], want[1], want[2].tobytes())
    return res, lms


@pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 4.0, 8.0])
def test_every_stacked_polish_is_the_serial_polish(p, monkeypatch):
    # every stack _ascent hands over (each row polished where the serial
    # loop would hand it off, and handed back to the ascent when it misses
    # the tolerance), then every row's end point as one stack
    cfg = _short(monkeypatch, MAX_ITERS=60)
    pinned = []
    rounds = solver._newton_rounds

    def spy(g, p, lam, X, pin):
        pinned.append(0 if pin is None else len(X))
        return rounds(g, p, lam, X, pin)
    monkeypatch.setattr(solver, "_newton_rounds", spy)
    stacks = []
    for g in IDENTITY_GRAPHS.values():
        for largest in (True, False):
            def handoff(rows, F, lam):
                stacks.append(len(rows))
                res, lms = _assert_stack_is_the_serial_polish(g, p, lam, F, cfg.tol)
                return res <= cfg.tol * (1.0 + np.abs(lms))
            starts = np.array(_solver_starts(g, p, cfg, largest, _lead(g, largest)))
            F, lam = solver._ascent(g, p, starts, cfg, largest, handoff)
            _assert_stack_is_the_serial_polish(g, p, lam, F, cfg.tol)
    assert max(stacks) >= 2
    # below p = 2 some rows miss the tolerance and take the pinned retry
    assert (sum(pinned) > 0) == (p < 2)


def test_a_singular_jacobian_stops_only_its_row(monkeypatch):
    # numpy raises for a whole stack when one matrix is singular; that row
    # then keeps its start, as the serial polish's break did, and the other
    # rows are solved one by one and go on
    g, p, cfg = IDENTITY_GRAPHS["signed9"], 3.0, SolverConfig()
    points = []

    def handoff(rows, F, lam):
        points.extend(zip(lam.tolist(), F))
        return np.ones(len(rows), dtype=bool)
    solver._ascent(g, p, np.array(_solver_starts(g, p, cfg, True)), cfg, True, handoff)
    lam, F = np.array([lm for lm, _ in points[:4]]), np.array([f for _, f in points[:4]])
    real = np.linalg.solve
    seen = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(a.copy()) or real(a, b))
    _ref_polish(g, p, lam[2], F[2], cfg.tol)
    bad, calls = seen[0].tobytes(), []

    def solve(a, b):
        calls.append(a.shape)
        if any(m.tobytes() == bad for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)
    monkeypatch.setattr(np.linalg, "solve", solve)
    res, lms = _assert_stack_is_the_serial_polish(g, p, lam, F, cfg.tol)
    assert calls[0] == (4, g.n + 1, g.n + 1) and (g.n + 1, g.n + 1) in calls
    assert res[2] == residual(g, p, lam[2], F[2]) and lms[2] == lam[2]
    assert all(res[i] < residual(g, p, lam[i], F[i]) for i in (0, 1, 3))


def test_a_row_with_an_infinite_jacobian_entry_stops_before_it_is_built():
    # below p = 2 an exact zero entry makes |f_i|^(p-2) infinite: that row
    # ends at its start, and no Jacobian of it is built (tier-1 turns the
    # 'invalid value' of inf * 0 into an error)
    g, p, cfg = IDENTITY_GRAPHS["signed9"], 1.5, SolverConfig()
    points = []

    def handoff(rows, F, lam):
        points.extend(F)
        return np.ones(len(rows), dtype=bool)
    solver._ascent(g, p, np.array(_solver_starts(g, p, cfg, True)), cfg, True, handoff)
    F = np.array(points[:3])
    F[1, np.argmin(np.abs(F[1]))] = 0.0
    F = normalize_sp(F, p, g.mu_array())
    lam = rayleigh(g, p, F)
    res, lms, X = solver._newton_rounds(g, p, lam.copy(), F.copy(), None)
    assert (res[1], lms[1], X[1].tobytes()) == (residual(g, p, lam[1], F[1]), lam[1], F[1].tobytes())
    assert res[0] < residual(g, p, lam[0], F[0]) and res[2] < residual(g, p, lam[2], F[2])
    _assert_stack_is_the_serial_polish(g, p, lam, F, cfg.tol)


def test_a_generic_solve_batches_its_newton_steps(monkeypatch):
    # each hand-off polished alone made 71 one-matrix solves here; the
    # parked rows and the end points now go through stacked solves
    calls = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: calls.append(a.shape) or real(a, b))
    pair = solve_largest(families.complete(6), 4.0)
    assert pair.value == pytest.approx(complete_extremes(6, 4.0)[1], rel=1e-12)
    assert len(calls) <= 15
    assert any(len(shape) == 3 and shape[0] >= 2 for shape in calls)


def _inline_polish(g, p, lam, f):
    """The p >= 2 polish as it was before its rounds kept their defect and
    psi: every round recomputes both."""
    n = g.n
    a = g._arrays
    mu, kap, u, v, w, s = a.mu, a.kappa, a.u, a.v, a.w, a.sigma
    side = n + 1
    cells = np.concatenate((u * side + u, v * side + v, u * side + v, v * side + u))
    x = np.asarray(f, dtype=float).copy()
    lm = float(lam)
    best = (residual(g, p, lm, x), lm, x)
    for _ in range(solver.POLISH_ROUNDS):
        absx = np.abs(x)
        dx = np.ones_like(x) if p == 2 else absx ** (p - 2.0)
        d = x[u] - s * x[v]
        dd = np.ones_like(d) if p == 2 else np.abs(d) ** (p - 2.0)
        coef = (p - 1.0) * w * dd
        off = -s * coef
        jac = np.bincount(cells, np.concatenate((coef, coef, off, off)),
                          minlength=side * side).reshape(side, side)
        idx = np.arange(n)
        jac[idx, idx] += (p - 1.0) * (kap - lm * mu) * dx
        jac[:n, n] = -mu * psi(p, x)
        jac[n, :n] = p * mu * psi(p, x)
        rhs = np.empty(n + 1)
        rhs[:n] = apply_plap(g, p, x) - lm * mu * psi(p, x)
        rhs[n] = float(np.sum(mu * absx ** p) - 1.0)
        coupled = jac.any(axis=1)
        try:
            if coupled.all():
                delta = np.linalg.solve(jac, -rhs)
            else:
                keep = np.flatnonzero(coupled)
                delta = np.zeros(side)
                delta[keep] = np.linalg.solve(jac[np.ix_(keep, keep)], -rhs[keep])
        except np.linalg.LinAlgError:
            break
        x2 = x + delta[:n]
        lm2 = lm + float(delta[n])
        with np.errstate(over="ignore", invalid="ignore"):
            nrm2 = np.sum(mu * np.abs(x2) ** p)
        if not (np.isfinite(nrm2) and nrm2 > 0):
            break
        x2 = x2 / nrm2 ** (1.0 / p)
        r2 = residual(g, p, lm2, x2)
        if r2 < best[0]:
            best = (r2, lm2, x2)
            x, lm = x2, lm2
        else:
            break
    return best[1], best[2]


@pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
def test_polish_from_p2_up_is_the_inline_polish_bit_for_bit(p, monkeypatch):
    # every row is polished where the hand-off would first try Newton, and
    # where 40 more iterations left it; the residual it returns is that of
    # its pair, bit for bit
    cfg = _short(monkeypatch, MAX_ITERS=40)
    for g in IDENTITY_GRAPHS.values():
        for largest in (True, False):
            starts = np.array(_solver_starts(g, p, cfg, largest, _lead(g, largest)))
            handed = []

            def handoff(rows, F, lam):
                handed.extend(zip(lam.tolist(), F.copy()))
                return np.zeros(len(rows), dtype=bool)
            F, lam = solver._ascent(g, p, starts, cfg, largest, handoff)
            points = [*handed, *zip(lam.tolist(), F)]
            res, lms, X = solver._newton_polish(g, p, [lm for lm, _ in points],
                                                np.array([f for _, f in points]), cfg.tol)
            for (lm, f), r, got_lm, got_f in zip(points, res.tolist(), lms.tolist(), X):
                want = _inline_polish(g, p, lm, f)
                assert got_lm == want[0] and np.array_equal(got_f, want[1])
                assert r == residual(g, p, got_lm, got_f)


# the values of the random_graph(n, 0.5, i, signed=True) solves at p = 1.5 in
# perfbench's extremal workload, recorded when each row was polished at most
# once; handing rows back to Newton keeps them bit for bit.  (6, 3, True),
# (8, 0..2, True) and (6, 1, False) raised SolverError before the polish ran
# below p = 2, and two of them end at a zero entry.  Graph (6, 2) is
# balanced, so its bottom pair is the closed form
P15_VALUES = {
    (6, 0, True): 3.2764176243905854, (6, 0, False): 0.0,
    (6, 1, True): 4.849248604347993, (6, 1, False): 0.7883875437990915,
    (6, 2, True): 3.4847126279367626, (6, 2, False): 0.0,
    (6, 3, True): 3.5236536003800367, (6, 3, False): 0.35458949183140875,
    (8, 0, True): 5.268675500219982, (8, 0, False): 0.0,
    (8, 1, True): 5.355483406300277, (8, 1, False): 0.6769548656737171,
    (8, 2, True): 5.341961521533917, (8, 2, False): 0.4373447520033824,
    (8, 3, True): 6.265415530774063, (8, 3, False): 1.2609114861034372,
}


@pytest.mark.parametrize("n,i,largest", P15_VALUES)
def test_generic_p15_solves_that_failed_now_answer(n, i, largest):
    g = families.random_graph(n, 0.5, i, signed=True)
    pair = (solve_largest if largest else solve_smallest)(g, 1.5)
    assert pair.value == P15_VALUES[n, i, largest]
    assert pair.certificate == ("closed-form" if (n, i, largest) == (6, 2, False)
                                else "multi-restart")
    assert pair.residual <= SolverConfig().tol * (1 + abs(pair.value))
    assert pair.residual == residual(g, 1.5, pair.value, pair.f)


def test_a_p15_straggler_is_handed_back_to_newton(blocks):
    # one row of this solve stalls short of the tolerance after its first
    # polish; with a single hand-off it ascended alone for all MAX_ITERS
    # iterations, each a quotient call
    pair = solve_largest(families.random_graph(6, 0.5, 0, signed=True), 1.5)
    assert pair.value == 3.2764176243905854
    assert blocks.count("r") < 200


@pytest.mark.parametrize("n,i,largest", [(6, 0, True), (6, 1, False), (6, 2, True)])
def test_each_hand_off_follows_a_fall_by_rehandoff(n, i, largest, monkeypatch):
    g = families.random_graph(n, 0.5, i, signed=True)
    rel = {}
    ascent = solver._ascent

    def spy(g, p, F0, cfg, maximize, handoff):
        def logged(rows, F, lam):
            for i, f, lm in zip(rows.tolist(), F, lam.tolist()):
                rel.setdefault(i, []).append(residual(g, p, lm, f) / (1.0 + abs(lm)))
            return handoff(rows, F, lam)
        return ascent(g, p, F0, cfg, maximize, logged)
    monkeypatch.setattr(solver, "_ascent", spy)
    (solve_largest if largest else solve_smallest)(g, 1.5)
    assert max(map(len, rel.values())) >= 2
    for levels in rel.values():
        assert levels[0] <= solver.HANDOFF_P_BELOW_2
        # the row's own residual test, up to the rounding of the division
        assert all(b <= solver.REHANDOFF * a * (1 + 1e-12) for a, b in zip(levels, levels[1:]))


@pytest.mark.parametrize("n", [4, 5])
def test_solve_largest_of_complete_graphs_at_p15(n):
    pair = solve_largest(families.complete(n), 1.5)
    want = complete_extremes(n, 1.5)[1]
    assert abs(pair.value - want) <= 1e-12 * want
    assert pair.residual <= SolverConfig().tol * (1 + pair.value)


@pytest.mark.parametrize("p", [1.25, 1.5])
@pytest.mark.parametrize("n", [4, 6])
def test_pinned_polish_reaches_an_edge_eigenvector(n, p, rng):
    # f = e_0 - e_1 is an eigenfunction of K_n with lambda = 2^(p-1) + n - 2;
    # near its zeros |f_i|^(p-2) blows up, and plain Newton stalls short of
    # the tolerance (at p = 1.75 it still gets there), so a pinned solve
    # reaches it from a perturbed start
    g = families.complete(n)
    f = np.zeros(n)
    f[:2] = 1.0, -1.0
    f = f + rng.uniform(-1e-5, 1e-5, n)
    lam = rayleigh(g, p, f)
    _, (lm,), (x,) = solver._newton_polish(g, p, [lam], f[None, :], SolverConfig().tol)
    assert np.all(x[2:] == 0)
    assert residual(g, p, lm, x) <= 1e-14
    assert abs(lm - (2.0 ** (p - 1) + n - 2)) <= 1e-13 * lm


def test_a_wrong_pin_never_raises_the_residual(rng, monkeypatch):
    # starts with one entry shrunk below the pin threshold, far from any
    # eigenfunction with a zero there
    pins = []
    rounds = solver._newton_rounds

    def spy(g, p, lam, X, pin):
        pins.append(pin is not None and pin.any())
        return rounds(g, p, lam, X, pin)
    monkeypatch.setattr(solver, "_newton_rounds", spy)
    for name in ("signed9", "weighted8", "K5"):
        g = IDENTITY_GRAPHS[name]
        for p in (1.25, 1.5, 1.75):
            for _ in range(3):
                f = rng.standard_normal(g.n)
                f[rng.integers(g.n)] = 1e-4 * np.abs(f).max()
                lam = rayleigh(g, p, f)
                _, (lm,), (x,) = solver._newton_polish(g, p, [lam], f[None, :],
                                                       SolverConfig().tol)
                assert residual(g, p, lm, x) <= residual(g, p, lam, f)
    assert any(pins)


def test_row_sqnorms_are_the_1d_dot(rng):
    # a last-place change of g2 alters the ascent only on an Armijo tie, so
    # the solves above cannot see it; the kernel is checked directly
    for n in (*range(1, 40), 127, 128, 129, 1000):
        for rows in (1, 2, 24):
            G = rng.standard_normal((rows, n)) * rng.uniform(0.1, 10.0)
            assert solver._row_sqnorms(G).tolist() == [float(g @ g) for g in G]


def test_stacked_kernels_equal_their_rows(rng):
    big = [random_weighted(40, 0.3, 5), random_weighted(300, 0.05, 6, isolated=3)]
    for g in [*IDENTITY_GRAPHS.values(), *big]:
        mu = g.mu_array()
        F = rng.standard_normal((5, g.n))
        for p in (1.5, 2.0, 3.0, 8.0):
            ray, plap, unit = rayleigh(g, p, F), apply_plap(g, p, F), normalize_sp(F, p, mu)
            for i, f in enumerate(F):
                assert ray[i] == _ref_rayleigh(g, p, f) == rayleigh(g, p, f)
                assert np.array_equal(plap[i], _ref_apply(g, p, f))
                assert np.array_equal(unit[i], _ref_normalize(f, p, mu))
            assert np.array_equal(apply_plap(g, p, F.reshape(5, 1, g.n))[:, 0], plap)
        # one exponent per row (of the cone iteration's normalize_sp): every
        # p of the grids, in two orders
        ps, _ = _grid_exponents()
        for order in (ps, ps[::-1]):
            P = np.asarray(order)
            F = rng.standard_normal((len(P), g.n))
            with np.errstate(over="ignore"):
                unit = normalize_sp(F, P, mu)
                for i, p in enumerate(order):
                    assert unit[i].tobytes() == normalize_sp(F[i], p, mu).tobytes(), p


# --- the defect-bounded cone stop against the closure-only loop -------------

def _heavier(g, k):
    """g with every edge weight times k."""
    return graph.validate(g.n, [(e.u, e.v, e.w * k, e.sigma) for e in g.edges],
                          mu=g.mu, kappa=g.kappa)


STOP_GRAPHS = {**PERRON_GRAPHS, "n1000": sparse_antibalanced(1000, 5000, 0),
               "anti7-w1e4": _heavier(PERRON_GRAPHS["anti7"], 1e4)}
STOP_PS = sorted({*cli.DEFAULT_P_GRID, *cli.LIMIT_P_GRID})


def _defect(g, pair):
    """max_i |(Delta_p f)_i / mu_i - lambda Psi_p(f_i)|."""
    return float(np.max(np.abs(apply_plap(g, pair.p, pair.f) / g.mu_array()
                               - pair.value * psi(pair.p, pair.f))))


@pytest.mark.parametrize("name", STOP_GRAPHS)
def test_a_defect_bounded_cone_stop_keeps_the_closure_loops_pairs(name):
    # a row stops once its Collatz-Wielandt bracket bounds its defect; the
    # Rayleigh quotient is then within a few ulp of the value the loop that
    # waits for a 5e-16 closure gives, with the same certificate.  Where p >=
    # 12 meets heavy weights, the rounding of lambda Psi_p(f) alone is above
    # 1e-9; the cap leaves those rows' rounds, and defects, as they were
    g, cfg = STOP_GRAPHS[name], SolverConfig()
    for p, pair in zip(STOP_PS, solver.solve_largest_grid(g, STOP_PS, cfg)):
        ref = _serial_largest(g, p, cfg, closure_only=True)
        assert pair.certificate == ref.certificate == "perron-certified", p
        assert abs(pair.value - ref.value) <= 8 * np.finfo(float).eps * abs(ref.value), p
        assert pair.residual <= 1e-3 * cfg.tol * (1.0 + abs(pair.value)), p
        assert _defect(g, pair) <= max(1e-9, _defect(g, ref)), p


def test_a_n1000_p3_cone_solve_takes_three_quarters_of_the_closure_rounds(monkeypatch):
    # the loop that stops only at a 5e-16 closure takes 208 rounds here
    g = sparse_antibalanced(1000, 5000, 0)
    gneg = graph.switch(g, graph.connected_antibalancing_tau(g))

    def stops(rounds):
        monkeypatch.setattr(solver, "CONE_ROUNDS", rounds)
        return bool(solver._power_refine(gneg, (3.0,), SolverConfig().tol, 0.0)[1][0])
    cap = solver.CONE_DEFECT_CAP
    monkeypatch.setattr(solver, "CONE_DEFECT_CAP", -1.0)    # no defect bound is met
    assert not stops(207) and stops(208)
    monkeypatch.setattr(solver, "CONE_DEFECT_CAP", cap)
    assert stops(208 * 3 // 4)


# --- the positive-cone kernel against apply_plap ---------------------------

def _cone_graphs():
    """Graphs switched to sigma == -1: unit weights for n = 2..15, the same
    with non-unit w and mu and kappa > 0, and with kappa == 0, and one
    n = 1000 graph."""
    graphs = []
    for n in range(2, 16):
        weighted = _weighted_antibalanced(n, n)
        graphs += [random_connected_antibalanced(n, 0.5, n), weighted,
                   graph.with_zero_kappa(weighted)]
    graphs.append(sparse_antibalanced(1000, 5000, 3))
    return [graph.switch(g, graph.connected_antibalancing_tau(g)) for g in graphs]


CONE_GRAPHS = _cone_graphs()


@pytest.mark.parametrize("gneg", CONE_GRAPHS,
                         ids=lambda g: f"n{g.n}m{g.m}{'-kappa' if any(g.kappa) else ''}")
def test_the_cone_kernel_is_apply_plap_bit_for_bit(gneg, rng):
    assert all(gneg._arrays.sigma == -1) and min(gneg.kappa) >= 0
    ps = sorted({*cli.DEFAULT_P_GRID, *cli.LIMIT_P_GRID, 2.0, 64.0})
    n = gneg.n

    def positive(rows):
        # entries 0 and spread over six decades, small enough that p = 64
        # does not overflow
        F = rng.random((rows, n)) * 10.0 ** rng.integers(-4, 1, (rows, n))
        F[:, ::3] = 0.0
        return F
    for p in ps:
        F = positive(3)
        assert solver._cone_apply(gneg, p, F[0]).tobytes() == apply_plap(gneg, p, F[0]).tobytes()
        assert solver._cone_apply(gneg, p, F).tobytes() == apply_plap(gneg, p, F).tobytes()
    # one exponent per row, in two orders: each row is apply_plap at its p
    for order in (ps, ps[::-1]):
        P, F = np.asarray(order), positive(len(ps))
        got = solver._cone_apply(gneg, P, F)
        for i, p in enumerate(order):
            assert got[i].tobytes() == apply_plap(gneg, p, F[i]).tobytes(), p


# --- closed forms ------------------------------------------------------------

def test_closed_form_complete_p2_all_equal_n():
    vals = closed_form_complete(5, 2.0)
    assert np.allclose(vals, 5.0)


def test_closed_form_complete_n3_p3_small_pair():
    # h = k = 1 gives 3 - 2 + (1 + 1)^2 = 5; cross-check: f = (1,-1,0) solves
    # the p=3 eigen-equation on K_3 with that eigenvalue
    vals = closed_form_complete(3, 3.0)
    assert any(abs(v - 5.0) < 1e-12 for v in vals)
    f = np.array([1.0, -1.0, 0.0])
    assert residual(families.complete(3), 3.0, 5.0, f) < 1e-12


def test_closed_form_complete_argmax_balanced_split():
    for n in (4, 5, 6, 8):
        p = 16.0
        q = p / (p - 1)
        best, arg = -np.inf, None
        for h in range(1, n):
            for k in range(1, n - h + 1):
                v = n - (h + k) + (h ** (q - 1) + k ** (q - 1)) ** (p - 1)
                if v > best:
                    best, arg = v, (h, k)
        assert arg[0] + arg[1] == n and min(arg) == n // 2
        assert math.isclose(complete_extremes(n, p)[1], best, rel_tol=1e-15)


def test_closed_form_star_examples():
    assert closed_form_star(5, 2.0) == 5.0
    for p in (1.5, 2.0, 7.0):
        assert math.isclose(closed_form_star(2, p), 2 ** (p - 1), rel_tol=1e-12)
    assert abs(2.0 ** -64 * closed_form_star(5, 64.0) - 1.0) < 1e-2
    for m in (5, 10, 17):
        limit = math.sqrt(m - 1) / 2
        errs = [2.0 ** -p * closed_form_star(m, p) - limit for p in (16, 32, 64)]
        assert all(e > 0 for e in errs) and errs[0] > errs[1] > errs[2]
    with pytest.raises(ValueError):
        closed_form_star(1, 2.0)
    with pytest.raises(ValueError):
        closed_form_complete(2, 2.0)


# --- monotonicity functionals ------------------------------------------------

def test_monotonicity_k2_closed_form():
    k2 = families.complete(2)
    grid = (1.5, 2.0, 3.0, 4.0, 8.0)
    lams = [2 ** (p - 1) for p in grid]
    rep = monotonicity_functionals(k2, 2, grid, lams)
    assert rep.ok
    assert np.allclose(rep.m1, 0.5)
    assert np.allclose(rep.m2, [2 * p for p in grid])


def test_monotonicity_star_m1_decreases_to_one():
    st = families.star(5)
    grid = (2.0, 3.0, 4.0, 8.0)
    lams = [closed_form_star(5, p) for p in grid]
    rep = monotonicity_functionals(st, 5, grid, lams)
    assert rep.ok
    assert all(a > b for a, b in zip(rep.m1, rep.m1[1:]))
    assert rep.m1[-1] > 1.0  # limit value of the m = 5 star


def test_monotonicity_balanced_bottom_is_zero():
    g = families.cycle(6)
    grid = (1.5, 2.0, 4.0)
    rep = monotonicity_functionals(g, 1, grid, [0.0, 0.0, 0.0])
    assert rep.ok and all(x == 0 for x in rep.m1) and all(x == 0 for x in rep.m2)


def test_monotonicity_rejects_negative_kappa():
    g = graph.validate(2, [(0, 1)], kappa=[-1.0, 0.0])
    with pytest.raises(ValueError):
        monotonicity_functionals(g, 2, (2.0, 3.0), (1.0, 1.0))


@pytest.mark.parametrize("g, k_label, grid, match", [
    (families.star(4), 2, [2.0, 3.0], r"k_label must be 1 or n"),
    (families.edgeless(3), 3, [2.0, 3.0], r"D must be positive"),
    (families.star(4), 4, [2.0, 2.0], r"p-grid must be strictly increasing"),
    (families.star(4), 4, [3.0, 2.0], r"p-grid must be strictly increasing"),
], ids=["k-label", "D", "flat-grid", "falling-grid"])
def test_monotonicity_rejects_an_index_d_or_grid_it_cannot_score(g, k_label, grid, match):
    with pytest.raises(ValueError, match=match):
        monotonicity_functionals(g, k_label, grid, [1.0] * len(grid))


@pytest.mark.parametrize("call, match", [
    (lambda g: normalize_sp(np.zeros(4), 3.0, g.mu_array()), "cannot normalize the zero"),
    (lambda g: normalize_sp(np.array([[1.0, 0, 0, 0], [0.0] * 4]), 3.0, g.mu_array()),
     "cannot normalize the zero"),
    (lambda g: residual(g, 3.0, 1.0, np.zeros(4)), "residual of the zero function"),
    (lambda g: potential_shift_check(g, 3.0, 2), "k_label must be 1 or n"),
], ids=["normalize", "normalize-stack", "residual", "shift-k-label"])
def test_the_zero_function_and_a_middle_index_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call(families.star(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_monotonicity_rejects_a_non_finite_lambda(bad):
    # max(0.0, nan) is 0.0: a NaN lambda used to pass as a zero
    with pytest.raises(ValueError, match="lambda at index 1 is not finite"):
        monotonicity_functionals(families.star(4), 4, [2, 3, 4], [3.0, bad, 5.0])


def test_monotonicity_nan_functionals_are_violations():
    # a NaN p passes the increasing-grid check and makes m1 and m2 NaN
    rep = monotonicity_functionals(families.star(4), 4, [2.0, math.nan], [3.0, 3.0])
    assert not rep.ok
    assert [v[:2] for v in rep.violations] == [(0, "m1"), (0, "m2")]


# --- potential shift ----------------------------------------------------------

def test_shift_zero_kappa_coincides():
    g = families.star(4)
    rep = potential_shift_check(g, 2.0, 1)
    assert rep.passed and rep.bound == 0.0
    assert abs(rep.lambda_kappa - rep.lambda_zero) < 1e-12


def test_shift_by_multiple_of_measure_is_exact():
    base = families.cycle(4)
    for c in (0.7, -0.3):
        g = graph.validate(4, [tuple(e) for e in base.edges],
                           kappa=[c] * 4)
        for k_label in (1, 4):
            rep = potential_shift_check(g, 2.0, k_label)
            assert rep.passed
            assert abs((rep.lambda_kappa - rep.lambda_zero) - c) < 1e-7


def test_shift_k2_asymmetric_potential():
    g = graph.validate(2, [(0, 1)], kappa=[1.0, 0.0])
    # 2x2 oracle: eigcensus of [[2,-1],[-1,1]] vs [[1,-1],[-1,1]]
    with_k = np.sort(np.linalg.eigvalsh(np.array([[2.0, -1.0], [-1.0, 1.0]])))
    no_k = np.sort(np.linalg.eigvalsh(np.array([[1.0, -1.0], [-1.0, 1.0]])))
    rep = potential_shift_check(g, 2.0, 2)
    assert abs(rep.lambda_kappa - with_k[-1]) < 1e-8
    assert abs(rep.lambda_zero - no_k[-1]) < 1e-8
    assert abs(with_k[-1] - no_k[-1]) <= 1.0 and rep.passed
