"""Self-checks of the analytic identities behind the detector.

Everything the estimators rely on is tested here against closed forms:
the KL divergence of two Gaussians recovered by integrating denoising
gaps over noise scale, the agreement of that route with the score-gap
route, the posterior mean/score and covariance/Jacobian identities, the
flattening of the posterior spectrum at high noise, the trace bound for
orthonormal projections, and the accuracy of the matrix-free eigenvalue
estimator against exact finite-difference and analytic spectra.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPSDError, NotSingleGaussianError
from .gmm import GaussianMixture, kl_gaussians
from .linalg import qr_orthonormalize, sym_eig
from .rng import LANE_DATA, RngStream
from .spectral import SpectralConfig, _fd_jacobian, exact_spectrum, subspace_iteration


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    value: float
    target: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "target": self.target,
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    checks: list[VerifyCheck] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def to_dict(self) -> dict:
        return {"all_pass": self.all_pass, "checks": [c.to_dict() for c in self.checks]}

    def format_table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            line = f"{tag}  {c.name:<{width}}  value={c.value:.6e}  target: {c.target}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(
            f"{len(self.checks)} checks, {n_fail} failed"
            if n_fail
            else f"{len(self.checks)} checks, all passed"
        )
        return "\n".join(lines)


# -- random test-case generators ------------------------------------------


def random_spd(gen: np.random.Generator, d: int) -> np.ndarray:
    a = gen.standard_normal((d, d))
    return a @ a.T / d + 0.05 * np.eye(d)


def random_gaussian(gen: np.random.Generator, d: int) -> GaussianMixture:
    return GaussianMixture.single(gen.normal(0.0, 1.5, size=d), random_spd(gen, d))


def random_mixture(gen: np.random.Generator, d: int, m: int) -> GaussianMixture:
    w = gen.uniform(0.2, 1.0, size=m)
    w /= w.sum()
    means = gen.normal(0.0, 2.0, size=(m, d))
    covs = np.stack([random_spd(gen, d) for _ in range(m)])
    return GaussianMixture(w, means, covs)


def random_benchmark_case(gen: np.random.Generator, dims: tuple[int, int] = (4, 17)):
    """A mixture, evaluation point, and noise level for the spectral sweep,
    with d drawn from range(*dims).

    All components share one anisotropic covariance with a geometric
    spectrum, and the means are displaced only along its top eigenvector.
    Between-mean spread then inflates only the leading posterior
    eigenvalue, which keeps every adjacent eigenvalue gap wide; iteration
    counts that work here are honest, not tuned to easy diagonal cases.
    """
    d = int(gen.integers(*dims))
    m = int(gen.integers(2, 4))
    basis, _ = np.linalg.qr(gen.standard_normal((d, d)))
    evals = gen.uniform(0.8, 1.4) * (0.4 ** np.arange(d)) + 0.01
    cov = (basis * evals) @ basis.T
    cov = 0.5 * (cov + cov.T)
    top = basis[:, 0]
    offsets = gen.uniform(1.0, 2.5, size=m) * gen.choice([-1.0, 1.0], size=m)
    means = offsets[:, None] * top[None, :]
    w = gen.uniform(0.2, 1.0, size=m)
    w /= w.sum()
    model = GaussianMixture(w, means, np.broadcast_to(cov, (m, d, d)).copy())

    sigma = float(np.exp(gen.uniform(np.log(1.0), np.log(2.0))))
    root = basis * np.sqrt(evals)
    x = means[gen.choice(m, p=w)] + root @ gen.standard_normal(d)
    x_t = x + sigma * gen.standard_normal(d)
    return model, x_t, sigma


# -- KL from accumulated gaps over noise scale ----------------------------


def _pair_factors(p: GaussianMixture, q: GaussianMixture, sigma: float):
    for g, name in ((p, "p"), (q, "q")):
        if g.n_components != 1:
            raise NotSingleGaussianError(f"{name} has {g.n_components} components")
    d = p.dim
    eye = np.eye(d)
    s2 = sigma * sigma
    tp = p.covariances[0] + s2 * eye
    tq = q.covariances[0] + s2 * eye
    delta = p.means[0] - q.means[0]
    return tp, tq, delta, eye


def denoising_gap(p: GaussianMixture, q: GaussianMixture, sigma: float) -> float:
    """E_p[ ||D_p(x_t) - D_q(x_t)||^2 ] for Gaussian p, q in closed form.

    D_a(x_t) = A_a x_t + (I - A_a) mu_a with A_a = C_a (C_a + sigma^2 I)^-1;
    under x_t ~ N(mu_p, C_p + sigma^2 I) the gap has mean (I - A_q) delta
    and covariance (A_p - A_q) S_t (A_p - A_q)^T.
    """
    tp, tq, delta, eye = _pair_factors(p, q, sigma)
    a_p = np.linalg.solve(tp.T, p.covariances[0].T).T
    a_q = np.linalg.solve(tq.T, q.covariances[0].T).T
    mean_gap = (eye - a_q) @ delta
    diff = a_p - a_q
    return float(mean_gap @ mean_gap + np.trace(diff @ tp @ diff.T))


def score_gap(p: GaussianMixture, q: GaussianMixture, sigma: float) -> float:
    """E_p[ ||grad log p_t - grad log q_t||^2 ] for Gaussian p, q."""
    tp, tq, delta, _ = _pair_factors(p, q, sigma)
    mean_gap = np.linalg.solve(tq, delta)
    diff = np.linalg.inv(tq) - np.linalg.inv(tp)
    return float(mean_gap @ mean_gap + np.trace(diff @ tp @ diff.T))


@dataclass
class KlQuadResult:
    value: float
    tail: float
    head: float
    sigmas: np.ndarray
    integrand: np.ndarray


def kl_quadrature(p: GaussianMixture, q: GaussianMixture, route: str = "denoising") -> KlQuadResult:
    """KL(p || q) as an integral of per-noise-level gaps.

    denoising route: integrand = denoising_gap / sigma^3
    score route:     integrand = sigma * score_gap

    The two integrands are equal for Gaussians, so the routes differ only
    by roundoff.  Trapezoid on a 400-point log-spaced grid over sigma in
    [1e-3, 1e3] converges fast here: in log-sigma the integrand decays like
    exp(-2|u|) on both sides.  The reported tail is the
    ||delta||^2 / (2 sigma_max^2) estimate of the truncated upper end, and
    head the linear-decay estimate f(sigma_min) sigma_min / 2 of the
    truncated lower end; value includes both.
    """
    hi = 1e3
    sigmas = np.exp(np.linspace(np.log(1e-3), np.log(hi), 400))
    if route == "denoising":
        f = np.array([denoising_gap(p, q, s) / s**3 for s in sigmas])
    elif route == "score":
        f = np.array([s * score_gap(p, q, s) for s in sigmas])
    else:
        raise ValueError(f"unknown route {route!r}")
    # integrate f dsigma = f sigma d(log sigma)
    value = float(np.trapezoid(f * sigmas, np.log(sigmas)))
    delta = p.means[0] - q.means[0]
    tail = float(delta @ delta / (2.0 * hi * hi))
    head = float(0.5 * f[0] * sigmas[0])
    return KlQuadResult(value=value + tail + head, tail=tail, head=head, sigmas=sigmas, integrand=f)


def mc_denoising_gap(p, q, sigma: float, n: int, rng: RngStream):
    """Monte-Carlo estimate of denoising_gap plus its standard error.

    Drawn through the mixture denoiser itself, so this also exercises the
    code path the closed form is meant to describe.
    """
    gen = rng.generator()
    x = p.sample(rng.child(0), n)
    x_t = x + sigma * gen.standard_normal(x.shape)
    gap = p.denoise(x_t, sigma) - q.denoise(x_t, sigma)
    sq = np.sum(gap * gap, axis=1)
    return float(np.mean(sq)), float(np.std(sq) / np.sqrt(n))


# -- check groups ---------------------------------------------------------


def verify_kl(seed: int = 0) -> list[VerifyCheck]:
    checks = []
    p0 = GaussianMixture.single([0.0], [[1.0]])
    q0 = GaussianMixture.single([1.0], [[1.0]])
    quad = kl_quadrature(p0, q0)
    err = abs(quad.value - 0.5)
    checks.append(
        VerifyCheck(
            name="kl/denoising-gap-quadrature",
            passed=err <= 2e-3,
            value=quad.value,
            target="|value - 1/2| <= 2e-3 for unit Gaussians one apart",
            detail=f"err={err:.3e} tail={quad.tail:.3e}",
        )
    )

    gen = RngStream(seed, (LANE_DATA, 0)).generator()
    pairs = [(random_gaussian(gen, d), random_gaussian(gen, d)) for d in (1, 2, 3)]
    worst = 0.0
    worst_route = 0.0
    for p, q in pairs:
        exact = kl_gaussians(p, q)
        den = kl_quadrature(p, q, route="denoising")
        sco = kl_quadrature(p, q, route="score")
        worst = max(worst, abs(den.value - exact))
        worst_route = max(worst_route, abs(den.value - sco.value))
    checks.append(
        VerifyCheck(
            name="kl/denoising-gap-random-pairs",
            passed=worst <= 2e-3,
            value=worst,
            target="max |quadrature - closed form| <= 2e-3",
        )
    )
    checks.append(
        VerifyCheck(
            name="kl/route-agreement",
            passed=worst_route <= 1e-6,
            value=worst_route,
            target="denoising and score routes within 1e-6",
        )
    )

    # the closed-form integrand against a paired Monte-Carlo draw; needs a
    # pair with unequal covariances, otherwise the gap is a constant and
    # the standard error collapses to roundoff
    pmc, qmc = pairs[1]
    worst_pull = 0.0
    for si, sigma in enumerate((0.5, 2.0)):
        est, se = mc_denoising_gap(pmc, qmc, sigma, 20000, RngStream(seed, (LANE_DATA, 1, si)))
        exact = denoising_gap(pmc, qmc, sigma)
        pull = abs(est - exact) / max(se, 1e-12 * (1.0 + abs(exact)))
        worst_pull = max(worst_pull, pull)
    checks.append(
        VerifyCheck(
            name="kl/integrand-monte-carlo",
            passed=worst_pull <= 4.0,
            value=worst_pull,
            target="MC gap within 4 standard errors of closed form",
        )
    )
    return checks


def verify_posterior_identities(seed: int = 0) -> list[VerifyCheck]:
    """Posterior mean vs score, and posterior covariance vs two derivatives.

    The posterior mean must equal x_t + sigma^2 * score (exact: shared code
    path), and the posterior covariance must match both sigma^2 (I +
    sigma^2 H) for the score derivative H and sigma^2 J for the denoiser
    derivative J, checked by the dense central differences of
    `exact_spectrum`.
    """
    gen = RngStream(seed, (LANE_DATA, 2)).generator()
    worst_mean = 0.0
    worst_assembly = 0.0
    worst_hess = 0.0
    worst_jac = 0.0
    for case in range(12):
        d = int(gen.integers(1, 4))
        m = int(gen.integers(1, 4))
        model = random_mixture(gen, d, m)
        sigma = float(gen.choice([0.3, 1.0, 3.0]))
        x = model.sample(RngStream(seed, (LANE_DATA, 3, case)), 1)[0]
        x_t = x + sigma * gen.standard_normal(d)
        s2 = sigma * sigma

        # denoise is literally x_t + sigma^2 score, so the identity holds
        # bitwise; the posterior-mean assembly goes through per-component
        # gains instead and may differ by roundoff
        mean_gap = np.max(
            np.abs(model.denoise(x_t, sigma) - (x_t + s2 * model.score(x_t, sigma)))
        )
        worst_mean = max(worst_mean, float(mean_gap))
        stats = model.posterior_cov(x_t, sigma)
        assembly_gap = np.max(np.abs(stats.mean - model.denoise(x_t, sigma)))
        worst_assembly = max(worst_assembly, float(assembly_gap))

        hess = _fd_jacobian(model.score, x_t, sigma)
        hess = 0.5 * (hess + hess.T)
        cov_from_score = s2 * (np.eye(d) + s2 * hess)
        worst_hess = max(worst_hess, float(np.max(np.abs(cov_from_score - stats.cov))))

        jac = _fd_jacobian(model.denoise, x_t, sigma)
        cov_from_jac = s2 * 0.5 * (jac + jac.T)
        worst_jac = max(worst_jac, float(np.max(np.abs(cov_from_jac - stats.cov))))
    return [
        VerifyCheck(
            name="posterior/mean-score-identity",
            passed=worst_mean == 0.0,
            value=worst_mean,
            target="denoiser equals x_t + sigma^2 score exactly",
        ),
        VerifyCheck(
            name="posterior/mean-assembly-consistent",
            passed=worst_assembly <= 1e-10,
            value=worst_assembly,
            target="gain-route posterior mean vs denoiser <= 1e-10",
        ),
        VerifyCheck(
            name="posterior/cov-matches-score-hessian",
            passed=worst_hess <= 1e-4,
            value=worst_hess,
            target="cov vs sigma^2 (I + sigma^2 d(score)/dx) <= 1e-4",
        ),
        VerifyCheck(
            name="posterior/cov-matches-denoiser-jacobian",
            passed=worst_jac <= 1e-4,
            value=worst_jac,
            target="cov vs sigma^2 d(denoise)/dx <= 1e-4",
        ),
    ]


def verify_error_trace(seed: int = 0) -> list[VerifyCheck]:
    """Paired Monte Carlo: squared denoising error vs posterior-trace mean."""
    n = 100000
    gen = RngStream(seed, (LANE_DATA, 4)).generator()
    model = random_mixture(gen, 2, 2)
    sigma = 1.0
    x = model.sample(RngStream(seed, (LANE_DATA, 5)), n)
    x_t = x + sigma * gen.standard_normal(x.shape)
    err = x - model.denoise(x_t, sigma)
    sq = np.sum(err * err, axis=1)
    traces = np.array([np.trace(model.posterior_cov(pt, sigma).cov) for pt in x_t])
    diff = sq - traces
    pull = abs(float(np.mean(diff))) / (float(np.std(diff)) / np.sqrt(n))
    return [
        VerifyCheck(
            name="posterior/error-matches-cov-trace",
            passed=pull <= 3.0,
            value=pull,
            target="paired MC mean difference within 3 standard errors",
            detail=f"n={n}",
        )
    ]


def spectrum_deviation(model: GaussianMixture, sigma: float, n_points: int, rng: RngStream) -> float:
    """max over sampled noisy points of max_k lambda_k / sigma^2.

    The noisy predictive covariance is sigma^2 I + Cov[x | x_t]; this is
    its largest relative departure from sigma^2 I, which must shrink as
    sigma grows past the data scale.
    """
    gen = rng.generator()
    x = model.sample(rng.child(0), n_points)
    x_t = x + sigma * gen.standard_normal(x.shape)
    worst = 0.0
    for pt in x_t:
        vals, _ = sym_eig(model.posterior_cov(pt, sigma).cov)
        worst = max(worst, float(vals[0]) / (sigma * sigma))
    return worst


def verify_spectrum_flattening(seed: int = 0) -> list[VerifyCheck]:
    sigmas = (10.0, 30.0, 100.0)
    checks = []
    # isotropic unit Gaussian: every eigenvalue is sigma^2/(1+sigma^2), so
    # the deviation is exactly 1/(1+sigma^2) at any point
    iso = GaussianMixture.single(np.zeros(3), np.eye(3))
    worst = 0.0
    for si, sigma in enumerate(sigmas):
        dev = spectrum_deviation(iso, sigma, 5, RngStream(seed, (LANE_DATA, 6, si)))
        worst = max(worst, abs(dev - 1.0 / (1.0 + sigma * sigma)))
    checks.append(
        VerifyCheck(
            name="spectrum/single-gaussian-deviation",
            passed=worst <= 1e-9,
            value=worst,
            target="deviation equals 1/(1+sigma^2) within 1e-9",
        )
    )

    two = GaussianMixture(
        [0.5, 0.5],
        [[-2.0, 0.0], [2.0, 0.0]],
        [np.eye(2), np.eye(2)],
    )
    devs = [
        spectrum_deviation(two, sigma, 40, RngStream(seed, (LANE_DATA, 7, si)))
        for si, sigma in enumerate(sigmas)
    ]
    mono = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    checks.append(
        VerifyCheck(
            name="spectrum/deviation-monotone",
            passed=mono,
            value=max(devs),
            target=f"non-increasing over sigma={tuple(sigmas)}",
            detail=" ".join(f"{v:.3e}" for v in devs),
        )
    )
    checks.append(
        VerifyCheck(
            name="spectrum/deviation-small-at-high-noise",
            passed=devs[-1] <= 0.05,
            value=devs[-1],
            target=f"deviation <= 0.05 at sigma={sigmas[-1]}",
        )
    )
    return checks


def verify_trace_bound(seed: int = 0) -> list[VerifyCheck]:
    """tr(V^T C V) over 50 orthonormal V each for 10 matrices C never beats
    the top-k eigenvalue sum."""
    gen = RngStream(seed, (LANE_DATA, 8)).generator()
    worst_excess = -np.inf
    worst_attain = 0.0
    for mi in range(10):
        d = int(gen.integers(3, 7))
        model = random_mixture(gen, d, 2)
        sigma = float(gen.choice([0.5, 1.0, 2.0]))
        x_t = model.sample(RngStream(seed, (LANE_DATA, 9, mi)), 1)[0] + sigma * gen.standard_normal(d)
        cov = model.posterior_cov(x_t, sigma).cov
        vals, vecs = sym_eig(cov)
        if vals[-1] < -1e-8:
            raise NotPSDError(f"posterior covariance has eigenvalue {vals[-1]:.3e}")
        for _ in range(50):
            k = int(gen.integers(1, min(d, 3) + 1))
            v, _ = qr_orthonormalize(gen.standard_normal((d, k)))
            excess = float(np.trace(v.T @ cov @ v) - np.sum(vals[:k]))
            worst_excess = max(worst_excess, excess)
        for k in range(1, min(d, 3) + 1):
            attained = float(np.trace(vecs[:, :k].T @ cov @ vecs[:, :k]))
            worst_attain = max(worst_attain, abs(attained - float(np.sum(vals[:k]))))
    return [
        VerifyCheck(
            name="trace-bound/random-projections",
            passed=worst_excess <= 1e-8,
            value=worst_excess,
            target="projected trace <= top-k eigenvalue sum + 1e-8",
            detail="500 trials",
        ),
        VerifyCheck(
            name="trace-bound/eigenbasis-attains",
            passed=worst_attain <= 1e-10,
            value=worst_attain,
            target="eigenvector basis attains the bound within 1e-10",
        ),
    ]


def verify_spectral_accuracy(seed: int = 0, n_cases: int = 10) -> list[VerifyCheck]:
    """Matrix-free estimates against exact and analytic spectra.

    Top-3 with 20 re-orthonormalizations has a budget of 63 columns, so the
    cases at d = 4..16 take the full basis; a second set at d = 64..96
    checks the iterated path against the same bound.
    """
    config = SpectralConfig(top_k=3, n_iters=20, fd_rel=1e-3, early_stop_tol=0.0)

    def rel_err(result, exact) -> float:
        return float(np.max(np.abs(result.eigenvalues - exact.eigenvalues) / np.abs(exact.eigenvalues)))

    gen = RngStream(seed, (LANE_DATA, 10)).generator()
    worst_sub = 0.0
    worst_exact = 0.0
    worst_asym = 0.0
    for ci in range(n_cases):
        model, x_t, sigma = random_benchmark_case(gen)
        exact = exact_spectrum(model, x_t, sigma, top_k=3)
        analytic_vals, _ = sym_eig(model.posterior_cov(x_t, sigma).cov)
        result = subspace_iteration(
            model, x_t, sigma, config, rng=RngStream(seed, (LANE_DATA, 11, ci))
        )
        worst_sub = max(worst_sub, rel_err(result, exact))
        gap = np.max(np.abs(exact.eigenvalues - analytic_vals[:3])) / max(
            1.0, float(analytic_vals[0])
        )
        worst_exact = max(worst_exact, float(gap))
        worst_asym = max(worst_asym, float(exact.asymmetry))
    gen = RngStream(seed, (LANE_DATA, 12)).generator()
    worst_iter = 0.0
    for ci in range(n_cases):
        model, x_t, sigma = random_benchmark_case(gen, dims=(64, 97))
        result = subspace_iteration(
            model, x_t, sigma, config, rng=RngStream(seed, (LANE_DATA, 13, ci))
        )
        worst_iter = max(worst_iter, rel_err(result, exact_spectrum(model, x_t, sigma, top_k=3)))
    return [
        VerifyCheck(
            name="spectral/subspace-matches-exact",
            passed=worst_sub <= 1e-2,
            value=worst_sub,
            target="top-3 relative error <= 1e-2",
            detail=f"{n_cases} cases, d 4-16, full basis",
        ),
        VerifyCheck(
            name="spectral/iterated-subspace-matches-exact",
            passed=worst_iter <= 1e-2,
            value=worst_iter,
            target="top-3 relative error <= 1e-2",
            detail=f"{n_cases} cases, d 64-96, 21 block products",
        ),
        VerifyCheck(
            name="spectral/exact-matches-analytic",
            passed=worst_exact <= 1e-4,
            value=worst_exact,
            target="finite-difference vs closed form <= 1e-4",
        ),
        VerifyCheck(
            name="spectral/jacobian-asymmetry",
            passed=worst_asym <= 1e-5,
            value=worst_asym,
            target="denoiser Jacobian asymmetric by <= 1e-5",
        ),
    ]


def run_all(seed: int = 0) -> VerifyReport:
    report = VerifyReport()
    report.extend(verify_kl(seed))
    report.extend(verify_posterior_identities(seed))
    report.extend(verify_error_trace(seed))
    report.extend(verify_spectrum_flattening(seed))
    report.extend(verify_trace_bound(seed))
    report.extend(verify_spectral_accuracy(seed))
    return report
