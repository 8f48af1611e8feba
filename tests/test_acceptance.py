"""Release-gate checks, one per numbered criterion.

Every test prints exactly one ``[criterion NN] PASS/FAIL — detail`` line
directly to the terminal (bypassing pytest's capture) before asserting, so
a teed run always shows the verdict for each criterion, including any that
fail.  Tolerances are stated inline next to each assertion.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc

from ofdmpcs.ambiguity import OFDMConfig, analytic_moments, average_af
from ofdmpcs.constellation import Distribution, make_constellation, moment
from ofdmpcs.detection import (DetectionScenario, calibrate_so_cfar,
                               detection_probability)
from ofdmpcs.rates import (ChannelSpec, _lattice, _ring_rates,
                           mutual_information, rate_bits)
from ofdmpcs.seeds import derive_seed
from ofdmpcs.shaping import (_moment_dual, feasible_c0_range,
                             match_ring_masses, solve_heuristic)
from ofdmpcs.shaping_ba import MBAConfig, run_mba
from oracles import af_realizations

QAM16 = make_constellation("qam", 16)
QAM64 = make_constellation("qam", 64)
PSK64 = make_constellation("psk", 64)


@pytest.fixture
def announce(capsys):
    """One verdict line per criterion, written past the capture machinery."""

    def _line(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")

    return _line


def test_criterion_01_fourth_moment_endpoints(announce):
    m16 = moment(QAM16, Distribution.uniform(QAM16), 4)
    m64 = moment(QAM64, Distribution.uniform(QAM64), 4)
    ok = m16 == 1.32 and abs(m64 - 1.3805) <= 1e-3
    announce(1, ok,
             f"uniform fourth moments: 16-QAM {m16!r} (exactly 1.32), "
             f"64-QAM {m64:.6f} (1.3805 ± 1e-3)")
    assert m16 == 1.32
    assert m64 == pytest.approx(1.3805, abs=1e-3)


def _vertex_fourth_moments(c):
    """Fourth moments at every vertex of {p >= 0, sum p = 1, sum p A^2 = 1}.

    With two equality constraints a vertex has at most two positive ring
    masses: either one ring of exactly unit power, or a pair bracketing it
    with the unique convex weights solving the power constraint.  The min
    and max over vertices bound the feasible fourth-moment interval — an
    enumeration wholly independent of the production linear programs.
    """
    a2 = c.ring_amps ** 2
    a4 = a2 ** 2
    values = []
    for i in range(a2.size):
        if abs(a2[i] - 1.0) <= 1e-12:
            values.append(float(a4[i]))
        for j in range(i + 1, a2.size):
            den = a2[i] - a2[j]
            if den == 0.0:
                continue
            pi = (1.0 - a2[j]) / den
            if -1e-12 <= pi <= 1.0 + 1e-12:
                values.append(float(pi * a4[i] + (1.0 - pi) * a4[j]))
    return np.asarray(values)


def test_criterion_02_feasible_range_lower_endpoint(announce):
    lo, hi = feasible_c0_range(QAM64)
    oracle = _vertex_fourth_moments(QAM64)
    minimizer = solve_heuristic(QAM64, lo)
    loaded = np.flatnonzero(minimizer.ring_mass > 1e-9)
    # 64-QAM squared ring amplitudes are integers over the power scale 42
    ring_ids = np.sort(QAM64.ring_amps[loaded] ** 2 * 42.0)
    ok = (abs(lo - 1.0363) <= 1e-4
          and abs(lo - oracle.min()) <= 1e-10
          and abs(hi - oracle.max()) <= 1e-10
          and loaded.size == 2
          and np.allclose(minimizer.ring_mass[loaded], 0.5, atol=1e-9)
          and np.allclose(ring_ids, [34.0, 50.0], atol=1e-9))
    announce(2, ok,
             f"64-QAM lower endpoint {lo:.6f} (1.0363 ± 1e-4; vertex oracle "
             f"{oracle.min():.6f}), minimizer mass "
             f"{np.round(minimizer.ring_mass[loaded], 9).tolist()} on rings "
             f"42*A^2 = {np.round(ring_ids, 6).tolist()}")
    assert lo == pytest.approx(1.0363, abs=1e-4)
    assert lo == pytest.approx(oracle.min(), abs=1e-10)
    assert hi == pytest.approx(oracle.max(), abs=1e-10)
    assert loaded.size == 2
    assert minimizer.ring_mass[loaded] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert ring_ids == pytest.approx([34.0, 50.0], abs=1e-9)


def test_criterion_03_pseudo_8psk(announce):
    heur = solve_heuristic(QAM16, 1.0)
    opt = run_mba(QAM16, MBAConfig(c0=1.0, noise_power=0.01))
    target = np.array([0.0, 1.0, 0.0])
    off_h = float(np.max(np.abs(heur.ring_mass - target)))
    off_o = float(np.max(np.abs(opt.ring_mass - target)))
    ok = off_h <= 1e-10 and off_o <= 1e-3 and opt.converged
    announce(3, ok,
             f"unit fourth moment loads only the middle 16-QAM ring: "
             f"heuristic off by {off_h:.2e} (≤ 1e-10), iterative shaper off "
             f"by {off_o:.2e} (≤ 1e-3)")
    assert off_h <= 1e-10
    assert opt.converged
    assert off_o <= 1e-3


def test_criterion_04_af_moment_agreement(announce):
    cfg = OFDMConfig(n_subcarriers=64)
    u16 = Distribution.uniform(QAM16)
    upsk = Distribution.uniform(PSK64)
    points = [(0.1, 0.0), (0.25, 0.0), (0.1, 0.5)]
    n = 5000
    worst_z = 0.0
    psk_self = []
    for i, (tau, nu) in enumerate(points):
        lam = af_realizations(QAM16, u16, cfg, tau, nu, n,
                              derive_seed(2024, f"c4-{i}"))
        an = analytic_moments(QAM16, u16, cfg, tau, nu)
        var_total = an.var_self + an.var_cross
        z_mean = abs(lam.mean() - an.mean_self) / np.sqrt(var_total / n)
        dev = lam - lam.mean()
        mc_var = float(np.mean(np.abs(dev) ** 2))
        se_var = np.sqrt((np.mean(np.abs(dev) ** 4) - mc_var ** 2) / n)
        z_var = abs(mc_var - var_total) / se_var
        worst_z = max(worst_z, z_mean, z_var)

        lam_p = af_realizations(PSK64, upsk, cfg, tau, nu, n,
                                derive_seed(2024, f"c4p-{i}"))
        an_p = analytic_moments(PSK64, upsk, cfg, tau, nu)
        psk_self.append(an_p.var_self)
        dev_p = lam_p - lam_p.mean()
        mc_var_p = float(np.mean(np.abs(dev_p) ** 2))
        se_var_p = np.sqrt((np.mean(np.abs(dev_p) ** 4) - mc_var_p ** 2) / n)
        worst_z = max(worst_z, abs(mc_var_p - an_p.var_cross) / se_var_p)
    ok = worst_z <= 3.0 and all(v == 0.0 for v in psk_self)
    announce(4, ok,
             f"ambiguity mean/variance vs closed form at three delay-Doppler "
             f"points, {n} draws: worst deviation {worst_z:.2f} standard "
             f"errors (≤ 3); 64-PSK self-term variance = {psk_self}")
    assert worst_z <= 3.0
    assert psk_self == [0.0, 0.0, 0.0]


def test_criterion_05_sidelobe_gap(announce):
    cfg = OFDMConfig(n_subcarriers=64)
    taus = np.arange(33) / 64.0
    surf_qam = average_af(QAM64, Distribution.uniform(QAM64), cfg,
                          taus, [0.0], 5000, derive_seed(2024, "c5-qam"))
    surf_psk = average_af(PSK64, Distribution.uniform(PSK64), cfg,
                          taus, [0.0], 5000, derive_seed(2024, "c5-psk"))
    # cell 0 is the mainlobe; every later delay cell is a sidelobe
    gap = surf_qam.values[1:, 0] - surf_psk.values[1:, 0]
    worst = float(np.max(gap))
    at = float(taus[1:][int(np.argmax(gap))])
    ok = 10.0 <= worst <= 16.0
    announce(5, ok,
             f"zero-Doppler average-AF excess of uniform 64-QAM over 64-PSK "
             f"at the worst sidelobe cell: {worst:.2f} dB at delay "
             f"{at:.4f} T_sym (required 10–16 dB)")
    assert 10.0 <= worst <= 16.0


def _fano_gap_bound(c, d, sigma2):
    """Closed-form upper bound on H(X) - I(X;Y) in bits over complex AWGN.

    The symbol error rate of the ML detector is at most the union bound
    P_e <= E_x sum_{x' != x} Q(|x - x'| / sqrt(2 sigma2)) over the support,
    and Fano's inequality turns it into H(X|Y) <= h_b(P_e) + P_e log2(M - 1),
    with M the support size.  For the uniform inputs used here ML is MAP, and
    h_b is increasing below 1/2, so the bound holds while P_e <= 1/2.
    """
    keep = d.per_point > 0
    x, p = c.points[keep], d.per_point[keep]
    m = x.size
    dist = np.abs(x[:, None] - x[None, :])
    q = 0.5 * erfc(dist / np.sqrt(2.0 * sigma2) / np.sqrt(2.0))
    np.fill_diagonal(q, 0.0)
    pe = float(np.sum(p * q.sum(axis=1)))
    h_b = -(pe * np.log2(pe) + np.log1p(-pe) * (1.0 - pe) / np.log(2.0))
    return h_b + pe * np.log2(m - 1)


def test_criterion_06_rate_endpoints(announce):
    # The endpoints are the input entropies log2 16, log2 8 (middle ring) and
    # log2 64, so the noise power must put every case in saturation.  At 20 dB
    # uniform 64-QAM is not saturated: the union-bound/Fano gap allows 0.63
    # bit and the rate is 5.80 bits (pinned by the quadrature oracle in
    # test_rates).  At 30 dB the gap bound is below 1e-9 bit for all three;
    # the bound is asserted to be <= 1e-3 bit before the rates are checked.
    # The rate is rate_bits, the quadrature every command reports.
    sigma2 = 1e-3
    cases = [
        ("uniform 16-QAM", QAM16, Distribution.uniform(QAM16), 4.00),
        ("middle-ring 16-QAM", QAM16,
         Distribution.from_ring_mass(QAM16, [0.0, 1.0, 0.0]), 3.00),
        ("uniform 64-QAM", QAM64, Distribution.uniform(QAM64), 6.00),
    ]
    measured = []
    ok = True
    for name, c, d, want in cases:
        gap = _fano_gap_bound(c, d, sigma2)
        got = rate_bits(c, d, sigma2)
        measured.append((name, gap, got, want))
        ok = ok and gap <= 1e-3 and abs(got - want) <= 0.05
    announce(6, ok, f"noise power {sigma2:g}: " + "; ".join(
        f"{name}: {got:.4f} bits (want {want:.2f} ± 0.05, gap bound "
        f"{gap:.1e} bit ≤ 1e-3)" for name, gap, got, want in measured))
    for name, gap, _, _ in measured:
        assert gap <= 1e-3, name
    for name, _, got, want in measured:
        assert got == pytest.approx(want, abs=0.05), name


def test_criterion_07_ascent_and_feasibility(announce):
    rng = np.random.default_rng(derive_seed(2024, "c7"))
    worst_drop = 0.0
    worst_residual = 0.0
    converged = 0
    for k in range(20):
        c = QAM16 if k % 2 == 0 else QAM64
        lo, hi = feasible_c0_range(c)
        c0 = lo + (0.02 + 0.96 * rng.random()) * (hi - lo)
        sigma2 = 10.0 ** rng.uniform(-3, 0)
        res = run_mba(c, MBAConfig(c0=c0, noise_power=sigma2))
        converged += res.converged
        trace = np.asarray(res.trace)
        if trace.size > 1:
            worst_drop = max(worst_drop, float(np.max(-np.diff(trace))))
        d = res.distribution
        worst_residual = max(worst_residual,
                             abs(float(np.sum(d.per_point)) - 1.0),
                             abs(moment(c, d, 2) - 1.0),
                             abs(moment(c, d, 4) - c0))
    ok = worst_drop <= 1e-9 and worst_residual <= 1e-4 and converged == 20
    announce(7, ok,
             f"20 random (c0, sigma2) instances: {converged}/20 converged, "
             f"worst objective decrease {worst_drop:.2e} (≤ 1e-9), worst "
             f"constraint residual {worst_residual:.2e} (≤ 1e-4)")
    assert converged == 20
    assert worst_drop <= 1e-9
    assert worst_residual <= 1e-4


def test_criterion_08_newton_vs_dense_grid(announce):
    # the shaper's first update: ring integrals under the uniform input,
    # ring counts folded into the exponents, ring amplitudes
    sigma2 = 0.01
    point_prob = Distribution.uniform(QAM16).ring_mass / QAM16.ring_counts
    u = np.log(point_prob) + _ring_rates(_lattice(QAM16, sigma2), point_prob)
    assert np.all(np.isfinite(u))
    u = u + np.log(QAM16.ring_counts)
    a2 = QAM16.ring_amps ** 2
    a4 = a2 ** 2
    c0 = 1.1

    def dual(lam):
        return _moment_dual(u, a2, a4, c0, np.asarray(lam, dtype=float))

    _, lam = match_ring_masses(QAM16, u, c0)
    assert lam is not None
    root_grad = float(np.max(np.abs(dual(lam)[2])))

    # independent check: the dual phi(lam) = log sum exp(u - lam1 A^4 -
    # lam2 A^2) + lam1 c0 + lam2 on a dense grid (step 0.02) over a box
    # around the root's nearest integer point, wide enough to contain it
    step = 0.02
    l1s = np.round(lam[0]) + np.arange(-75, 76) * step
    l2s = np.round(lam[1]) + np.arange(-75, 76) * step
    e = (u[None, None, :] - l1s[:, None, None] * a4
         - l2s[None, :, None] * a2)
    top = e.max(axis=2)
    phi = (top + np.log(np.exp(e - top[..., None]).sum(axis=2))
           + l1s[:, None] * c0 + l2s[None, :])
    i, j = np.unravel_index(int(np.argmin(phi)), phi.shape)
    offset = max(abs(l1s[i] - lam[0]), abs(l2s[j] - lam[1]))

    # analytic Hessian vs central differences of the analytic gradient
    h = 1e-5
    worst_rel = 0.0
    for point in (tuple(lam), (0.0, 0.0), (1.3, -0.7)):
        hess = dual(point)[3]
        fd = np.empty((2, 2))
        for a in range(2):
            dl = np.zeros(2)
            dl[a] = h
            fd[:, a] = (dual(np.add(point, dl))[2]
                        - dual(np.subtract(point, dl))[2]) / (2.0 * h)
        rel = np.abs(fd - hess) / np.maximum(np.abs(hess), 1e-30)
        worst_rel = max(worst_rel, float(rel.max()))

    ok = root_grad <= 1e-9 and offset <= step + 1e-9 and worst_rel <= 1e-4
    announce(8, ok,
             f"dual Newton root {np.round(lam, 6).tolist()} with gradient "
             f"{root_grad:.1e}; dense-grid argmin of the dual offset "
             f"{offset:.4f} (≤ one {step} cell); Hessian vs central "
             f"differences (h = 1e-5) worst relative error {worst_rel:.2e} "
             f"(≤ 1e-4)")
    assert root_grad <= 1e-9
    assert offset <= step + 1e-9
    assert worst_rel <= 1e-4


def test_criterion_09_detection_ordering(announce):
    cfg = OFDMConfig(n_subcarriers=64)
    u64 = Distribution.uniform(QAM64)
    upsk = Distribution.uniform(PSK64)
    shaped = Distribution.from_ring_mass(QAM64,
                                         solve_heuristic(QAM64, 1.2).ring_mass)
    # 18 dB puts the uniform-QAM detection probability near 0.5 at this
    # false-alarm target, which is where the curves separate most
    base = DetectionScenario(constellation=QAM64, distribution=u64, cfg=cfg,
                             snr_db=18.0, target_cell=8, si_cell=0,
                             si_to_noise_db=10.0, p_fa=1e-4, n_trials=5000)
    alpha = calibrate_so_cfar(base, seed=derive_seed(2024, "c9-cal"))
    results = {}
    for name, c, d in (("uniform", QAM64, u64), ("shaped", QAM64, shaped),
                       ("psk", PSK64, upsk)):
        sc = replace(base, constellation=c, distribution=d)
        results[name] = detection_probability(sc, alpha,
                                              seed=derive_seed(2024,
                                                               f"c9-{name}"))
    pd_u, lo_u, hi_u = results["uniform"]
    pd_s, _, _ = results["shaped"]
    pd_p, lo_p, _ = results["psk"]
    ok = (pd_p >= pd_s >= pd_u and hi_u < lo_p and 0.3 <= pd_u <= 0.7)
    announce(9, ok,
             f"detection at 18 dB, P_fa = 1e-4, 5000 trials: 64-PSK "
             f"{pd_p:.3f} ≥ shaped {pd_s:.3f} ≥ uniform {pd_u:.3f}; Wilson "
             f"95% intervals separate the outer pair "
             f"(uniform ≤ {hi_u:.3f} < {lo_p:.3f} ≤ PSK)")
    assert 0.3 <= pd_u <= 0.7, "operating point drifted off the 0.5 knee"
    assert pd_p >= pd_s >= pd_u
    assert hi_u < lo_p


def test_criterion_10_tradeoff_dominance(announce):
    spec = ChannelSpec(noise_power=0.01)
    c0s = list(np.arange(1.0363, 1.3805, 0.05)) + [1.3805]
    seed = derive_seed(2024, "c10")
    opt_col, heur_col, margins = [], [], []
    for i, c0 in enumerate(c0s):
        opt = run_mba(QAM64, MBAConfig(c0=float(c0), noise_power=0.01))
        assert opt.converged, f"shaper diverged at c0={c0}"
        heur = solve_heuristic(QAM64, float(c0))
        mi_o = mutual_information(QAM64, Distribution.from_ring_mass(
                                      QAM64, opt.ring_mass),
                                  spec, n_mc=20_000,
                                  seed=derive_seed(seed, f"air-opt-{i}"))
        mi_h = mutual_information(QAM64, Distribution.from_ring_mass(
                                      QAM64, heur.ring_mass),
                                  spec, n_mc=20_000,
                                  seed=derive_seed(seed, f"air-heur-{i}"))
        opt_col.append(mi_o.mi_bits)
        heur_col.append(mi_h.mi_bits)
        margins.append(mi_o.mi_bits - mi_h.mi_bits
                       + 3.0 * float(np.hypot(mi_o.std_error,
                                              mi_h.std_error)))
    dominance = float(min(margins))
    step_o = float(np.min(np.diff(opt_col)))
    step_h = float(np.min(np.diff(heur_col)))
    ok = dominance > 0.0 and step_o >= 0.0 and step_h >= 0.0
    announce(10, ok,
             f"{len(c0s)}-point fourth-moment sweep: iterative rate ≥ "
             f"matched rate − 3 SE with min margin {dominance:+.4f} bits; "
             f"smallest column steps {step_o:+.4f} (iterative) / "
             f"{step_h:+.4f} (matched) bits, both non-decreasing")
    assert dominance > 0.0
    assert step_o >= 0.0
    assert step_h >= 0.0
