"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  The Monte Carlo criteria use fixed seeds; tolerance bands
come from the published curves, with slack where tuning parameters had to be
re-derived.
"""

from fractions import Fraction

import numpy as np

from irsa_sim.cli import emit_csv
from irsa_sim.decoder import decode_frame, mrc_sinr
from irsa_sim.distributions import (
    avg_degree,
    fixed_l3,
    modified_soliton,
)
from irsa_sim.frame_graph import build_frame
from irsa_sim.harness import (
    CompareConfig,
    SweepSpec,
    TuningConfig,
    compare_rs_pa,
    run_sweep,
    run_tuned_sweep,
)
from irsa_sim.metrics import to_db
from irsa_sim.schemes import (
    ChannelConfig,
    SchemeConfig,
    TransmitProfile,
    build_profile,
    es_from_reference,
    hat_es_from_rate,
    pa_powers,
)
from oracles import (
    effective_sinr,
    irsa_peeling_oracle,
    jensen_bound_rs,
    oracle_interference,
    rate_rs,
)

L2_AVG = float(sum(Fraction(1, i) for i in range(1, 10)) + Fraction(3, 5))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_distribution_moments():
    l2 = avg_degree(modified_soliton(10))
    l3 = avg_degree(fixed_l3())
    ok = abs(l2 - 3.428968) <= 1e-5 and abs(l3 - 4.2413) <= 1e-3
    report(
        "criterion 1 (distribution moments)", ok,
        f"avg(modified Y=10) = {l2:.6f} (want 3.428968 +- 1e-5), "
        f"avg(l3) = {l3:.4f} (want 4.2413 +- 1e-3)",
    )


def test_criterion_2_irsa_baseline_curve():
    anchors = {0.4: 0.3993, 0.8: 0.7874, 1.0: 0.1440}
    spec = SweepSpec(
        scheme="IRSA", dist_name="l3", K=300, G_grid=(0.4, 0.8, 0.95, 1.0),
        trials=500, seed=2024, tilde_Es_over_N0=0.0009,
    )
    records = {r.G: r for r in run_sweep(spec)}
    details = []
    ok = True
    for g, want in anchors.items():
        got = records[g].T_mean
        details.append(f"T({g}) = {got:.4f} (want {want} +- 0.03)")
        ok &= abs(got - want) <= 0.03
    # Collapse past the peak: throughput falls off a cliff after G ~ 0.85.
    collapse = records[0.95].T_mean < 0.45 and records[1.0].T_mean < records[0.95].T_mean
    details.append(f"collapse: T(0.95) = {records[0.95].T_mean:.4f}")
    ok &= collapse
    report("criterion 2 (baseline throughput curve)", ok, "; ".join(details))


def test_criterion_3_rs_tuned():
    grid = tuple(round(0.05 * i, 2) for i in range(1, 21))
    spec = SweepSpec(
        scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
        G_grid=grid, trials=200, seed=77, tilde_Es_over_N0=0.0009,
    )
    alpha_grid = tuple(float(x) for x in np.geomspace(0.02, 2.0, 12))
    beta_grid = tuple(float(x) for x in np.geomspace(0.5, 4.0, 7))
    records, tunings = run_tuned_sweep(
        spec, TuningConfig(alpha_grid=alpha_grid, beta_grid=beta_grid, tune_trials=50)
    )
    by_g = {r.G: r for r in records}
    details = []
    ok = True
    floor_ok = all(
        r.T_mean is not None and r.T_mean >= 0.95 * r.G for r in records
    )
    worst = min(
        (r.T_mean / r.G if r.T_mean is not None else 0.0) for r in records
    )
    details.append(f"min T/G = {worst:.4f} (want >= 0.95)")
    ok &= floor_ok
    t1 = by_g[1.0].T_mean
    details.append(f"T(1.0) = {t1:.4f} (want 0.9888 +- 0.03)")
    ok &= abs(t1 - 0.9888) <= 0.03
    eta = by_g[0.8].eta_mean
    details.append(f"eta(0.8) = {eta:.4f} (want 0.7652 +- 0.05)")
    ok &= abs(eta - 0.7652) <= 0.05
    eta_max = by_g[0.8].eta_max_mean
    details.append(f"eta_max(0.8) = {eta_max:.4f} (want 0.8516 +- 0.05)")
    ok &= abs(eta_max - 0.8516) <= 0.05
    report("criterion 3 (rate selection after tuning)", ok, "; ".join(details))


def test_criterion_4_pa_tuned():
    spec = SweepSpec(
        scheme="PA", dist_name="modified_soliton", dist_Y=10, K=300,
        G_grid=(0.8,), trials=500, seed=31, hat_R_bits=10.0, L_cu=100,
    )
    # The published energy curve corresponds to a static link-budget margin
    # (every message decodable before any cancellation, with high
    # reliability), not to the 90%-mean rule, which this receiver meets at
    # mu barely above 1; see the mu-tuning criterion options.
    records, tunings = run_tuned_sweep(
        spec,
        TuningConfig(tune_trials=300, mu_criterion="static_reliability", reliability=0.99),
    )
    rec = records[0]
    fraction = rec.T_mean / 0.8
    gamma_pa = rec.energy_per_user_db
    gamma_irsa = rec.gamma_irsa_db
    details = [
        f"mu = {rec.mu:.2f}",
        f"decoded fraction = {fraction:.4f} (want >= 0.90)",
        f"Gamma_PA = {gamma_pa:.3f} dB (want -6.03 +- 0.5)",
        f"T = {rec.T_mean:.4f} (want 0.792 +- 0.03)",
        f"Gamma_IRSA - Gamma_PA = {gamma_irsa - gamma_pa:.2f} dB (want >= 2.5)",
    ]
    ok = (
        fraction >= 0.90
        and abs(gamma_pa - (-6.03)) <= 0.5
        and abs(rec.T_mean - 0.792) <= 0.03
        and gamma_pa <= gamma_irsa - 2.5
    )
    report("criterion 4 (power adaptation after tuning)", ok, "; ".join(details))


def test_criterion_5_closed_form_anchors():
    hat_es = hat_es_from_rate(10.0, 100, 1.0)
    gamma_min_db = to_db(hat_es)
    gamma_l3_db = to_db(hat_es * avg_degree(fixed_l3()))
    gamma_l2_db = to_db(hat_es * L2_AVG)
    lo = ChannelConfig(K=300, M=6000, L_cu=100, tilde_Es=0.0009)
    hi = ChannelConfig(K=300, M=200, L_cu=100, tilde_Es=0.0009)
    es_lo_db = to_db(es_from_reference(lo, L2_AVG))
    es_hi_db = to_db(es_from_reference(hi, L2_AVG))
    checks = [
        ("Gamma_min", gamma_min_db, -8.2769),
        ("Gamma_IRSA(l3)", gamma_l3_db, -2.0019),
        ("Gamma_IRSA(modified Y=10)", gamma_l2_db, -2.9253),
        ("Es/N0 at G=0.05", es_lo_db, 1.97),
        ("Es/N0 at G=1.5", es_hi_db, -12.8),
    ]
    ok = all(abs(got - want) <= 0.01 for _, got, want in checks)
    detail = "; ".join(f"{name} = {got:.4f} dB (want {want})" for name, got, want in checks)
    report("criterion 5 (closed-form anchors, 0.01 dB)", ok, detail)


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(404)
    dist = fixed_l3()
    l_avg = avg_degree(dist)
    scheme = SchemeConfig("IRSA")
    mismatches = 0
    frames = 10_000
    for _ in range(frames):
        K = int(rng.integers(1, 61))
        M = max(dist.max_degree, int(round(K / float(rng.uniform(0.3, 1.3)))))
        g = build_frame(K, M, dist, rng)
        cfg = ChannelConfig(K=K, M=M, L_cu=100, tilde_Es=0.001)
        profile = build_profile(g.degrees, cfg, scheme, l_avg)
        decoded = set(np.flatnonzero(decode_frame(g, profile, scheme, cfg).decoded))
        if decoded != irsa_peeling_oracle(g):
            mismatches += 1
    report(
        "criterion 6 (peeling oracle equivalence)", mismatches == 0,
        f"{frames - mismatches}/{frames} frames match exactly",
    )


def _random_small_frame(rng, dist):
    K = int(rng.integers(2, 30))
    M = int(rng.integers(dist.max_degree, 40))
    return build_frame(K, M, dist, rng)


def test_criterion_7_property_suite():
    cases = 1000
    rng = np.random.default_rng(7001)
    dist = modified_soliton(6)
    l_avg = avg_degree(dist)
    failures: list[str] = []

    # Edge conservation.
    bad = 0
    for _ in range(cases):
        g = _random_small_frame(rng, dist)
        if int(g.degrees.sum()) != int(g.slot_degrees().sum()):
            bad += 1
    if bad:
        failures.append(f"edge conservation: {bad}/{cases}")

    # The receiver's residual state under arbitrary energies and
    # thresholds: every decode's SINR is the MRC SINR against the exact
    # interference of the messages not yet decoded at its step.
    bad = 0
    pa = SchemeConfig("PA", mu=1.0)
    for _ in range(cases):
        g = _random_small_frame(rng, dist)
        energies = rng.uniform(0.05, 2.0, size=g.K)
        thresholds = rng.uniform(0.05, 2.0, size=g.K)
        profile = TransmitProfile(g.degrees, energies, np.ones(g.K), thresholds, None, l_avg)
        cfg = ChannelConfig(K=g.K, M=g.M, hat_R=1.0)
        result = decode_frame(g, profile, pa, cfg)
        decoded = np.zeros(g.K, dtype=bool)
        edge_energy = energies[g.edge_msg]
        for msg, sinr in zip(result.order.tolist(), result.sinrs.tolist()):
            live = np.where(decoded[g.edge_msg], 0.0, edge_energy)
            residual = np.bincount(g.edge_slot, weights=live, minlength=g.M)
            if mrc_sinr(g.edge_msg, g.edge_slot, edge_energy, cfg.N0, residual)[msg] != sinr:
                bad += 1
                break
            decoded[msg] = True
    if bad:
        failures.append(f"residual consistency: {bad}/{cases}")

    # Effective-SINR monotonicity under peeling.
    bad = 0
    for _ in range(cases):
        g = _random_small_frame(rng, dist)
        cfg = ChannelConfig(K=g.K, M=g.M, L_cu=100, hat_R=float(rng.uniform(2, 10)))
        profile = build_profile(
            g.degrees, cfg, SchemeConfig("PA", mu=float(rng.uniform(1, 2))), l_avg
        )
        decoded = [False] * g.K
        watched = int(rng.integers(0, g.K))
        interference = oracle_interference(g, profile.energies, decoded)
        last = effective_sinr(watched, g, interference, profile, cfg.N0)
        for msg in rng.permutation(g.K):
            if msg == watched:
                continue
            decoded[msg] = True
            interference = oracle_interference(g, profile.energies, decoded)
            now = effective_sinr(watched, g, interference, profile, cfg.N0)
            if now < last * (1 - 1e-12):
                bad += 1
                break
            last = now
    if bad:
        failures.append(f"SINR monotonicity: {bad}/{cases}")

    # Rate selection at alpha = 0 decodes a superset of the baseline.
    bad = 0
    for _ in range(cases):
        g = _random_small_frame(rng, dist)
        cfg = ChannelConfig(
            K=g.K, M=g.M, L_cu=100, tilde_Es=float(rng.uniform(0.0005, 0.02))
        )
        irsa, rs = SchemeConfig("IRSA"), SchemeConfig("RS", alpha=0.0, beta=1.0)
        d_irsa = decode_frame(g, build_profile(g.degrees, cfg, irsa, l_avg), irsa, cfg).decoded
        d_rs = decode_frame(g, build_profile(g.degrees, cfg, rs, l_avg), rs, cfg).decoded
        if not np.all(d_rs[d_irsa]):
            bad += 1
    if bad:
        failures.append(f"RS superset at alpha=0: {bad}/{cases}")

    # Power adaptation: per-device total energy is degree independent.
    bad = 0
    for _ in range(cases):
        K = int(rng.integers(2, 40))
        degrees = rng.integers(1, 12, size=K)
        la = float(rng.uniform(1.5, 6.0))
        ra = float(rng.uniform(0.3, 5.0))
        hat_R = float(rng.uniform(1.0, 15.0))
        if (1 - ra) * hat_es_from_rate(hat_R, 100, 1.0) + la <= 0.05:
            continue
        cfg = ChannelConfig(K=K, M=13, L_cu=100, hat_R=hat_R)
        profile = pa_powers(degrees, cfg, float(rng.uniform(1, 3)), la, ra)
        totals = degrees * profile.energies
        if np.ptp(totals) > 1e-9 * totals.mean():
            bad += 1
    if bad:
        failures.append(f"PA degree independence: {bad}/{cases}")

    # Jensen bound dominates the exact mean selected rate.
    bad = 0
    for _ in range(cases):
        es = float(rng.uniform(0.002, 0.5))
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.7, 2.0))
        r_avg = float(rng.uniform(0.3, 1.2)) * l_avg
        if (beta * r_avg - 1) * es + 1.0 <= 1e-3:
            continue
        exact = sum(
            float(p) * rate_rs(int(d), es, 1.0, 100, alpha, beta, r_avg)
            for d, p in dist.atoms
        )
        if jensen_bound_rs(es, 1.0, 100, alpha, beta, l_avg, r_avg) < exact - 1e-12:
            bad += 1
    if bad:
        failures.append(f"Jensen dominance: {bad}/{cases}")

    # Byte-identical reruns at a fixed seed.
    spec = SweepSpec(
        scheme="RS", dist_name="modified_soliton", dist_Y=6, K=30,
        G_grid=(0.4, 0.8, 1.2), trials=30, seed=99, tilde_Es_over_N0=0.004,
        alpha=0.4, beta=1.0,
    )

    def csv_bytes():
        import pathlib
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = emit_csv(run_sweep(spec), pathlib.Path(d) / "x.csv")
            return path.read_bytes()

    if csv_bytes() != csv_bytes():
        failures.append("byte-identical rerun")

    report(
        "criterion 7 (property suite)", not failures,
        "all properties hold" if not failures else "; ".join(failures),
    )


def test_criterion_8_rs_and_pa_beat_irsa():
    # The paper's claim at a finite number of users: at each rate the RS
    # comparison selects, RS and PA both hold the throughput floor on the
    # evaluation streams with far less energy per user than IRSA needs at
    # that rate.  On seeds 101-110 the least evaluation T was 0.7877 and
    # the least saving 4.42 dB (RS) and 4.53 dB (PA).
    floor = 0.78
    spec = SweepSpec(
        scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300, G_grid=(0.8,),
        trials=200, seed=8, tilde_Es_over_N0=0.0009,
    )
    tuning = TuningConfig(
        alpha_grid=(0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 1.8, 2.6, 3.6, 5.0),
        beta_grid=(0.7071, 1.0, 1.4142, 2.0),
        tune_trials=60,
    )
    rows = compare_rs_pa(spec, tuning, CompareConfig((-18.06, -14.06, -10.06), floor))
    details = []
    ok = [row.scheme for row in rows] == ["RS", "IRSA", "PA"] * 3
    ok &= not any(row.note for row in rows)
    for rs, irsa, pa in zip(rows[::3], rows[1::3], rows[2::3]):
        # IRSA decodes one replica of l_avg at the interference-free energy
        # of the rate, N0 * (2**(2R/L) - 1).
        want_irsa = to_db(L2_AVG * (2.0 ** (2.0 * rs.rate_bits / 100) - 1.0))
        ok &= abs(irsa.energy_per_user_db - want_irsa) <= 1e-9
        ok &= min(rs.T_mean, pa.T_mean) >= floor - 0.01
        save_rs = irsa.energy_per_user_db - rs.energy_per_user_db
        save_pa = irsa.energy_per_user_db - pa.energy_per_user_db
        ok &= min(save_rs, save_pa) >= 3.0
        details.append(
            f"R = {rs.rate_bits:.2f} bits: T_RS = {rs.T_mean:.4f}, T_PA = {pa.T_mean:.4f} "
            f"(want >= {floor} - 0.01), saving over IRSA RS {save_rs:.2f} dB, "
            f"PA {save_pa:.2f} dB (want >= 3)"
        )
    report("criterion 8 (RS and PA beat IRSA at equal rate)", ok, "; ".join(details))
