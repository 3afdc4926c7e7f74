import time

import numpy as np
import pytest
from helpers import applied, dense_realized, identity, zero_operator

from vmpadmm.admm import BlockSystem, VmPadmmRun, compute_sigma_theta
from vmpadmm.linalg import PsdOperator, operator_leq
from vmpadmm.problems import FunctionDescriptor, generate
from vmpadmm.schedule import (
    THETA_MAX,
    ScheduleError,
    assemble_Mk,
    constant_schedule,
    drift_sequence,
    schedule_from_dict,
)


def drift_schedule(dims, k_max, c0=1.0, h_scale=2.0):
    cfg = {
        "H": {"type": "scaled_identity", "scale": h_scale},
        "R": {"type": "zero"},
        "S": {"type": "zero"},
        "c": {"c0": c0, "law": "inverse_square"},
        "k_max": k_max,
    }
    return schedule_from_dict(cfg, dims)


def linearized_cfg(tau, c0=0.0, law="zero", k_max=3):
    """H = I, a linearized R with ``tau`` and S = 0."""
    return {
        "H": {"type": "scaled_identity", "scale": 1.0},
        "R": {"type": "linearized", "tau": tau},
        "S": {"type": "zero"},
        "c": {"c0": c0, "law": law},
        "k_max": k_max,
    }


class TestConstantSchedule:
    def test_no_drift_constants(self):
        sched = constant_schedule((3, 2, 2), 10, h_scale=1.5)
        assert sched.C_S == 0.0
        assert sched.C_P == 1.0
        H0, R0, S0 = dense_realized(sched, 0)
        H5, R5, S5 = dense_realized(sched, 5)
        np.testing.assert_array_equal(applied(H0), applied(H5))
        np.testing.assert_array_equal(applied(R0), applied(R5))
        sched.validate()

    @pytest.mark.parametrize("family,scale", [("H", np.inf), ("R", np.nan), ("S", np.inf), ("H", -np.inf)])
    def test_non_finite_scale_is_named(self, family, scale):
        # built as the JSON format's scaled_identity descriptors are, with their finiteness check
        with pytest.raises(ValueError, match=f"^{family} scale must be finite"):
            constant_schedule((3, 2, 2), 10, **{f"{family.lower()}_scale": scale})


class TestDrift:
    def test_first_step_scales_by_one_plus_c0(self):
        # c_0 = 1 and an up-move at k=0: H_1 = (1+c_0) H_0 = 4 I for H_0 = 2 I
        sched = drift_schedule((2, 2, 3), 10, c0=1.0, h_scale=2.0)
        H0 = dense_realized(sched, 0)[0]
        H1 = dense_realized(sched, 1)[0]
        np.testing.assert_allclose(applied(H0), 2.0 * np.eye(3))
        np.testing.assert_allclose(applied(H1), 4.0 * np.eye(3))

    def test_drift_sums_bracket_basel(self):
        # sum c0/(k+1)^2 over all k equals c0 * pi^2/6; realized sum plus the
        # integral tail bound must bracket it from above
        sched = drift_schedule((2, 2, 2), 200, c0=1.0)
        exact = np.pi**2 / 6.0
        partial = float(sched.c_seq.sum())
        assert partial < exact < sched.C_S
        assert sched.C_S - exact < 1e-2

    @pytest.mark.parametrize("law", ["zero", "inverse_square"])
    @pytest.mark.parametrize("c0", [0.0, 0.1, 0.5, 1.0, 3.7])
    def test_drift_factors_match_loop(self, law, c0):
        from vmpadmm.schedule import _drift_factors

        c_seq, _ = drift_sequence(c0, law, 999)
        factors = [1.0]  # f_{k+1} = f_k * (1 + c_k)^{+-1}, up at even k
        for k, c in enumerate(c_seq):
            factors.append(factors[-1] * ((1.0 + c) if k % 2 == 0 else 1.0 / (1.0 + c)))
        np.testing.assert_array_equal(_drift_factors(c_seq), factors)

    def test_c_prod_matches_factors(self):
        sched = drift_schedule((2, 2, 2), 50, c0=0.3)
        assert sched.C_P >= float(np.prod(1.0 + sched.c_seq))
        sched.validate()

    def test_c_over_one_flagged(self):
        sched = drift_schedule((2, 2, 2), 5, c0=2.0)
        failed = r"^schedule validation failed at \(k, family\) = \[\(0, 'c'\)\]$"
        with pytest.raises(ScheduleError, match=failed):
            sched.validate()

    def test_sandwich_violation_detected(self):
        # H_1 = 1.5 H_0 moves R = 1.6 I - A^T H A from diag(0.6, 1.35) to
        # diag(0.1, 1.225): below R_0 / (1 + c_0) = diag(0.4, 0.9)
        cfg = linearized_cfg(1.6, c0=0.5, law="inverse_square")
        sched = schedule_from_dict(cfg, (2, 2, 2), A=np.diag([1.0, 0.5]))
        failed = r"^schedule validation failed at \(k, family\) = \[\(0, 'R'\)"
        with pytest.raises(ScheduleError, match=failed):
            sched.validate()

    def test_metric_dominated_by_drift_product(self):
        # M_j <= C_P * M_k for realized operators of one family
        sched = drift_schedule((2, 2, 2), 30, c0=0.8)
        cp = sched.C_P
        for j, k in ((0, 7), (3, 20), (15, 4)):
            Hj, Hk = dense_realized(sched, j)[0], dense_realized(sched, k)[0]
            assert operator_leq(applied(Hj), cp * applied(Hk))


class TestLinearized:
    def test_psd_iff_tau_dominates(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 4))
        lam_max = float(np.linalg.eigvalsh(A.T @ A).max())

        def build(tau):
            return schedule_from_dict(linearized_cfg(tau), (4, 4, 3), A=A)

        sched = build(lam_max * 1.01)
        R = dense_realized(sched, 1)[1]
        assert np.linalg.eigvalsh(applied(R)).min() >= -1e-10
        indefinite = build(lam_max * 0.9)  # construction checks no operator: validate decides k = 0
        with pytest.raises(ScheduleError, match="R_k is not PSD, first at k = 0"):
            indefinite.validate()

    def test_zero_law_realizes_once(self, monkeypatch):
        # equal drift factors give views of one anchor with equal factors, so
        # a run decomposes a linearized R (and every other operator) in its
        # first block, and its later blocks run no eigh or eigvalsh
        p = generate("consensus_ls", (4, 2, 3), 6)
        tau = 1.1 * float(np.linalg.eigvalsh(p.A.T @ p.A).max())
        sched = schedule_from_dict(linearized_cfg(tau, k_max=100), p.dims, A=p.A)
        run = VmPadmmRun(p, sched, compute_sigma_theta(1.0))
        blocks = run.certified_blocks(100, rho=0.0, eps=0.0)
        first = next(blocks).iterate.M.blocks[0]
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        later = list(blocks)
        assert [len(blk) for blk in later] == [32, 32, 4]
        for blk in later:
            R = blk.iterate.M.blocks[0]
            assert R.base is first.base is sched.family("R")[0] and R.shift == first.shift == tau
            assert (R.factors == -1.0).all() and (first.factors == -1.0).all()
        sched.validate()
        assert calls == []

    def test_requires_constraint_matrix(self):
        with pytest.raises(ValueError, match="requires the constraint matrix"):
            schedule_from_dict(linearized_cfg(5.0), (4, 4, 3))


class TestAssembleMk:
    def test_scalar_example(self):
        # H=2, R=1, S=1, B=[[3]], theta=1 -> blkdiag(1, 3*2*3+1, (1/1)*(1/2))
        M = assemble_Mk(
            identity(1, 2.0), identity(1, 1.0), identity(1, 1.0), np.array([[3.0]]), 1.0
        )
        dense = np.column_stack([M.apply(e) for e in np.eye(3)])
        np.testing.assert_allclose(dense, np.diag([1.0, 19.0, 0.5]))

    def test_theta_range_enforced(self):
        H, R, S = identity(1, 1.0), identity(1, 1.0), identity(1, 1.0)
        B = np.eye(1)
        for theta in (0.0, -1.0, THETA_MAX, THETA_MAX + 0.1):
            with pytest.raises(ValueError, match="theta"):
                assemble_Mk(H, R, S, B, theta)

    def test_third_block_scales_inverse(self):
        M = assemble_Mk(
            identity(2, 4.0), zero_operator(3), zero_operator(2), np.zeros((2, 2)), 0.5
        )
        np.testing.assert_allclose(applied(M.blocks[2]), 0.5 * np.eye(2))


class TestRunMetric:
    """``BlockSystem`` forms each subproblem system of a run from one base
    and f_k; the system formed from the dense a I + s f_k anchor operators
    is the oracle."""

    @staticmethod
    def schedule(r_desc, seed=0):
        rng = np.random.default_rng(seed)
        n_x, n_y, m = 5, 4, 3
        L, G = rng.normal(size=(m, m)), rng.normal(size=(n_y, n_y - 1))
        A, B = rng.normal(size=(m, n_x)), rng.normal(size=(m, n_y))
        H = L @ L.T + np.eye(m)
        cfg = {
            "H": {"type": "dense", "matrix": H.tolist()},
            "R": r_desc(A.T @ H @ A),
            "S": {"type": "dense", "matrix": (G @ G.T).tolist()},
            "c": {"c0": 0.5, "law": "inverse_square"},
            "k_max": 6,
        }
        return schedule_from_dict(cfg, (n_x, n_y, m), A=A), A, B

    R_DESCS = {
        "scaled": lambda AHA: {"type": "scaled_identity", "scale": 0.7},
        # tau covers A^T H_k A for every f_k <= 2
        "linearized": lambda AHA: {"type": "linearized", "tau": 2.5 * float(np.linalg.eigvalsh(AHA).max())},
    }

    @pytest.mark.parametrize("r_kind", sorted(R_DESCS))
    def test_system_base(self, r_kind):
        sched, A, B = self.schedule(self.R_DESCS[r_kind], seed=1)
        systems = {
            family: BlockSystem(FunctionDescriptor("quadratic", n, Q=np.zeros((n, n)), q=np.zeros(n)), N, sched, family)
            for family, N, n in (("R", A, A.shape[1]), ("S", B, B.shape[1]))
        }
        for k in range(sched.k_max + 1):
            H, R, S = dense_realized(sched, k)
            f = sched.factor(k)
            for family, P in (("R", R), ("S", S)):
                system = systems[family]
                N, K, tau = system.N, system.K, system.tau
                G = N.T @ H.matrix @ N + P.matrix
                fK = 0.0 if K is None else f * K
                np.testing.assert_allclose(fK + tau * np.eye(N.shape[1]), G, rtol=1e-12, atol=1e-12)
        assert (systems["R"].K is None) == (r_kind == "linearized")


class TestJsonConfig:
    CFG = {
        "H": {"type": "scaled_identity", "scale": 2.0},
        "R": {"type": "zero"},
        "S": {"type": "zero"},
        "c": {"c0": 0.5, "law": "inverse_square"},
        "k_max": 10,
    }

    def test_roundtrip_dimensions(self):
        sched = schedule_from_dict(self.CFG, (4, 3, 2))
        H, R, S = dense_realized(sched, 0)
        assert H.dim == 2 and R.dim == 4 and S.dim == 3
        np.testing.assert_allclose(applied(H), 2.0 * np.eye(2))

    def test_zero_law_freezes_operators(self):
        cfg = dict(self.CFG, c={"c0": 0.0, "law": "zero"})
        sched = schedule_from_dict(cfg, (4, 3, 2))
        np.testing.assert_array_equal(applied(dense_realized(sched, 0)[0]), applied(dense_realized(sched, 9)[0]))

    def test_zero_family_is_the_scaled_zero_operator(self):
        # R = S = 0 under drift: (anchor 0, a = 0, s = 1), as scaled_identity
        # with scale 0 builds it, realizes the zero operator at every k
        zero = schedule_from_dict(self.CFG, (4, 3, 2))
        scaled = schedule_from_dict(dict(self.CFG, S={"type": "scaled_identity", "scale": 0.0}), (4, 3, 2))
        assert [(a, s) for _, a, s in zero._families] == [(0.0, 1.0)] * 3
        assert len({zero.factor(k) for k in range(zero.k_max + 1)}) == zero.k_max + 1
        for k in range(zero.k_max + 1):
            _, R, S = dense_realized(zero, k)
            assert not applied(R).any() and not applied(S).any()
            np.testing.assert_array_equal(applied(S), applied(dense_realized(scaled, k)[2]))
        # a tiny R or S scale is a PSD family too: only H is flagged definite
        for scale in (1e-13, 1e-300):
            tiny = {"type": "scaled_identity", "scale": scale}
            sched = schedule_from_dict(dict(self.CFG, R=tiny, S=tiny), (4, 3, 2))
            sched.validate()
            for name in "RS":  # as a run forms it at k = 1
                Q, a, s = sched.family(name)
                assert not Q.affine(a, s * sched.factor(1)).definite

    def test_zero_families_validate_fast_at_full_horizon(self):
        from vmpadmm.schedule import K_MAX_LIMIT

        sched = schedule_from_dict(dict(self.CFG, k_max=K_MAX_LIMIT), (4, 3, 2))
        t0 = time.perf_counter()
        sched.validate()
        assert time.perf_counter() - t0 < 1.0

    def test_missing_field_rejected(self):
        cfg = {k: v for k, v in self.CFG.items() if k != "H"}
        with pytest.raises(ValueError, match="'H'"):
            schedule_from_dict(cfg, (4, 3, 2))

    def test_unknown_descriptor_rejected(self):
        cfg = dict(self.CFG, H={"type": "mystery"})
        with pytest.raises(ValueError, match="mystery"):
            schedule_from_dict(cfg, (4, 3, 2))

    def test_linearized_only_for_r(self):
        cfg = dict(self.CFG, S={"type": "linearized", "tau": 1.0})
        with pytest.raises(ValueError, match="R family"):
            schedule_from_dict(cfg, (4, 3, 2))


class TestRuleValidation:
    CFG = {"H": {"type": "scaled_identity", "scale": 1.0}, "R": {"type": "zero"}, "S": {"type": "zero"},
           "k_max": 3}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operator descriptor type 'bogus'"):
            schedule_from_dict(dict(self.CFG, R={"type": "bogus"}), (2, 2, 2))
        with pytest.raises(ValueError, match="unknown drift law 'bogus'"):
            schedule_from_dict(dict(self.CFG, c={"c0": 0.5, "law": "bogus"}), (2, 2, 2))

    def test_zero_h_family_rejected(self):
        for h in ({"type": "zero"}, {"type": "scaled_identity", "scale": 0.0}):
            with pytest.raises(ValueError, match="positive definite"):
                schedule_from_dict(dict(self.CFG, H=h), (2, 2, 2))
        with pytest.raises(ValueError, match="flagged definite but smallest eigenvalue is 1e-13"):
            schedule_from_dict(dict(self.CFG, H={"type": "scaled_identity", "scale": 1e-13}), (2, 2, 2))

    def test_negative_c0_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            schedule_from_dict(dict(self.CFG, c={"c0": -0.1, "law": "inverse_square"}), (1, 1, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            drift_sequence(-0.1, "inverse_square", 3)


class TestAnalyticValidate:
    """``validate()`` decides every family's PSD-ness and sandwich at its
    anchor's two extreme eigenvalues, for all k at once; a walk over k that
    forms each operator densely from the JSON config, A and f_k and compares
    with ``operator_leq`` is the oracle."""

    @staticmethod
    def dense(cfg, A, f):
        """(H_k, R_k, S_k) at f_k = f, formed from the config's dense H, its
        dense or linearized R and its scaled-identity S, not from the schedule."""
        H = f * np.array(cfg["H"]["matrix"])
        if cfg["R"]["type"] == "linearized":
            R = cfg["R"]["tau"] * np.eye(A.shape[1]) - A.T @ H @ A
            R = 0.5 * (R + R.T)
        else:
            R = f * np.array(cfg["R"]["matrix"])
        return H, R, f * (cfg["S"]["scale"] * np.eye(cfg["n_y"]))

    @classmethod
    def oracle(cls, sched, cfg, A):
        """The sandwich failures, or ("not PSD", k) for the first k at which
        an operator fails the dense constructor's PSD check."""
        mats = [cls.dense(cfg, A, sched.factor(k)) for k in range(sched.k_max + 1)]
        for k, ops in enumerate(mats):
            for m in ops:
                try:
                    PsdOperator(m)
                except ValueError as exc:
                    assert "not PSD" in str(exc)
                    return "not PSD", k
        failures = []
        for k in range(sched.k_max):
            c = float(sched.c_seq[k])
            for name, q0, q1 in zip("HRS", mats[k], mats[k + 1]):
                if not (operator_leq(q0 / (1.0 + c), q1) and operator_leq(q1, (1.0 + c) * q0)):
                    failures.append((k, name))
        return failures

    @staticmethod
    def random_schedule(seed, tau_factor=None):
        """Dense H and S; a singular dense R, or for ``tau_factor`` a
        linearized R with tau = tau_factor * lambda_max(A^T H_0 A).  Returns
        the schedule, its config (with n_y) and A."""
        rng = np.random.default_rng(seed)
        n_x, n_y, m = (int(d) for d in rng.integers(1, 6, size=3))
        L = rng.normal(size=(m, m))
        H = L @ L.T + np.eye(m)
        G = rng.normal(size=(n_x, max(1, n_x - 1)))  # a singular R base
        A = rng.normal(size=(m, n_x))
        R = {"type": "dense", "matrix": (G @ G.T).tolist()}
        c0 = float(rng.uniform(0.0, 1.0))
        if tau_factor is not None:
            R = {"type": "linearized", "tau": tau_factor * float(np.linalg.eigvalsh(A.T @ H @ A)[-1])}
            c0 = float(rng.uniform(0.1, 0.5))
        cfg = {
            "H": {"type": "dense", "matrix": H.tolist()},
            "R": R,
            "S": {"type": "scaled_identity", "scale": float(rng.uniform(0.1, 3.0))},
            "c": {"c0": c0, "law": "inverse_square"},
            "k_max": 12,
        }
        return schedule_from_dict(cfg, (n_x, n_y, m), A=A), dict(cfg, n_y=n_y), A

    @staticmethod
    def validate_without_decompositions(sched, monkeypatch):
        """``validate()``, asserting that it calls no ``operator_leq`` and
        no eigendecomposition, and that validating in blocks of 5 k (the
        last one partial at k_max = 12) gives the same verdict; returns every
        sandwich failure (``validate()`` names the first three) or
        ("not PSD", k)."""
        calls = []
        monkeypatch.setattr("vmpadmm.linalg.operator_leq", lambda *a: calls.append(a) or operator_leq(*a))
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, **k: calls.append(a) or _fn(*a, **k))

        def verdict():
            try:
                sched.validate()
            except ScheduleError as exc:
                if "not PSD" in str(exc):
                    assert str(exc).startswith("schedule validation failed: ")
                    assert "_k is not PSD, first at k = " in str(exc)
                    return "not PSD", int(str(exc).split("first at k = ")[1])
                failures = sched._sandwich_failures()
                assert str(exc) == f"schedule validation failed at (k, family) = {failures[:3]}"
                return failures
            return []

        whole = verdict()
        monkeypatch.setattr("vmpadmm.schedule._VALIDATE_BLOCK", 5)
        blocked = verdict()
        monkeypatch.undo()
        assert calls == []
        assert blocked == whole
        return whole

    @pytest.mark.parametrize("seed", range(8))
    def test_same_verdict_as_eigenvalues(self, seed, monkeypatch):
        sched, cfg, A = self.random_schedule(seed)
        assert self.validate_without_decompositions(sched, monkeypatch) == self.oracle(sched, cfg, A) == []

    # tau / lambda_max(A^T H_0 A): every R_k PSD and sandwiched; PSD but the
    # sandwich fails at k = 0 (it needs tau >= (2 + c_0) lambda_max); R_0 PSD
    # but R_1 = tau I - (1 + c_0) A^T H_0 A indefinite
    TAU_REGIMES = {"passes": 3.0, "sandwich_fails": 2.0, "indefinite_later": 1.05}

    @pytest.mark.parametrize("regime", sorted(TAU_REGIMES))
    @pytest.mark.parametrize("seed", range(6))
    def test_linearized_same_verdict_as_walk(self, regime, seed, monkeypatch):
        sched, cfg, A = self.random_schedule(seed, self.TAU_REGIMES[regime])
        expected = self.oracle(sched, cfg, A)
        assert self.validate_without_decompositions(sched, monkeypatch) == expected
        if regime == "passes":
            assert expected == []
        elif regime == "sandwich_fails":
            assert expected and expected[0] == (0, "R") and {name for _, name in expected} == {"R"}
        else:
            assert expected == ("not PSD", 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_broken_factors_detected(self, seed, monkeypatch):
        sched, cfg, A = self.random_schedule(seed)
        sched._factors[5] *= 1.0 + 2.0 * float(sched.c_seq[4]) + 0.01  # jump past (1 + c_4)
        expected = self.oracle(sched, cfg, A)
        assert expected == [(4, "H"), (4, "R"), (4, "S"), (5, "H"), (5, "R"), (5, "S")]
        assert self.validate_without_decompositions(sched, monkeypatch) == expected


class TestHorizonLimit:
    def test_huge_k_max_rejected_before_allocation(self):
        import tracemalloc

        cfg = dict(TestJsonConfig.CFG, k_max=10**12)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="k_max"):
                schedule_from_dict(cfg, (4, 3, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_is_inclusive(self):
        from vmpadmm.schedule import K_MAX_LIMIT

        with pytest.raises(ValueError, match="k_max"):
            schedule_from_dict(dict(TestJsonConfig.CFG, k_max=K_MAX_LIMIT + 1), (4, 3, 2))
        cfg = dict(TestJsonConfig.CFG, c={"c0": 0.0, "law": "zero"}, k_max=K_MAX_LIMIT)
        assert schedule_from_dict(cfg, (4, 3, 2)).k_max == K_MAX_LIMIT
