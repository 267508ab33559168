import cmath
import json
import math
import random
import zlib

import mpmath
import numpy as np
import pytest

from ellipsum import Nome, catalog, kernel, sampling, wide
from ellipsum.catalog import (
    ParamPoint,
    _eight_term,
    _pt_unpack,
    check_identity,
    get_identity,
    list_identities,
)
from ellipsum.sampling import (
    SamplingRegion,
    _draw_complex,
    _rng_for,
    _uniform_pair,
    trial_error,
)
from ellipsum.errors import DegenerateParameters
from ellipsum.report import VerificationReport, point_dump
from ellipsum.series import OmegaSpec, balance_residual
from ellipsum.stream import PhiloxStream, _pool, _seed_key
from ellipsum.suites import Check, run_checks, run_kernel_suite

from conftest import bits, gauge_pair_errors, rel_err, sample_point, to_wide, workdps
from oracles import classical_w_sum

ALL_IDS = [ident.id for ident in list_identities()]


def _admit_draws(admitted: int, monkeypatch):
    """Let the sampler's first ``admitted`` draws through and reject the rest."""
    real, calls = catalog._draw_point, []

    def draw_point(ident, rng, region):
        calls.append(ident.id)
        if len(calls) > admitted:
            raise DegenerateParameters("rejected")
        return real(ident, rng, region)

    monkeypatch.setattr(catalog, "_draw_point", draw_point)


class TestRegistry:
    def test_catalog_size(self):
        # All enumerated ids: the two-gauge transformations, four stretched
        # steps, three residue branches and every summation corollary.
        assert len(ALL_IDS) == 31

    def test_ids_unique(self):
        assert len(set(ALL_IDS)) == len(ALL_IDS)

    def test_descriptions_nonempty(self):
        for ident in list_identities():
            assert ident.description.strip()

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            get_identity("nope")

    def test_stable_order(self):
        assert ALL_IDS[:4] == ["e109", "e87", "gr_sum_general", "sum1"]


class TestSampling:
    def test_solved_constraint_residual(self):
        ident = get_identity("e87")
        pt = sample_point(ident, seed=5)
        v = pt.values
        spec = OmegaSpec(v["a"], (v["b"], v["c"], v["d"], v["e"]), pt.nome,
                         pt.n)
        assert balance_residual(spec) <= 1e-12

    def test_same_seed_identical_point(self):
        ident = get_identity("e109")
        p1 = sample_point(ident, seed=99)
        p2 = sample_point(ident, seed=99)
        assert p1.nome == p2.nome
        assert p1.values == p2.values and p1.n == p2.n

    def test_branch_filter_respected(self):
        ident = get_identity("etrafo5_b0")
        for seed in range(12):
            pt = sample_point(ident, seed=seed)
            assert pt.n % 3 != 2

    def test_moduli_in_region(self):
        ident = get_identity("e87")
        pt = sample_point(ident, seed=3)
        assert 0.3 <= abs(pt.nome.q) <= 0.8
        assert 0.05 <= abs(pt.nome.p) <= 0.3
        for name in ident.free_params:
            assert 0.5 <= abs(pt.values[name]) <= 2.0

    def test_base_collision_is_a_counted_resample(self, monkeypatch):
        # A q, p pair with colliding powers is redrawn by the one sampling
        # loop, from the same stream, and the report counts the redraw.
        seen = []
        clear = catalog._bases_clear

        def reject_first(q, p):
            seen.append((q, p))
            return len(seen) > 1 and clear(q, p)

        monkeypatch.setattr(catalog, "_bases_clear", reject_first)
        rep = check_identity(get_identity("e87"), trials=1)
        assert rep.resamples == 1
        assert len(seen) == 2 and seen[0] != seen[1]


# Every modulus range that catalog.py and suites.py draw from, and two that
# --q-mod or --p-mod can give.
MODULUS_BOUNDS = [(0.3, 0.8), (0.05, 0.3), (0.5, 2.0), (0.05, 0.5), (0.05, 0.25),
                  (0.55, 0.8), (0.7, 1.4), (0.05, 0.45), (0.8, 1.25), (0.75, 0.95),
                  (0.98, 0.99), (1e-6, 1e-3)]
# The rectangles of suites._draw_theta and determinants._draw_theta_det.
RECTANGLES = [((0.1, 3.0), (-0.4, 0.4)), ((0.3, 2.8), (-0.3, 0.3)),
              ((0.0, 2.0), (-0.3, 0.3))]


def _numpy_stream(seed, spawn_key):
    """numpy's own generator, the reference for the pure-Python stream."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)))


def _numpy_rng_for(ident_id, seed, trial):
    return _numpy_stream(seed, (zlib.crc32(ident_id.encode("utf-8")), trial))


def _two_call_draw(rng, bounds):
    """A complex draw from two uniform calls of numpy's generator, the
    reference for _draw_complex."""
    mod = rng.uniform(bounds[0], bounds[1])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return complex(mod * np.cos(phase), mod * np.sin(phase))


def _point_bits(pt):
    numbers = [pt.nome.q, pt.nome.p, *(pt.values[name] for name in sorted(pt.values))]
    return [bits(z) for z in numbers], sorted(pt.values), pt.n


_SEEDS = random.Random(15)
# seeds at the word boundaries SeedSequence splits on, and random 63-bit ones
STREAM_SEEDS = [0, 1, 7919, 2**32, 2**64 + 5, *(_SEEDS.getrandbits(63) for _ in range(8))]
# spawn keys as _rng_for builds them, and with words at or above 2**32
SPAWN_KEYS = [(zlib.crc32(b"e87"), 0), (0, 2**32), (2**32 + 7, 3), (2**64 - 1, 2**40),
              (2**70 + 1, 9)]
# one-value ranges (no draw), small ones, ones whose Lemire draw is rejected
# about half the time, and the full 32-bit range
INTEGER_RANGES = [(0, 1), (3, 4), (0, 2), (0, 7), (1, 6), (-5, 35), (0, 2**31 + 5),
                  (7, 2**31 + 12), (0, 3 * 2**30), (0, 2**32), (-1, 2**32 - 1)]


class TestSamplingStream:
    """The pure-Python stream draws what numpy's generator draws, bit for bit."""

    @pytest.mark.parametrize("bounds", MODULUS_BOUNDS)
    def test_complex_draws(self, bounds):
        new, old = _rng_for("stream", 7, 0), _numpy_rng_for("stream", 7, 0)
        for _ in range(2000):
            assert bits(_draw_complex(new, bounds)) == bits(_two_call_draw(old, bounds))

    @pytest.mark.parametrize("first, second", RECTANGLES)
    def test_rectangle_draws(self, first, second):
        new, old = _rng_for("stream", 11, 3), _numpy_rng_for("stream", 11, 3)
        for _ in range(2000):
            got = _uniform_pair(new, *first, *second)
            want = old.uniform(*first), old.uniform(*second)
            assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_draws_interleaved_with_integers(self):
        new, old = _rng_for("stream", 1, 5), _numpy_rng_for("stream", 1, 5)
        for i in range(3000):
            bounds = MODULUS_BOUNDS[i % len(MODULUS_BOUNDS)]
            assert bits(_draw_complex(new, bounds)) == bits(_two_call_draw(old, bounds))
            lo, hi = i % 3, i % 3 + 1 + i % 40
            assert new.integers(lo, hi) == int(old.integers(lo, hi))
            if i % 5 == 0:
                first, second = RECTANGLES[i % 3]
                got = _uniform_pair(new, *first, *second)
                assert got == (old.uniform(*first), old.uniform(*second))
        assert new.pair() == tuple(old.random(2).tolist())

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("spawn_key", SPAWN_KEYS)
    def test_seeds_and_spawn_keys(self, seed, spawn_key):
        # pair and integers calls in a seeded random order, so a 32-bit half
        # kept by one integers call is read by a later one across pair calls
        new, old = PhiloxStream(seed, spawn_key), _numpy_stream(seed, spawn_key)
        order = random.Random(seed ^ spawn_key[0])
        for _ in range(300):
            if order.random() < 0.4:
                assert new.pair() == tuple(old.random(2).tolist())
            else:
                lo, hi = order.choice(INTEGER_RANGES)
                assert new.integers(lo, hi) == int(old.integers(lo, hi))

    def test_without_spawn_key(self):
        for seed in STREAM_SEEDS:
            new, old = PhiloxStream(seed, ()), _numpy_stream(seed, ())
            for lo, hi in INTEGER_RANGES:
                assert new.pair() == tuple(old.random(2).tolist())
                assert new.integers(lo, hi) == int(old.integers(lo, hi))

    def test_long_entropy_stream_matches_numpy(self):
        # seed and spawn key words past the eight that the hashmix table covers
        for seed, spawn_key in ((2**200 + 3, (2**100, 5)), (7, (2**300,)), (2**400, ())):
            new, old = PhiloxStream(seed, spawn_key), _numpy_stream(seed, spawn_key)
            for lo, hi in INTEGER_RANGES:
                assert new.pair() == tuple(old.random(2).tolist())
                assert new.integers(lo, hi) == int(old.integers(lo, hi))

    @pytest.mark.parametrize("odd_word", [False, True])
    def test_across_every_refill(self, odd_word):
        # refills of 4, 8, 16, 32 and 32 blocks end at words 16, 48, 112, 240
        # and 368; after one word taken as two 32-bit halves, a pair
        # straddles each end
        new, old = PhiloxStream(7919, (3,)), _numpy_stream(7919, (3,))
        if odd_word:
            for _ in range(2):
                assert new.integers(0, 2**32) == int(old.integers(0, 2**32))
        for _ in range(190):
            assert new.pair() == tuple(old.random(2).tolist())
        assert new._ctr == 4 + 8 + 16 + 32 + 32 + 32
        for _ in range(1000):
            # integers calls across the next refills, an odd number of halves
            # apart where a Lemire draw is rejected
            assert new.integers(0, 3 * 2**30) == int(old.integers(0, 3 * 2**30))
        assert new._ctr > 124 + 2 * 32
        assert new.pair() == tuple(old.random(2).tolist())

    @pytest.mark.parametrize("blocks", [1, 3, 5])
    def test_short_streams(self, blocks):
        for trial in range(3):
            new, old = _rng_for("e87", 5, trial), _numpy_rng_for("e87", 5, trial)
            for _ in range(2 * blocks):
                assert new.pair() == tuple(old.random(2).tolist())

    @pytest.mark.parametrize("seed", [7919, 2**32 + 3, 2**64 + 5])
    def test_consecutive_trials_on_the_cached_pool(self, seed):
        # After an identity's first trial the pool of its seed and crc32 word
        # comes from the cache, and each trial hashes only its own word,
        # which may take two 32-bit words.
        trials = [0, 1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 4]
        crc = zlib.crc32(b"e87")
        hits = _pool.cache_info().hits
        for trial in trials:
            want = np.random.SeedSequence(entropy=seed, spawn_key=(crc, trial))
            assert _seed_key(seed, (crc, trial)) == tuple(want.generate_state(2, np.uint64).tolist())
            new, old = _rng_for("e87", seed, trial), _numpy_rng_for("e87", seed, trial)
            assert new.pair() == tuple(old.random(2).tolist())
        assert _pool.cache_info().hits - hits >= 2 * len(trials) - 1

    @pytest.mark.parametrize("carry", [2**64, 2**128])
    @pytest.mark.parametrize("before", [1, 3, 20, 50])
    def test_counter_carry(self, carry, before):
        # the stream's next counter is carry - before + 1, so the carry falls
        # in its first batch, on its first block, or in a later batch
        new, old = PhiloxStream(11, (2,)), _numpy_stream(11, (2,))
        ctr = carry - before
        new._ctr = ctr
        state = old.bit_generator.state
        state["state"]["counter"] = np.array([ctr >> shift & 2**64 - 1
                                              for shift in (0, 64, 128, 192)], dtype=np.uint64)
        old.bit_generator.state = state
        for _ in range(2 * (before + 40)):
            assert new.pair() == tuple(old.random(2).tolist())
        assert new._ctr >= carry + 40

    @pytest.mark.parametrize("lo, hi", [(0, 0), (3, 2), (0, 2**32 + 1)])
    def test_empty_or_wider_than_32_bit_ranges_raise(self, lo, hi):
        with pytest.raises(ValueError):
            PhiloxStream(1, ()).integers(lo, hi)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
    def test_bad_seeds_raise_as_numpy_does(self, seed, error):
        with pytest.raises(error):
            _numpy_rng_for("e87", seed, 0)
        with pytest.raises(error):
            _rng_for("e87", seed, 0)
        with pytest.raises(error):
            check_identity(get_identity("e87"), trials=1, seed=seed)

    def test_sample_points_of_every_identity(self, monkeypatch):
        seeds = (1, 7919)
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "_rng_for", _numpy_rng_for)
            patch.setattr(catalog, "_draw_complex", _two_call_draw)
            recorded = [_point_bits(sample_point(ident, seed))
                        for ident in list_identities() for seed in seeds]
        assert len(recorded) == 31 * len(seeds)
        assert [_point_bits(sample_point(ident, seed))
                for ident in list_identities() for seed in seeds] == recorded


def test_eprefactor_first_term_is_exactly_one():
    # E(a1) / E(a1) rounds away from 1 for some binary64 a1
    state = random.Random(20261023)
    draw = lambda lo, hi: cmath.rect(state.uniform(lo, hi), state.uniform(0.0, 2.0 * math.pi))
    firsts = [catalog._eprefactor(draw(0.5, 2.0), 3, draw(0.3, 0.9), draw(0.05, 0.3))(0)
              for _ in range(200)]
    assert all(type(t) is complex and t == 1 for t in firsts)
    with workdps(50):
        a1, q, p = (to_wide(mpmath.mpc(z)) for z in (0.7 + 0.3j, 0.5 - 0.2j, 0.2j))
        first = catalog._eprefactor(a1, 4, q, p)(0)
    assert isinstance(first, wide.mpc) and first == 1


class TestCheckIdentity:
    def test_jackson_hundred_trials(self):
        rep = check_identity(get_identity("e87"), trials=100, tol=1e-9, seed=42)
        assert rep.passed
        assert rep.max_rel_err <= 1e-9

    def test_classical_limit_matches_independent_evaluator(self, rnd):
        # p = 0 region: both sides of the ten-term transformation against a
        # purely classical (1 - x)-based evaluator.
        ident = get_identity("e109")
        region = SamplingRegion(p_mod=(0.0, 0.0))
        pt = sample_point(ident, seed=11, region=region)
        v, n, q = pt.values, pt.n, pt.nome.q
        lhs, _ = ident.lhs(pt)
        want = classical_w_sum(v["a"],
                               (v["b"], v["c"], v["d"], v["e"], v["f"], v["g"],
                                q ** (-n)), q, n)
        assert rel_err(lhs, want) <= 1e-12

    def test_zero_branch_uses_summand_scale(self):
        ident = get_identity("egs")
        found_zero = False
        for seed in range(20):
            pt = sample_point(ident, seed=seed)
            if pt.n % 2 == 1:
                lhs, scale = ident.lhs(pt)
                rhs, _ = ident.rhs(pt)
                assert rhs == 0.0
                assert abs(lhs) <= 1e-9 * scale
                found_zero = True
        assert found_zero

    def test_trial_error_zero_rhs_definition(self):
        assert trial_error(1e-12 + 0j, 0.0, scale=1.0) == 1e-12
        assert trial_error(1.0 + 0j, 1.0 + 0j, scale=5.0) == 0.0

    def test_report_round_trips(self):
        rep = check_identity(get_identity("sum1"), trials=5, tol=1e-8, seed=2)
        again = VerificationReport.from_dict(
            json.loads(json.dumps(rep.to_dict())))
        assert again.to_dict() == rep.to_dict()
        assert again.passed

    def test_extended_precision_tightens(self):
        rep = check_identity(get_identity("e87"), trials=3, tol=1e-8, seed=7,
                             precision="extended")
        assert rep.max_rel_err <= 1e-35

    def test_extended_worst_point_ignores_rounding_noise(self):
        # every error of e87 at 50 digits is rounding noise, so the worst
        # point stays that of trial 0, which a last-bit change cannot move;
        # errors lifted above the floor pick the largest again
        ident = get_identity("e87")
        floor = 2.0 ** (catalog.NOISE_BITS - wide.dps_to_prec(catalog.EXTENDED_DPS))
        first = check_identity(ident, trials=1, seed=7, precision="extended")
        rep = check_identity(ident, trials=4, seed=7, precision="extended")
        assert 0 < rep.max_rel_err <= floor
        assert rep.worst_point == first.worst_point

        def lifted(pt):
            value, scale = ident.rhs(pt)
            return value * (1 + 1e-40 * (pt.n + 1) * abs(pt.nome.q)), scale

        rep = check_identity(ident._replace(rhs=lifted), trials=4, tol=1e-45, seed=7,
                             precision="extended")
        assert len(rep.failures) == 4 and min(f["rel_err"] for f in rep.failures) > floor
        worst = max(rep.failures, key=lambda f: f["rel_err"])
        assert rep.worst_point == worst["point"] != first.worst_point

    def test_extended_noise_floor_scales_with_cancellation(self):
        # thmr_r3's trial 2 (n = 4) cancels 1.2e21 below its summands, so its
        # 1.98e-28 lies under the scaled floor 2.7e-23: rounding noise that
        # must not displace trial 0's point, the first and only one above
        region = SamplingRegion(p_mod=(0.9, 0.95))
        ident = get_identity("thmr_r3")
        rep = check_identity(ident, trials=3, seed=1, region=region, precision="extended")
        assert 1e-28 < rep.max_rel_err < 1e-27
        first = check_identity(ident, trials=1, seed=1, region=region, precision="extended")
        assert rep.worst_point == first.worst_point
        assert rep.worst_point["integers"] == {"n": 1}

    def test_extended_precision_leaves_mpmath_precision_alone(self):
        import mpmath

        before = mpmath.mp.dps
        check_identity(get_identity("e87"), trials=1, seed=7, precision="extended")
        assert mpmath.mp.dps == before

    def test_extended_precision_validates_every_entry(self):
        # At 50 digits every entry must hold far beyond binary64 roundoff;
        # this pins the formulas themselves, not just their float behavior.
        for ident in list_identities():
            rep = check_identity(ident, trials=2, tol=1e-30, seed=4,
                                 precision="extended")
            assert rep.passed, (ident.id, rep.max_rel_err)

    def test_extended_trials_stay_off_the_binary64_loop(self, monkeypatch):
        # Binary64 E keeps 53 bits and mpc E the working precision, so a
        # binary64 value leaking into an extended trial would lose digits
        # unnoticed.
        def binary64_sum(x, p, coeffs):
            raise AssertionError(f"binary64 theta sum reached at x={x!r}")

        monkeypatch.setattr(kernel, "_theta_float", binary64_sum)
        for ident in list_identities():
            rep = check_identity(ident, trials=1, precision="extended")
            assert rep.passed, (ident.id, rep.max_rel_err)

    def test_failures_consistent_with_tolerance(self):
        rep = check_identity(get_identity("thmr_r2"), trials=40, tol=1e-8, seed=3)
        assert all(f["rel_err"] > rep.tol for f in rep.failures)
        assert (rep.max_rel_err > rep.tol) == bool(rep.failures)

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError, match="precision"):
            check_identity(get_identity("e87"), trials=1, precision="Extended")

    @pytest.mark.parametrize("admitted", [0, 2])
    def test_exhausted_run_is_a_failed_record(self, admitted, monkeypatch):
        # e87 at seed 1 takes its first draw in each of trials 0 and 1; at
        # tol 0 trial 1 is a failure, which the record must keep
        _admit_draws(admitted, monkeypatch)
        rep = check_identity(get_identity("e87"), trials=5, tol=0.0, seed=1)
        assert not rep.passed and rep.trials == admitted
        assert rep.error == "e87: no admissible point after 100 resamples"
        assert (rep.max_rel_err > 0) == (admitted > 0)
        record = rep.to_dict()
        assert record["error"] == rep.error
        assert bool(rep.failures) == (admitted > 0)
        assert record["failures"] == rep.failures
        assert (rep.worst_point is None) == (admitted == 0)
        assert record["worst_point"] == rep.worst_point
        assert record["resamples"] == sampling.MAX_RESAMPLES + 1
        again = VerificationReport.from_dict(json.loads(json.dumps(record)))
        assert again.to_dict() == record and not again.passed


class TestTrials:
    """The one sampling loop behind identities and suite checks."""

    def test_identity_rejection_leaves_next_trial_alone(self, monkeypatch):
        # one stream per trial: a redraw in trial 0 does not move trial 1
        def drawn(reject_first):
            real, dumps = catalog._draw_point, []

            def draw_point(ident, rng, region):
                pt = real(ident, rng, region)
                dumps.append(point_dump(pt.nome, pt.values, pt.n))
                if reject_first and len(dumps) == 1:
                    raise DegenerateParameters("rejected")
                return pt

            with monkeypatch.context() as patch:
                patch.setattr(catalog, "_draw_point", draw_point)
                rep = check_identity(get_identity("e87"), trials=2)
            return dumps, rep

        clean, clean_rep = drawn(False)
        redrawn, rep = drawn(True)
        assert (clean_rep.resamples, rep.resamples, rep.trials) == (0, 1, 2)
        assert redrawn[0] == clean[0] != redrawn[1]
        assert redrawn[2] == clean[1]

    def test_suite_rejection_shifts_next_trial(self):
        # one stream per check: trial 1 takes the draw after trial 0's redraw
        def drawn(reject_first, trials):
            seen = []

            def draw(rng, region):
                seen.append(rng.pair())
                return ()

            def evaluate():
                if reject_first and len(seen) == 1:
                    raise DegenerateParameters("rejected")
                return 0.0

            (res,) = run_checks([Check("shift", "test.shift", draw, evaluate, 1e-8)],
                                trials=trials)
            return seen, res

        clean, _ = drawn(False, 3)
        shifted, res = drawn(True, 2)
        assert res.trials == 2 and res.resamples == 1
        assert shifted == clean

    @pytest.mark.parametrize("completed", [0, 2])
    def test_exhausted_trial_keeps_completed_trials(self, completed):
        calls = []

        def evaluate(args):
            calls.append(args)
            if len(calls) > completed:
                raise DegenerateParameters("rejected")
            return len(calls)

        values, resamples, error = sampling._trials(
            "loop", 5, lambda trial: trial, lambda rng: rng, evaluate)
        assert values == list(range(1, completed + 1))
        assert resamples == sampling.MAX_RESAMPLES + 1
        assert error == "loop: no admissible point after 100 resamples"
        # the exhausted trial drew from its own stream every time
        assert calls[completed:] == [completed] * (sampling.MAX_RESAMPLES + 1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_an_error(self, trials):
        with pytest.raises(ValueError, match="trials"):
            check_identity(get_identity("e87"), trials=trials)
        with pytest.raises(ValueError, match="trials"):
            run_kernel_suite(trials=trials)


class TestEtrafo5Branches:
    def test_overlapping_branches_agree(self):
        # Residues admitting two closed forms must give the same value.
        combos = {0: ("etrafo5_b0", "etrafo5_b1"),
                  1: ("etrafo5_b0", "etrafo5_b2"),
                  2: ("etrafo5_b1", "etrafo5_b2")}
        for residue, (id_a, id_b) in combos.items():
            ident_a, ident_b = get_identity(id_a), get_identity(id_b)
            hits = 0
            for seed in range(30):
                pt = sample_point(ident_a, seed=seed)
                if pt.n % 3 != residue:
                    continue
                ra, _ = ident_a.rhs(pt)
                rb, _ = ident_b.rhs(pt)
                assert rel_err(ra, rb) <= 1e-9
                hits += 1
                if hits >= 3:
                    break
            assert hits >= 1


def cor_etrafo3_fa_sigma_rhs(pt):
    """cor_etrafo3_fa's closed form indexed by the residue of n mod 2, a
    second evaluation of the same summation."""
    v, n, nome = _pt_unpack(pt)
    a, b, c, d = v["a"], v["b"], v["c"], v["d"]
    q = nome.q
    n2 = nome.with_base(q * q)
    s = n % 2
    m = (n + s) // 2
    base = a * q ** (2 - s)
    return _eight_term(base, base, b, c, d, n2, m)


class TestSigmaBookkeeping:
    def test_sigma_form_matches_direct_form(self):
        ident = get_identity("cor_etrafo3_fa")
        for seed in range(10):
            pt = sample_point(ident, seed=seed)
            direct, _ = ident.rhs(pt)
            sigma = cor_etrafo3_fa_sigma_rhs(pt)
            assert rel_err(direct, sigma) <= 1e-9


class TestTransformPairs:
    def test_matched_right_sides_agree(self):
        out = gauge_pair_errors(trials=20, seed=1)
        assert out["quadratic"] <= 1e-9
        assert out["cubic"] <= 1e-9

    def test_classical_degeneration(self):
        out = gauge_pair_errors(
            trials=20, seed=1, region=SamplingRegion(p_mod=(0.0, 0.0)))
        assert out["quadratic"] <= 1e-9
        assert out["cubic"] <= 1e-9

    def test_second_gauge_is_re_solved(self):
        # Both gauges share one right-side function; without the re-solved
        # gauge parameter the pair would compare it with itself, exactly.
        out = gauge_pair_errors(trials=3, seed=1)
        assert out["quadratic"] > 0 and out["cubic"] > 0

    def test_exhausted_pair_raises(self, monkeypatch):
        # a pair that was never exercised must not read as agreement, 0.0
        _admit_draws(0, monkeypatch)
        with pytest.raises(AssertionError, match="^quadratic: no admissible point"):
            gauge_pair_errors(trials=2, seed=1)


class TestSmallNomeContinuity:
    def test_every_identity_continuous_at_vanishing_nome(self):
        # Evaluations at p = 1e-6 stay within 1e-4 of the p = 0 values.
        # The window presumes O(1) factor arguments, so the probe keeps the
        # termination index at <= 1 (large q^{-rn} arguments scale the
        # p-linear term past any fixed tolerance).
        region = SamplingRegion(q_mod=(0.5, 0.8), p_mod=(0.0, 0.0))
        for ident in list_identities():
            lo, hi = ident.termination
            probe = ident._replace(termination=(lo, min(hi, 1)))
            hit = False
            for seed in range(12):
                pt = sample_point(probe, seed=seed, region=region)
                rhs0, _ = ident.rhs(pt)
                if rhs0 == 0:
                    continue
                lhs0, _ = ident.lhs(pt)
                tiny = ParamPoint(Nome(pt.nome.q, 1e-6), pt.values, pt.n)
                lhs6, _ = ident.lhs(tiny)
                rhs6, _ = ident.rhs(tiny)
                assert rel_err(lhs6, lhs0) <= 1e-4, ident.id
                assert rel_err(rhs6, rhs0) <= 1e-4, ident.id
                hit = True
                break
            assert hit, f"no nonzero classical point found for {ident.id}"


class TestEdgeRegions:
    """Every identity at the edges of the nome region, at the default tolerance."""

    def test_double_precision_at_vanishing_nome(self):
        region = SamplingRegion(p_mod=(1e-6, 1e-3))
        for seed in range(1, 6):
            for ident in list_identities():
                rep = check_identity(ident, trials=10, seed=seed, region=region)
                assert rep.passed, (ident.id, seed, rep.max_rel_err)
                assert rep.max_rel_err <= 1e-10, (ident.id, seed, rep.max_rel_err)

    def test_extended_precision_at_large_nome(self):
        # Mostly near 1e-48, the working precision.  Where a draw cancels,
        # the rounding is amplified: at seed 3 cor1_ba has a value 1e8 below
        # its summand scale and reaches 8.6e-43.
        region = SamplingRegion(p_mod=(0.3, 0.6))
        for seed in range(1, 6):
            for ident in list_identities():
                rep = check_identity(ident, trials=1, seed=seed, region=region,
                                     precision="extended")
                assert rep.passed, (ident.id, seed, rep.max_rel_err)
                assert rep.max_rel_err <= 1e-40, (ident.id, seed, rep.max_rel_err)

    def test_cancelling_draw_stays_below_the_truncation_tail(self):
        # The 1e-40 tail of a truncated product, amplified by the
        # cancellation, put this draw at 1.8e-35; extended E is the infinite
        # product, so only the rounding is amplified.
        region = SamplingRegion(p_mod=(0.3, 0.6))
        rep = check_identity(get_identity("cor1_ba"), trials=1, seed=3, region=region,
                             precision="extended")
        assert rep.max_rel_err <= 1e-40
