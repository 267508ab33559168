"""The eval_E memo: its scopes, its keys, and output equal to the program without it."""

import contextlib
import json

import mpmath
import pytest

from ellipsum import catalog, kernel, suites, wide
from ellipsum.catalog import check_identity, get_identity
from ellipsum.cli import main
from ellipsum.errors import DegenerateParameters
from ellipsum.kernel import GUARD_BITS, EMemo, eval_E
from ellipsum.suites import KERNEL_CHECKS, SUITES, Check, run_checks, run_kernel_suite

from conftest import to_wide, workdps

X, P = 0.7 + 0.2j, 0.1 - 0.15j


def _recording(log):
    """An EMemo that appends its hit count to ``log`` on exit."""

    class Recording(EMemo):
        def __exit__(self, *exc):
            log.append(self.hits)
            return super().__exit__(*exc)

    return Recording


def _use_memo(monkeypatch, memo):
    for module in (suites, catalog):
        monkeypatch.setattr(module, "EMemo", memo)


def _serial(monkeypatch):
    # Forked workers keep their memo hits; only in-process runs count them.
    monkeypatch.setattr(catalog, "_worker_count", lambda units: 1)


def _run(args, tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["run", *args, "--json", str(path)])
    payload = json.loads(path.read_text())
    for rep in payload["reports"] + payload["suite_checks"]:
        rep.pop("wall_time_ms")
    return code, payload, capsys.readouterr().out


RUNS = {
    **{name: ["--suite", name, "--trials", "3", "--seed", "5"] for name in sorted(SUITES)},
    "catalog": ["--suite", "catalog", "--trials", "1", "--seed", "5"],
    "catalog-extended": ["--suite", "catalog", "--trials", "1", "--seed", "5",
                         "--precision", "extended"],
}


@pytest.mark.parametrize("args", list(RUNS.values()), ids=list(RUNS))
def test_memo_on_and_off_give_equal_reports(args, monkeypatch, tmp_path, capsys):
    hits = []
    _use_memo(monkeypatch, _recording(hits))
    with monkeypatch.context() as serial:
        _serial(serial)
        with_memo = _run(args, tmp_path, capsys)
    _use_memo(monkeypatch, contextlib.nullcontext)
    without = _run(args, tmp_path, capsys)
    assert with_memo == without
    assert sum(hits) > 0


class TestScope:
    def test_no_memo_outside_a_scope(self):
        assert kernel._memo is None
        eval_E(X, P)
        assert kernel._memo is None

    def test_repeats_are_hits_with_equal_values(self):
        with EMemo() as memo:
            first = eval_E(X, P)
            assert eval_E(X, P) == first
            assert eval_E(P / X, P) == eval_E(P / X, P)
        assert memo.hits == 2 and len(memo.table) == 2
        assert eval_E(X, P) == first

    def test_each_scope_starts_empty(self):
        with EMemo() as first:
            eval_E(X, P)
        with EMemo() as second:
            eval_E(X, P)
        assert first.hits == second.hits == 0

    def test_inner_scope_restores_outer_on_exception(self):
        with EMemo() as outer:
            with pytest.raises(DegenerateParameters):
                with EMemo():
                    eval_E(X, P)
                    raise DegenerateParameters("rejected")
            assert kernel._memo is outer
            eval_E(X, P)
        assert outer.hits == 0
        assert kernel._memo is None

    def test_slot_empty_after_rejected_draws(self):
        seen = []

        def draw(rng, region):
            return (rng.pair()[0],)

        def evaluate(u):
            seen.append(kernel._memo)
            eval_E(X, P)
            if u < 0.5:
                raise DegenerateParameters("rejected draw")
            return 0.0

        (res,) = run_checks([Check("half_rejected", "test.memo", draw, evaluate, 1e-8)],
                            trials=10, seed=3)
        assert res.resamples > 0
        assert kernel._memo is None
        assert all(memo is not None for memo in seen)
        assert len({id(memo) for memo in seen}) == len(seen)


def test_each_catalog_side_gets_a_fresh_scope():
    ident = get_identity("e87")
    seen = []

    def spy(side):
        def evaluate(pt):
            seen.append((side, kernel._memo, len(kernel._memo.table)))
            return getattr(ident, side)(pt)

        return evaluate

    check_identity(ident._replace(lhs=spy("lhs"), rhs=spy("rhs")),
                   trials=3, seed=1)
    assert [side for side, _, _ in seen] == ["lhs", "rhs"] * 3
    assert len({id(memo) for _, memo, _ in seen}) == len(seen)
    assert all(size == 0 for _, _, size in seen)
    assert kernel._memo is None


class TestKeys:
    # Equal values of different types hash alike (a wide number hashes as
    # the complex of equal value), so only the form of the key keeps them
    # apart.
    def test_complex_and_mpc_of_equal_value_are_apart(self):
        x, p = 0.5 + 0.25j, 0.125 + 0.25j
        with workdps(50):
            x_wide, p_wide = wide.ctx.convert(x), wide.ctx.convert(p)
            assert (x_wide, p_wide) == (x, p) and hash((x_wide, p_wide)) == hash((x, p))
            want_mpc = eval_E(x_wide, p_wide)
            want_complex = eval_E(x, p)
            with EMemo() as memo:
                got_complex = eval_E(x, p)
                got_mpc = eval_E(x_wide, p_wide)
        assert memo.hits == 0 and len(memo.table) == 2
        assert type(got_complex) is complex and got_complex == want_complex
        assert isinstance(got_mpc, wide.mpc) and got_mpc == want_mpc

    def test_mpc_built_two_ways_is_a_hit(self):
        with workdps(50):
            x, p = to_wide(mpmath.mpc("0.7", "0.2")), wide.ctx.convert(P)
            same = to_wide(mpmath.mpf("0.7")) + 1j * to_wide(mpmath.mpf("0.2"))
            assert same is not x and same == x
            with EMemo() as memo:
                first = eval_E(x, p)
                again = eval_E(same, p)
        assert memo.hits == 1 and len(memo.table) == 1
        assert again == first

    def test_mpf_and_real_mpc_nome_give_equal_values(self):
        with workdps(50):
            x = wide.ctx.convert(X)
            p_mpf, p_mpc = to_wide(mpmath.mpf("0.3")), to_wide(mpmath.mpc("0.3", 0))
            assert isinstance(p_mpf, wide.mpf) and isinstance(p_mpc, wide.mpc)
            want = eval_E(x, p_mpc)
            assert eval_E(x, p_mpf) == want
            with EMemo() as memo:
                got_mpf = eval_E(x, p_mpf)
                got_mpc = eval_E(x, p_mpc)
        assert got_mpf == got_mpc == want
        assert memo.hits == 1 and len(memo.table) == 1

    def test_float_and_complex_of_equal_value_are_apart(self):
        with EMemo() as memo:
            real = eval_E(0.5, 0.125)
            cplx = eval_E(0.5 + 0j, 0.125 + 0j)
        assert memo.hits == 0 and len(memo.table) == 2
        assert type(real) is float and type(cplx) is complex


def test_hits_do_not_depend_on_earlier_checks(monkeypatch):
    hits = []
    _use_memo(monkeypatch, _recording(hits))
    _serial(monkeypatch)
    run_kernel_suite(trials=5, seed=3)
    full = list(hits)
    alone = []
    for check in KERNEL_CHECKS:
        hits.clear()
        run_kernel_suite(trials=5, seed=3, only=(check.name,))
        alone += hits
    assert alone == full
    assert sum(full) > 0


class TestNomeTables:
    """The series tables of each nome, which the memo keeps apart from E values."""

    def _memo_after(self, calls):
        with workdps(50):
            x, p = wide.ctx.convert(X), wide.ctx.convert(P)
            with EMemo() as memo:
                values = [eval_E(v, p) for v in (x, 2 * x, x, 3 * x)[:calls]]
            return memo, values, (wide.exact_parts(p), wide.ctx.prec + GUARD_BITS)

    def test_tables_leave_the_e_table_and_hits_alone(self, monkeypatch):
        memo, values, key = self._memo_after(4)
        assert list(memo.nomes) == [key]
        monkeypatch.setattr(kernel, "_nome_tables",
                            lambda p, p_parts, wp, memo: kernel._NomeTables(p_parts, wp))
        uncached, uncached_values, _ = self._memo_after(4)
        assert uncached.nomes == {}
        assert memo.table == uncached.table and memo.hits == uncached.hits == 1
        assert values == uncached_values

    def test_each_scope_starts_without_tables(self):
        first, _, key = self._memo_after(1)
        with EMemo() as second:
            assert second.nomes == {}
        again, _, _ = self._memo_after(1)
        assert again.nomes[key] is not first.nomes[key]
        assert kernel._memo is None


class TestBinary64Tables:
    """Binary64 nomes keep their series tables in ``nomes`` too, one per nome."""

    def test_one_table_per_nome_in_a_scope(self, monkeypatch):
        builds = []
        build = kernel._pentagonal

        def counting(p):
            builds.append(p)  # (p; p)_inf, built once per table
            return build(p)

        monkeypatch.setattr(kernel, "_pentagonal", counting)
        q = 0.5 + 0.25j
        with EMemo() as memo:
            values = [eval_E(x, p) for p in (P, q) for x in (X, 2 * X, X, 3 * X)]
            theta = kernel.theta1(0.3 + 0.1j, q)
            tables = dict(memo.nomes)
            assert eval_E(X, q) == values[4] and memo.nomes == tables
        assert builds == [P, q, q * q]
        assert list(tables) == [(complex, P), (complex, q), (complex, q * q)]
        assert theta == kernel.theta1(0.3 + 0.1j, q)
        assert values == [eval_E(x, p) for p in (P, q) for x in (X, 2 * X, X, 3 * X)]

    def test_binary64_and_mpc_tables_are_apart(self):
        with workdps(50):
            p_mpc = wide.ctx.convert(P)
            with EMemo() as memo:
                eval_E(X, P)
                eval_E(wide.ctx.convert(X), p_mpc)
            wp = wide.ctx.prec + GUARD_BITS
        assert set(memo.nomes) == {(complex, P), (wide.exact_parts(p_mpc), wp)}


def test_sides_of_a_trial_share_nome_tables_only(monkeypatch):
    # Both sides of an extended trial evaluate at the same p: one table per
    # nome serves the trial, built once, while each side keeps its own E
    # values and hits.  Built per side, the run took 55 builds for 31 nomes.
    trials = []
    real_extend, real_tables = catalog._extend_point, kernel._NomeTables

    def extend_point(ident, pt):
        trials.append(([], []))  # (scopes, tables built) of one evaluated draw
        return real_extend(ident, pt)

    class Recording(EMemo):
        def __enter__(self):
            trials[-1][0].append(self)
            return super().__enter__()

    class Counting(real_tables):
        __slots__ = ()

        def __init__(self, p, wp, need=None):
            if need is None:  # not the raised tables of _rerun
                trials[-1][1].append((p, wp))
            super().__init__(p, wp, need)

    monkeypatch.setattr(catalog, "_extend_point", extend_point)
    monkeypatch.setattr(kernel, "_NomeTables", Counting)
    _use_memo(monkeypatch, Recording)
    _serial(monkeypatch)
    for ident in catalog.list_identities():
        check_identity(ident, trials=1, seed=1, precision="extended")
    assert sum(len(built) for _, built in trials) == 31
    for scopes, built in trials:
        assert len(built) == len(set(built))
        lhs, rhs = scopes
        assert lhs.nomes is rhs.nomes
        assert set(built) <= set(lhs.nomes)
        assert lhs.table is not rhs.table
