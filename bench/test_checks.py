"""Each benchmark check accepts a right output and rejects a deliberately wrong one.

Run:  python3 -m pytest -q bench/test_checks.py
"""

import threading
import time

import numpy as np
import pytest

import checks
import tracing
from checks import CheckFailed


# ---- train_snodep_rk4 ----

def test_gradient_check_rejects_a_gradient_off_by_1e_3():
    x = np.array([0.3, -1.2, 2.0, 0.7])

    def loss_at():
        return float(np.sum(np.sin(x) * x ** 2))

    exact = np.cos(x) * x ** 2 + 2 * x * np.sin(x)
    finite = [checks.central_difference(loss_at, x, (i,)) for i in range(x.size)]
    assert np.array_equal(x, [0.3, -1.2, 2.0, 0.7])   # restored after probing
    checks.check_gradients(exact, finite)
    for i in range(x.size):
        wrong = exact.copy()
        wrong[i] += 1e-3
        with pytest.raises(CheckFailed):
            checks.check_gradients(wrong, finite)


def test_poisson_test_mse_and_close_check():
    samples = [np.array([[1.0, 3.0], [0.0, 2.0]]), np.array([[4.0, 6.0], [1.0, 1.0]])]
    rates = [np.array([2.0, 2.0]), np.array([4.0, 2.0])]
    # t=1: means (5, 1); sum_d mean + (rate - mean)^2 = 5 + 1 + 1 + 1 = 8
    assert checks.poisson_test_mse(rates, samples, [1]) == 8.0
    checks.check_close("mse", 8.0, checks.poisson_test_mse(rates, samples, [1]))
    with pytest.raises(CheckFailed):
        checks.check_close("mse", 8.0 * (1 + 1e-9), 8.0)


def test_floors_reject_values_below_them():
    samples = [np.array([[1.0, 3.0], [0.0, 2.0]])]
    assert checks.poisson_floor(samples, [0]) == 3.0
    assert checks.gaussian_floor(samples, [0]) == 2.0
    checks.check_at_least("mse", 3.0, 3.0)
    with pytest.raises(CheckFailed):
        checks.check_at_least("mse", 2.999, checks.poisson_floor(samples, [0]))
    with pytest.raises(CheckFailed):
        checks.check_at_least("mse", float("nan"), 0.0)


def test_loss_history_must_fall():
    checks.check_loss_decreases(np.linspace(100.0, 50.0, 20))
    with pytest.raises(CheckFailed):
        checks.check_loss_decreases(np.full(20, 70.0))
    with pytest.raises(CheckFailed):
        checks.check_loss_decreases(np.linspace(50.0, 100.0, 20))


def test_nfe_of_rk4_at_10_steps_per_unit():
    grid = np.arange(13.0)
    assert checks.expected_nfe(grid, 10, 4) == 480
    assert checks.expected_nfe([0.0, 0.5, 2.0], 2, 1) == 1 + 3
    checks.check_nfe([480, 480], grid, 10, 4)
    with pytest.raises(CheckFailed):
        checks.check_nfe([480, 479], grid, 10, 4)
    with pytest.raises(CheckFailed):
        checks.check_nfe([], grid, 10, 4)


# ---- flux_knockout ----

CHAIN = {
    "genes": ["g0", "g1", "g2", "g3"],
    "modules": [{"name": "M1", "genes": ["g0", "g1"]},
                {"name": "M2", "genes": ["g2"]},
                {"name": "M3", "genes": ["g1", "g3"]}],
    "metabolites": [{"name": "A", "in_modules": ["M1"], "out_modules": ["M2"]},
                    {"name": "B", "in_modules": ["M2"], "out_modules": ["M3"]},
                    {"name": "C", "in_modules": ["M1", "M3"], "out_modules": []}],
}


def test_stoichiometry_and_balance_check():
    s, touch = checks.stoichiometry(CHAIN)
    assert s.tolist() == [[1, -1, 0], [0, 1, -1], [1, 0, 1]]
    flux = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, 1.0]])
    balance = s @ flux
    checks.check_balance(balance, flux, s)
    wrong = balance.copy()
    wrong[1, 0] += 1e-9
    with pytest.raises(CheckFailed):
        checks.check_balance(wrong, flux, s)


def _brute_force_objective(flux, expression, doc, lam):
    """The hop-2 objective summed term by term, as the method defines it."""
    col = {m["name"]: j for j, m in enumerate(doc["modules"])}
    mods = {m["name"]: set(m["in_modules"]) | set(m["out_modules"])
            for m in doc["metabolites"]}
    sq = {}
    for met in doc["metabolites"]:
        imb = sum(flux[col[n]] for n in met["in_modules"]) \
            - sum(flux[col[n]] for n in met["out_modules"])
        sq[met["name"]] = np.sum(np.asarray(imb) ** 2)
    total = 0.0
    for a in mods:
        total += sq[a] + sum(sq[b] for b in mods if b != a and mods[a] & mods[b])
    row = {g: i for i, g in enumerate(doc["genes"])}
    for m in doc["modules"]:
        activity = expression[[row[g] for g in m["genes"]]].mean(axis=0)
        total += lam * np.sum((flux[col[m["name"]]] - activity) ** 2)
    return total / flux.shape[1]


def test_scfea_objective_matches_term_by_term_sum():
    rng = np.random.default_rng(0)
    flux = rng.uniform(0.1, 2.0, size=(3, 5))
    expression = rng.poisson(3.0, size=(4, 5)).astype(float)
    assert checks.hop2_weights(checks.stoichiometry(CHAIN)[1]).tolist() == [3, 3, 3]
    got = checks.scfea_objective(flux, expression, CHAIN, 0.1)
    assert got == pytest.approx(_brute_force_objective(flux, expression, CHAIN, 0.1),
                                rel=1e-13)
    checks.check_improves("objective", got, got * 1.5)
    with pytest.raises(CheckFailed):
        checks.check_improves("objective", got, got)


def test_round_trip_with_one_value_changed_is_rejected():
    original = np.arange(12.0).reshape(3, 4) / 7.0
    checks.check_equal_arrays("round trip", original.copy(), original)
    changed = original.copy()
    changed[2, 1] = np.nextafter(changed[2, 1], 1.0)
    with pytest.raises(CheckFailed):
        checks.check_equal_arrays("round trip", changed, original)
    with pytest.raises(CheckFailed):
        checks.check_equal_arrays("round trip", original[:2], original)


def _configs(genes, picks, test_ids):
    return [(list(p), np.array([0.0 if g in p else 1.0 for g in genes]),
             "test" if i in test_ids else "train") for i, p in enumerate(picks)]


def test_knockout_checks():
    genes = ["a", "b", "c", "d", "e"]
    top = ["a", "b", "c", "d"]
    picks = [("a",), ("b", "c"), ("d",), ("a", "d"), ("c",)]
    good = _configs(genes, picks, {2})
    checks.check_knockouts(good, genes, top, 5)

    wrong_indicator = [list(c) for c in good]
    wrong_indicator[1][1] = wrong_indicator[1][1].copy()
    wrong_indicator[1][1][0] = 0.0
    with pytest.raises(CheckFailed):
        checks.check_knockouts(wrong_indicator, genes, top, 5)
    with pytest.raises(CheckFailed):
        checks.check_knockouts(_configs(genes, picks[:4] + [("b", "c")], {2}),
                               genes, top, 5)
    with pytest.raises(CheckFailed):
        checks.check_knockouts(_configs(genes, picks, {1, 2}), genes, top, 5)
    with pytest.raises(CheckFailed):
        checks.check_knockouts(_configs(genes, picks[:4] + [("e",)], {2}),
                               genes, top, 5)


def test_top_genes_break_ties_by_gene_order():
    counts = [np.array([[1.0], [3.0], [3.0], [0.0]])]
    assert checks.top_genes(counts, ["w", "x", "y", "z"], 2) == ["x", "y"]


# ---- compare_irregular ----

ROWS = [["nodep", "0", "3.5"], ["nodep", "1", "4.5"], ["snodep_gruode", "0", "2.0"],
        ["nodep", "mean", "4.0"], ["snodep_gruode", "mean", "2.0"]]


def test_threaded_cells_must_equal_serial():
    cells, means = checks.parse_comparison(ROWS)
    checks.check_same_cells(dict(cells), cells)
    changed = dict(cells)
    changed[("nodep", 1)] = np.nextafter(4.5, 5.0)
    with pytest.raises(CheckFailed):
        checks.check_same_cells(changed, cells)
    with pytest.raises(CheckFailed):
        checks.check_same_cells({k: v for k, v in cells.items() if k[1] == 0}, cells)


def test_mean_rows_must_average_their_seed_rows():
    cells, means = checks.parse_comparison(ROWS)
    checks.check_mean_rows(cells, means)
    with pytest.raises(CheckFailed):
        checks.check_mean_rows(cells, {**means, "nodep": 4.0001})
    with pytest.raises(CheckFailed):
        checks.check_mean_rows(cells, {"nodep": 4.0})


# ---- tracing ----

def test_self_time_subtracts_the_union_of_children():
    tr = tracing.Tracer()
    # parent 1 over [0, 10]; children 2 [1, 4] and 3 [3, 6] overlap (threads);
    # child 4 [8, 9]; grandchild 5 [1, 2] lies inside child 2.
    tr.spans = [(2, 1, "c", 1.0, 4.0, 0, 0), (3, 1, "c", 3.0, 6.0, 0, 1),
                (4, 1, "c", 8.0, 9.0, 0, 0), (5, 2, "g", 1.0, 2.0, 0, 0),
                (1, 0, "p", 0.0, 10.0, 0, 0)]
    got = tr.self_times()
    assert got == {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}


def test_wrapped_calls_nest_and_restore():
    class Box:
        def work(self, n):
            time.sleep(0.001)
            return n + 1

    def outer(box):
        return box.work(1) + box.work(2)

    holder = type("holder", (), {"outer": staticmethod(outer)})
    tr = tracing.Tracer()
    original = Box.__dict__["work"]
    tr.patch(Box, "work", tr.wrap("inner", original))
    tr.patch(holder, "outer", tr.wrap("outer", outer))
    with tr.region("op"):
        worker = threading.Thread(target=lambda: Box().work(0))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert holder.outer(Box()) == 5
    tr.restore()
    assert Box.__dict__["work"] is original and holder.outer is not None
    totals = tr.totals()
    assert totals[("op", "inner")][2] == 3 and totals[("op", "outer")][2] == 1
    outer_self, outer_incl, _ = totals[("op", "outer")]
    assert 0.0 <= outer_self < outer_incl
    assert Box().work(0) == 1 and len(tr.spans) == 5
