import csv

import numpy as np
import pytest
import scipy.stats

from snodep.data import (
    PathwayDef,
    PathwayMetabolite,
    PathwayModule,
    TimeSeriesDataset,
    ValidationError,
    generate_synthetic,
    knockout_generate,
    load_expression_csv,
    load_pathway_json,
    load_timeseries_csv,
    log_normalize_scale,
    merge_configurations,
    pathway_from_dict,
    save_pathway_json,
    save_timeseries_csv,
    top_expressed_genes,
)


def toy_expression(seed=0, d=4, n=6, v=3):
    rng = np.random.default_rng(seed)
    times = np.arange(float(v))
    samples = [rng.poisson(5.0, size=(d, n)).astype(float) for _ in range(v)]
    return TimeSeriesDataset("expression", times, samples,
                             [f"g{i}" for i in range(d)])


class TestDataset:
    def test_kind_and_shape_validation(self):
        with pytest.raises(ValidationError):
            TimeSeriesDataset("counts", [0.0], [np.zeros((1, 1))], ["g0"])
        with pytest.raises(ValidationError):
            TimeSeriesDataset("flux", [0.0, 1.0], [np.zeros((1, 1))], ["g0"])
        with pytest.raises(ValidationError):
            TimeSeriesDataset("flux", [0.0], [np.zeros((2, 1))], ["g0"])
        with pytest.raises(ValidationError):
            TimeSeriesDataset("flux", [0.0], [np.zeros((1, 0))], ["g0"])

    def test_expression_must_be_integer_counts(self):
        with pytest.raises(ValidationError):
            TimeSeriesDataset("expression", [0.0], [np.array([[1.5]])], ["g0"])
        with pytest.raises(ValidationError):
            TimeSeriesDataset("expression", [0.0], [np.array([[-1.0]])], ["g0"])
        for count in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValidationError, match="timestep 1: .* must be finite"):
                TimeSeriesDataset("expression", [0.0, 1.0],
                                  [np.array([[1.0]]), np.array([[2.0, count]])], ["g0"])
        # normalized expression may be real-valued
        TimeSeriesDataset("expression", [0.0], [np.array([[-0.3]])], ["g0"],
                          normalized=True)

    @pytest.mark.parametrize("kind", ["expression", "flux"])
    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
    def test_times_must_be_finite(self, kind, time):
        with pytest.raises(ValidationError, match="timestep 2: time .* is not finite"):
            TimeSeriesDataset(kind, [0.0, 1.0, time],
                              [np.ones((1, 1)) for _ in range(3)], ["g0"])


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        ds = toy_expression()
        path = tmp_path / "ds.csv"
        save_timeseries_csv(path, ds)
        back = load_timeseries_csv(path, "expression")
        np.testing.assert_array_equal(back.times, ds.times)
        assert back.feature_names == ds.feature_names
        for a, b in zip(back.samples, ds.samples):
            np.testing.assert_array_equal(a, b)

    def test_float_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = TimeSeriesDataset("flux", [0.0, 1.0],
                               [rng.normal(size=(2, 3)) for _ in range(2)],
                               ["m0", "m1"])
        path = tmp_path / "ds.csv"
        save_timeseries_csv(path, ds)
        back = load_timeseries_csv(path, "flux")
        for a, b in zip(back.samples, ds.samples):
            np.testing.assert_array_equal(a, b)

    def test_bad_header_and_values(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,id,g0\n0,0,1\n")
        with pytest.raises(ValidationError):
            load_timeseries_csv(p, "flux")
        p.write_text("time,sample_id,g0\n0,0,abc\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_timeseries_csv(p, "flux")

    def test_golden_text(self, tmp_path):
        ds = TimeSeriesDataset("flux", [1.5, -0.0],
                               [np.array([[-0.0, 1e-05], [5e-324, 1e+300]]),
                                np.array([[np.nan], [-np.inf]])],
                               ["a", "b,c"])
        path = tmp_path / "ds.csv"
        save_timeseries_csv(path, ds)
        assert path.read_bytes() == (
            b'time,sample_id,a,"b,c"\r\n'
            b"1.5,0,-0.0,5e-324\r\n"
            b"1.5,1,1e-05,1e+300\r\n"
            b"-0.0,0,nan,-inf\r\n")

    def test_bytes_match_row_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        d, v = 9, 5
        times = rng.permutation(np.round(rng.normal(size=v) * 10, 3))
        indicator = rng.integers(0, 2, size=(4, 1)).astype(float)
        samples = []
        for n in rng.integers(1, 40, size=v):
            values = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-300, 300, size=(d, n))
            samples.append(np.vstack([values, np.tile(indicator, (1, n))]))
        ds = TimeSeriesDataset("flux", times, samples, [f"m{i}" for i in range(d + 4)],
                               knockout=True)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_timeseries_csv(got, ds)
        reference_save(want, ds)
        assert got.read_bytes() == want.read_bytes()

    def test_load_matches_dict_grouping_on_shuffled_rows(self, tmp_path):
        rng = np.random.default_rng(11)
        time_pool = ["3.0", "-1.5", "0.0", "-0.0", "2.25", "1e-3"]
        rows = [[time_pool[rng.integers(0, len(time_pool))], f"s{rng.integers(0, 99)}"]
                + [repr(float(x)) for x in rng.normal(size=5)] for _ in range(400)]
        p = tmp_path / "shuffled.csv"
        p.write_text("time,sample_id," + ",".join(f"f{i}" for i in range(5)) + "\n"
                     + "".join(",".join(r) + "\n" for r in rows))
        names, times, samples = reference_load(p)
        ds = load_timeseries_csv(p, "flux")
        assert ds.feature_names == names
        np.testing.assert_array_equal(ds.times, times)
        np.testing.assert_array_equal(np.signbit(ds.times), np.signbit(times))
        assert len(ds.samples) == len(samples)
        for got, want in zip(ds.samples, samples):
            np.testing.assert_array_equal(got, want)

    def test_blank_lines_quotes_and_named_samples_accepted(self, tmp_path):
        p = tmp_path / "loose.csv"
        p.write_bytes(b'time,sample_id,g0,g1\r\n\r\n"1.0",cell-a,"2.5",3\r\n'
                      b'\r\n0,"x,y",1,-2\r\n\n')
        ds = load_timeseries_csv(p, "flux")
        np.testing.assert_array_equal(ds.times, [0.0, 1.0])
        np.testing.assert_array_equal(ds.samples[0], [[1.0], [-2.0]])
        np.testing.assert_array_equal(ds.samples[1], [[2.5], [3.0]])

    def test_negative_zero_survives(self, tmp_path):
        ds = TimeSeriesDataset("flux", [-0.0, 1.0],
                               [np.array([[-0.0, 0.0]]), np.array([[0.0, -0.0]])], ["m0"])
        path = tmp_path / "ds.csv"
        save_timeseries_csv(path, ds)
        back = load_timeseries_csv(path, "flux")
        np.testing.assert_array_equal(np.signbit(back.times), [True, False])
        for a, b in zip(back.samples, ds.samples):
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))

    def test_bad_row_counts_blank_lines(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,sample_id,g0\n0,0,1\n\n\n0,0,zz\n")
        with pytest.raises(ValidationError, match="non-numeric value at row 5"):
            load_timeseries_csv(p, "flux")

    @pytest.mark.parametrize("rows, line", [("0,0,1\nnan,1,2\n", 3), ("inf,0,1\n", 2),
                                            ("0,0,1\n\n-inf,1,2\n", 4), ("NaN,0,1\n", 2)])
    def test_non_finite_time_rejected(self, tmp_path, rows, line):
        p = tmp_path / "bad.csv"
        p.write_text("time,sample_id,g0\n" + rows)
        with pytest.raises(ValidationError, match=f"non-finite time .* at row {line}$"):
            load_timeseries_csv(p, "flux")

    @pytest.mark.parametrize("text", ["time,sample_id,g0\r\n", "time,sample_id,g0\r\n\r\n\n"])
    def test_header_only_rejected(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ValidationError, match="empty.csv: no data rows"):
            load_timeseries_csv(p, "flux")

    @pytest.mark.parametrize("rows, message", [
        ("0,0,1,2\n0,1,1\n", "row 3 has 3 columns, the header has 4"),
        ("0,0,1,2\n0,1,1,2,3\n", "row 3 has 5 columns, the header has 4"),
        ("0,0,1,2,3\n1,0,3,4,5\n", "row 2 has 5 columns, the header has 4"),
        ("0,0,1\n1,0,3\n", "row 2 has 3 columns, the header has 4"),
    ])
    def test_ragged_rows_rejected(self, tmp_path, rows, message):
        p = tmp_path / "ragged.csv"
        p.write_text("time,sample_id,g0,g1\n" + rows)
        with pytest.raises(ValidationError, match=f"ragged.csv: {message}"):
            load_timeseries_csv(p, "flux")

    def test_value_float_accepts_but_parser_rejects(self, tmp_path):
        # digit-group underscores are Python float syntax, not CSV numbers
        p = tmp_path / "underscore.csv"
        p.write_text("time,sample_id,g0\n0,0,1_000\n")
        with pytest.raises(ValidationError, match="underscore.csv: "):
            load_timeseries_csv(p, "flux")


def reference_save(path, ds):
    """The long CSV written one csv.writer row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "sample_id"] + list(ds.feature_names))
        for t, mat in zip(ds.times, ds.samples):
            for j in range(mat.shape[1]):
                writer.writerow([repr(float(t)), j] + [repr(float(v)) for v in mat[:, j]])


def reference_load(path):
    """Rows grouped in a dict keyed by time, in file order; times ascending."""
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            if row:
                groups.setdefault(float(row[0]), []).append([float(v) for v in row[2:]])
    times = sorted(groups)
    return header[2:], np.array(times), [np.array(groups[t]).T for t in times]


class TestExpressionLoaders:
    def test_tidy_form(self, tmp_path):
        p = tmp_path / "tidy.csv"
        p.write_text(
            "gene,day,cell_id,count\n"
            "g0,0,c1,3\ng1,0,c1,1\ng0,0,c2,2\n"
            "g0,1,c3,5\ng1,1,c3,0\n")
        ds = load_expression_csv(p)
        assert ds.feature_names == ["g0", "g1"]
        np.testing.assert_array_equal(ds.times, [0.0, 1.0])
        # missing (gene, cell) pairs default to zero
        np.testing.assert_array_equal(ds.samples[0], [[3.0, 2.0], [1.0, 0.0]])
        np.testing.assert_array_equal(ds.samples[1], [[5.0], [0.0]])

    def test_tidy_matches_reference_on_shuffled_rows(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = [(f"g{rng.integers(0, 12)}", str(float(rng.integers(0, 5))),
                 f"c{rng.integers(0, 30)}", str(int(rng.integers(0, 9))))
                for _ in range(600)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        p = tmp_path / "tidy.csv"
        p.write_text("gene,day,cell_id,count\n"
                     + "".join(",".join(r) + "\n" for r in rows))

        # straightforward reference: first-appearance gene order, sorted days,
        # sorted cells per day, a later row for the same entry wins, zero fill
        genes = list(dict.fromkeys(g for g, _, _, _ in rows))
        days = sorted({float(d) for _, d, _, _ in rows})
        last = {(g, float(d), c): float(n) for g, d, c, n in rows}
        want = []
        for day in days:
            cells = sorted({c for (_, d, c) in last if d == day})
            want.append(np.array([[last.get((g, day, c), 0.0) for c in cells]
                                  for g in genes]))

        ds = load_expression_csv(p)
        assert ds.feature_names == genes
        np.testing.assert_array_equal(ds.times, days)
        assert len(ds.samples) == len(want)
        for got, exp in zip(ds.samples, want):
            np.testing.assert_array_equal(got, exp)

    def test_tidy_rejects_bad_counts(self, tmp_path):
        p = tmp_path / "tidy.csv"
        p.write_text("gene,day,cell_id,count\ng0,0,c1,2.5\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_expression_csv(p)

    @pytest.mark.parametrize("row, match", [
        ("g0,0,c1\n", "3 fields, not 4, at row 3$"),
        ("g0,0,c1,2,9\n", "5 fields, not 4, at row 3$"),
        ("g0,0,c1,inf\n", "negative, non-integer or non-finite count at row 3$"),
        ("g0,0,c1,nan\n", "negative, non-integer or non-finite count at row 3$"),
        ("g0,nan,c1,2\n", "non-finite day at row 3$"),
        ("g0,-inf,c1,2\n", "non-finite day at row 3$"),
    ])
    def test_tidy_rejects_malformed_rows(self, tmp_path, row, match):
        p = tmp_path / "tidy.csv"
        p.write_text("gene,day,cell_id,count\ng1,0,c1,1\n" + row)
        with pytest.raises(ValidationError, match=f"tidy.csv: {match}"):
            load_expression_csv(p)

    @pytest.mark.parametrize("row, match", [
        ("g1,1,2\n", "3 fields, not 4, at row 3$"),
        ("g1,1,2,3,4\n", "5 fields, not 4, at row 3$"),
        ("g1,1,inf,3\n", "negative, non-integer or non-finite count at row 3$"),
        ("g1,nan,2,3\n", "negative, non-integer or non-finite count at row 3$"),
    ])
    def test_matrix_rejects_malformed_rows(self, tmp_path, row, match):
        p = tmp_path / "mat.csv"
        p.write_text("gene,c1,c2,c3\ng0,1,2,3\n" + row)
        with pytest.raises(ValidationError, match=f"mat.csv: {match}"):
            load_expression_csv(p, day_labels={"c1": 0.0, "c2": 0.0, "c3": 1.0})

    def test_matrix_with_sidecar(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("gene,c1,c2,c3\ng0,1,2,3\ng1,0,4,1\n")
        side = tmp_path / "days.csv"
        side.write_text("cell_id,day\nc1,0\nc2,0\nc3,2\n")
        ds = load_expression_csv(p, day_labels=str(side))
        np.testing.assert_array_equal(ds.times, [0.0, 2.0])
        np.testing.assert_array_equal(ds.samples[0], [[1.0, 2.0], [0.0, 4.0]])
        np.testing.assert_array_equal(ds.samples[1], [[3.0], [1.0]])

    @pytest.mark.parametrize("rows, line", [
        ("c1\nc2,0\n", 2),        # no day column
        ("c1,0\n\nc2,x\n", 4),    # non-numeric day, after a blank line
        ("c1,0\nc2,nan\n", 3),
        ("c1,inf\nc2,0\n", 2),
    ], ids=["missing", "non_numeric", "nan", "inf"])
    def test_matrix_sidecar_rejects_bad_days(self, tmp_path, rows, line):
        p = tmp_path / "mat.csv"
        p.write_text("gene,c1,c2\ng0,1,2\n")
        side = tmp_path / "days.csv"
        side.write_text("cell_id,day\n" + rows)
        with pytest.raises(ValidationError,
                           match=f"days.csv: missing or non-finite day at row {line}$"):
            load_expression_csv(p, day_labels=str(side))

    def test_matrix_requires_sidecar_and_labels(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("gene,c1\ng0,1\n")
        with pytest.raises(ValidationError):
            load_expression_csv(p)
        with pytest.raises(ValidationError):
            load_expression_csv(p, day_labels={"other": 0.0})


class TestNormalization:
    def test_fit_window_statistics(self):
        ds = toy_expression(seed=1, d=3, n=40, v=4)
        out = log_normalize_scale(ds, fit_timesteps=2)
        pooled = np.concatenate(out.samples[:2], axis=1)
        np.testing.assert_allclose(pooled.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=1), 1.0, atol=1e-12)
        assert out.normalized

    def test_matches_direct_formula(self):
        ds = toy_expression(seed=2)
        out = log_normalize_scale(ds)
        logged = [np.log1p(m) for m in ds.samples]
        pooled = np.concatenate(logged, axis=1)
        mean = pooled.mean(axis=1, keepdims=True)
        std = pooled.std(axis=1, keepdims=True)
        for a, m in zip(out.samples, logged):
            np.testing.assert_allclose(a, (m - mean) / std, rtol=1e-12)

    def test_zero_variance_gene_maps_to_zero(self):
        samples = [np.array([[2.0, 2.0], [1.0, 5.0]]) for _ in range(2)]
        ds = TimeSeriesDataset("expression", [0.0, 1.0], samples, ["g0", "g1"])
        out = log_normalize_scale(ds)
        np.testing.assert_array_equal(out.samples[0][0], [0.0, 0.0])
        assert np.any(out.samples[0][1] != 0)

    def test_double_normalize_rejected(self):
        out = log_normalize_scale(toy_expression())
        with pytest.raises(ValidationError):
            log_normalize_scale(out)

    def test_only_expression(self):
        ds = TimeSeriesDataset("flux", [0.0], [np.ones((1, 2))], ["m0"])
        with pytest.raises(ValidationError):
            log_normalize_scale(ds)


class TestSynthetic:
    def test_poisson_counts_and_determinism(self):
        ds, truth = generate_synthetic("poisson", 3, 5, 20, seed=7)
        ds2, truth2 = generate_synthetic("poisson", 3, 5, 20, seed=7)
        assert ds.kind == "expression"
        for a, b in zip(ds.samples, ds2.samples):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(truth["lambda"], truth2["lambda"])
        assert truth["lambda"].shape == (5, 3)
        assert np.all(truth["lambda"] > 0)

    def test_poisson_empirical_means_match_truth(self):
        ds, truth = generate_synthetic("poisson", 2, 4, 4000, seed=0)
        for t in range(4):
            emp = ds.samples[t].mean(axis=1)
            # 5 sigma of the mean of n Poisson draws
            tol = 5 * np.sqrt(truth["lambda"][t] / 4000)
            assert np.all(np.abs(emp - truth["lambda"][t]) < tol)

    def test_gaussian_distribution_matches_truth(self):
        ds, truth = generate_synthetic("gaussian", 2, 3, 3000, seed=1)
        assert ds.kind == "flux"
        np.testing.assert_array_equal(truth["sigma"], np.full((3, 2), 0.1))
        for t in range(3):
            emp = ds.samples[t].mean(axis=1)
            assert np.all(np.abs(emp - truth["mu"][t]) < 5 * 0.1 / np.sqrt(3000))

    def test_truth_is_softplus_of_linear_readout(self):
        # lambda(t) = softplus(a z(t) + b) with the damped oscillator state
        _, truth = generate_synthetic("poisson", 2, 6, 1, seed=3)
        rng = np.random.default_rng(3)
        t = np.arange(6.0)
        z = np.stack([np.exp(-0.05 * t) * np.cos(0.5 * t),
                      -np.exp(-0.05 * t) * np.sin(0.5 * t)], axis=-1)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        np.testing.assert_allclose(truth["lambda"],
                                   np.logaddexp(0.0, 3.0 * (z @ a.T) + b + 2.0),
                                   rtol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            generate_synthetic("bernoulli", 2, 3, 4, seed=0)


class TestPathway:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PathwayDef(["g0"], [PathwayModule("M1", ["g9"])], [])
        with pytest.raises(ValidationError):
            PathwayDef(["g0"], [PathwayModule("M1", ["g0"])],
                       [PathwayMetabolite("A", ["MX"], [])])
        with pytest.raises(ValidationError):
            PathwayDef(["g0"], [PathwayModule("M1", ["g0"])],
                       [PathwayMetabolite("A", [], [])])

    @pytest.mark.parametrize("kind, doc", [
        ("module", {"genes": ["g0", "g1", "g2"],
                    "modules": [{"name": "M", "genes": ["g0"]},
                                {"name": "M", "genes": ["g1", "g2"]}],
                    "metabolites": [{"name": "A", "in_modules": ["M"],
                                     "out_modules": ["M"]}]}),
        ("metabolite", {"genes": ["g0", "g1"],
                        "modules": [{"name": "M1", "genes": ["g0"]},
                                    {"name": "M2", "genes": ["g1"]}],
                        "metabolites": [{"name": "A", "in_modules": ["M1"],
                                         "out_modules": []},
                                        {"name": "A", "in_modules": [],
                                         "out_modules": ["M2"]}]}),
        ("gene", {"genes": ["g0", "g1", "g0"],
                  "modules": [{"name": "M1", "genes": ["g0", "g1"]}],
                  "metabolites": [{"name": "A", "in_modules": ["M1"],
                                   "out_modules": []}]}),
    ])
    def test_duplicate_names_rejected(self, kind, doc):
        # rows of the stoichiometric matrix and module columns are positional,
        # so a repeated name would make a lookup by name ambiguous
        dup = {"module": "M", "metabolite": "A", "gene": "g0"}[kind]
        with pytest.raises(ValidationError, match=f"duplicate {kind} name '{dup}'"):
            pathway_from_dict(doc)

    def test_json_roundtrip(self, tmp_path):
        pathway = pathway_from_dict({
            "genes": ["g0", "g1"],
            "modules": [{"name": "M1", "genes": ["g0"]},
                        {"name": "M2", "genes": ["g1"]}],
            "metabolites": [{"name": "A", "in_modules": ["M1"],
                             "out_modules": ["M2"]}],
        })
        path = tmp_path / "pw.json"
        save_pathway_json(path, pathway)
        back = load_pathway_json(path)
        assert back.genes == pathway.genes
        assert [m.name for m in back.modules] == ["M1", "M2"]
        assert back.metabolites[0].in_modules == ["M1"]


class TestTopGenes:
    def test_matches_brute_force_sort(self):
        ds = toy_expression(seed=5, d=30, n=8, v=3)
        totals = {g: sum(float(m[i].sum()) for m in ds.samples)
                  for i, g in enumerate(ds.feature_names)}
        oracle = [g for g, _ in sorted(totals.items(), key=lambda kv: -kv[1])]
        assert top_expressed_genes(ds, 10) == oracle[:10]

    def test_stable_under_ties(self):
        samples = [np.array([[2.0], [2.0], [1.0]])]
        ds = TimeSeriesDataset("expression", [0.0], samples, ["a", "b", "c"])
        assert top_expressed_genes(ds, 2) == ["a", "b"]


def stub_estimator(pathway):
    """Deterministic flux estimator: module flux = mean expression of its genes."""

    def run(ds):
        gene_row = {g: i for i, g in enumerate(ds.feature_names)}
        flux_samples, bal_samples = [], []
        for mat in ds.samples:
            flux = np.stack([mat[[gene_row[g] for g in m.genes]].mean(axis=0)
                             for m in pathway.modules])
            bal = np.zeros((pathway.n_metabolites, mat.shape[1]))
            mrow = {m.name: i for i, m in enumerate(pathway.modules)}
            for k, met in enumerate(pathway.metabolites):
                for mod in met.in_modules:
                    bal[k] += flux[mrow[mod]]
                for mod in met.out_modules:
                    bal[k] -= flux[mrow[mod]]
            flux_samples.append(flux)
            bal_samples.append(bal)
        names_m = [m.name for m in pathway.modules]
        names_b = [m.name for m in pathway.metabolites]
        return (TimeSeriesDataset("flux", ds.times.copy(), flux_samples, names_m),
                TimeSeriesDataset("balance", ds.times.copy(), bal_samples, names_b))

    return run


def toy_pathway(genes):
    return pathway_from_dict({
        "genes": genes,
        "modules": [{"name": "M1", "genes": genes[:2]},
                    {"name": "M2", "genes": genes[2:4]}],
        "metabolites": [{"name": "A", "in_modules": ["M1"],
                         "out_modules": ["M2"]}],
    })


class TestKnockout:
    def setup_method(self):
        self.ds = toy_expression(seed=9, d=10, n=12, v=3)
        self.pathway = toy_pathway(self.ds.feature_names)

    def test_structure(self):
        ko = knockout_generate(self.ds, self.pathway, k=6, n_subsets=5, seed=0,
                               estimator=stub_estimator(self.pathway))
        assert len(ko.configurations) == 5
        assert len(ko.train) == 4 and len(ko.test) == 1
        top = set(top_expressed_genes(self.ds, 6))
        for conf in ko.configurations:
            assert 1 <= len(conf.knocked_genes) <= 3
            assert set(conf.knocked_genes) <= top
            # indicator zeros exactly on knocked genes
            zeros = {self.ds.feature_names[i]
                     for i in np.flatnonzero(conf.indicator == 0)}
            assert zeros == set(conf.knocked_genes)
            # appended rows: u + d and v + d
            assert conf.flux.d_y == self.pathway.n_modules + self.ds.d_y
            assert conf.balance.d_y == self.pathway.n_metabolites + self.ds.d_y
            assert conf.flux.knockout and conf.balance.knockout

    def test_configurations_distinct_and_seeded(self):
        ko1 = knockout_generate(self.ds, self.pathway, k=6, n_subsets=5, seed=3,
                                estimator=stub_estimator(self.pathway))
        ko2 = knockout_generate(self.ds, self.pathway, k=6, n_subsets=5, seed=3,
                                estimator=stub_estimator(self.pathway))
        subsets = [tuple(c.knocked_genes) for c in ko1.configurations]
        assert len(set(subsets)) == 5
        assert subsets == [tuple(c.knocked_genes) for c in ko2.configurations]

    def test_indicator_rows_constant(self):
        ko = knockout_generate(self.ds, self.pathway, k=6, n_subsets=3, seed=0,
                               estimator=stub_estimator(self.pathway))
        conf = ko.configurations[0]
        ind_rows = conf.flux.samples[0][self.pathway.n_modules:]
        np.testing.assert_array_equal(
            ind_rows, np.tile(conf.indicator[:, None], (1, ind_rows.shape[1])))

    def test_knocked_expression_is_zeroed_before_estimation(self):
        seen = {}

        def spy(ds):
            seen["ds"] = ds
            return stub_estimator(self.pathway)(ds)

        ko = knockout_generate(self.ds, self.pathway, k=6, n_subsets=2, seed=1,
                               estimator=spy)
        conf = ko.configurations[-1]
        rows = [self.ds.feature_names.index(g) for g in conf.knocked_genes]
        assert all(np.all(seen["ds"].samples[t][rows] == 0) for t in range(3))

    def test_validation(self):
        with pytest.raises(ValidationError):
            knockout_generate(self.ds, self.pathway, k=99, n_subsets=2, seed=0,
                              estimator=stub_estimator(self.pathway))
        with pytest.raises(ValidationError, match="k=0 must lie in 1..10"):
            knockout_generate(self.ds, self.pathway, k=0, n_subsets=2, seed=0,
                              estimator=stub_estimator(self.pathway))
        with pytest.raises(ValidationError):
            knockout_generate(self.ds, self.pathway, k=4, n_subsets=1, seed=0,
                              estimator=stub_estimator(self.pathway))
        flux = TimeSeriesDataset("flux", [0.0], [np.ones((1, 1))], ["m"])
        with pytest.raises(ValidationError):
            knockout_generate(flux, self.pathway, k=2, n_subsets=2, seed=0,
                              estimator=stub_estimator(self.pathway))

    def test_exhausted_subsets(self):
        # k=1 admits only one distinct subset, so a second draw must fail
        with pytest.raises(ValidationError, match="100 attempts"):
            knockout_generate(self.ds, self.pathway, k=1, n_subsets=2, seed=0,
                              estimator=stub_estimator(self.pathway))

    def test_merge_pools_samples(self):
        ko = knockout_generate(self.ds, self.pathway, k=6, n_subsets=5, seed=0,
                               estimator=stub_estimator(self.pathway))
        merged = merge_configurations(ko.train, "flux")
        n = self.ds.samples[0].shape[1]
        assert merged.samples[0].shape == (ko.train[0].flux.d_y, 4 * n)
        np.testing.assert_array_equal(merged.samples[0][:, :n],
                                      ko.train[0].flux.samples[0])
