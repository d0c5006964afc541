import numpy as np
import pytest

from zeroone import (Dataset, InputError, ParseError, flip_labels, format_csv,
                     format_libsvm, gen_double_circles, gen_double_moons,
                     load_dataset, parse_csv, parse_libsvm, split, standardize)


class TestDatasetValidation:
    def test_label_alphabet(self):
        with pytest.raises(InputError):
            Dataset(X=np.zeros((2, 1)), y=np.array([1.0, 2.0]))

    def test_finite_entries(self):
        with pytest.raises(InputError):
            Dataset(X=np.array([[np.nan]]), y=np.array([1.0]))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            Dataset(X=np.zeros((3, 1)), y=np.array([1.0, -1.0]))


class TestParseLibsvm:
    def test_sparse_line(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0\n")
        np.testing.assert_array_equal(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ds.y, [1.0, -1.0])

    def test_zero_one_labels_mapped(self):
        ds = parse_libsvm("0 1:1.0\n1 1:2.0\n")
        np.testing.assert_array_equal(ds.y, [-1.0, 1.0])

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 2:a\n")
        assert err.value.line == 1

    def test_nonincreasing_index(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("+1 1:1.0 2:2.0\n-1 3:1.0 3:2.0\n")
        assert err.value.line == 2

    def test_too_many_labels(self):
        with pytest.raises(InputError):
            parse_libsvm("1 1:1\n2 1:1\n3 1:1\n")

    def test_single_class_kept_only_if_binary(self):
        np.testing.assert_array_equal(parse_libsvm("-1 1:1\n-1 1:2\n").y, [-1.0, -1.0])
        with pytest.raises(InputError, match="single non-binary label value 3.0"):
            parse_libsvm("3 1:1\n3 1:2\n")

    @pytest.mark.parametrize("text, error, message", [
        ("x 1:1.0\n", ParseError, "line 1: bad label 'x'"),
        ("", InputError, "empty dataset"),
        ("# a comment\n\n", InputError, "empty dataset"),
    ], ids=["label", "empty", "comments"])
    def test_unreadable_text_rejected(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_libsvm(text)

    def test_load_dataset_reads_other_extensions_as_libsvm(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:0.5\n-1 2:1.0\n")
        ds = load_dataset(str(path))
        np.testing.assert_array_equal(ds.X, [[0.5, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(ds.y, [1.0, -1.0])
        assert ds.name == str(path)

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 4))
        X[rng.random(X.shape) < 0.3] = 0.0  # sparsify
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        first = parse_libsvm(format_libsvm(Dataset(X=X, y=y)))
        second = parse_libsvm(format_libsvm(first))
        np.testing.assert_array_equal(first.X, second.X)
        np.testing.assert_array_equal(first.y, second.y)


class TestCsv:
    def test_round_trip(self):
        ds = gen_double_moons(20, seed=3)
        back = parse_csv(format_csv(ds))
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_csv("x1,x2,target\n1,2,1\n")

    @pytest.mark.parametrize("text, error, message", [
        ("x1,x2,label\n1,2,1\n1,2\n", ParseError, "line 3: expected 3 columns, got 2"),
        ("x1,label\n1,1\nabc,-1\n", ParseError, "line 3: non-numeric value"),
        ("", InputError, "empty dataset"),
    ], ids=["columns", "nonnumeric", "empty"])
    def test_unreadable_text_rejected(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_csv(text)


class TestStandardize:
    def test_train_statistics(self):
        tr = Dataset(X=np.array([[0.0, 5.0], [2.0, 5.0]]), y=np.array([1.0, -1.0]))
        te = Dataset(X=np.array([[1.0, 7.0]]), y=np.array([1.0]))
        str_, ste, stats = standardize(tr, te)
        np.testing.assert_array_equal(str_.X[:, 0], [-1.0, 1.0])
        # constant feature flagged and passed through unchanged
        assert stats.constant.tolist() == [False, True]
        np.testing.assert_array_equal(str_.X[:, 1], [5.0, 5.0])
        # test transformed with train statistics, not its own
        np.testing.assert_array_equal(ste.X, [[0.0, 7.0]])

    def test_unit_moments(self):
        rng = np.random.default_rng(1)
        tr = Dataset(X=rng.normal(2.0, 3.0, size=(40, 3)),
                     y=np.where(rng.random(40) < 0.5, 1.0, -1.0))
        out, _, _ = standardize(tr, tr)
        assert np.all(np.abs(out.X.mean(axis=0)) <= 1e-12)
        assert np.all(np.abs(out.X.std(axis=0) - 1.0) <= 1e-12)

    def test_empty_training_set_rejected(self):
        empty = Dataset(X=np.zeros((0, 2)), y=np.zeros(0))
        with pytest.raises(InputError, match="empty training set"):
            standardize(empty, empty)


class TestSplit:
    def test_fraction(self):
        ds = gen_double_circles(10, seed=0)
        tr, te = split(ds, 0.6, seed=1)
        assert tr.n == 6 and te.n == 4

    def test_deterministic(self):
        ds = gen_double_circles(50, seed=0)
        a1, b1 = split(ds, seed=4)
        a2, b2 = split(ds, seed=4)
        np.testing.assert_array_equal(a1.X, a2.X)
        np.testing.assert_array_equal(b1.y, b2.y)

    def test_benchmark_counts(self):
        ds = gen_double_circles(500, seed=0)
        tr, te = split(ds, 0.6, seed=2)
        assert tr.n == 300 and te.n == 200

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(InputError, match=r"train_fraction must be in \(0, 1\)"):
            split(gen_double_circles(10, seed=0), fraction)

    def test_class_collapse(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        ds = Dataset(X=X, y=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(InputError):
            # fraction leaves a single test sample; some seed isolates the -1
            split(ds, 0.75, seed=3)


class TestGenerators:
    def test_moons_noiseless_on_arcs(self):
        ds = gen_double_moons(8, noise_std=0.0, seed=0)
        up = ds.X[ds.y == 1.0]
        np.testing.assert_allclose(np.hypot(up[:, 0], up[:, 1]), 1.0, rtol=1e-12)
        low = ds.X[ds.y == -1.0]
        np.testing.assert_allclose(
            np.hypot(low[:, 0] - 1.0, low[:, 1] - 0.5), 1.0, rtol=1e-12)

    def test_circles_noiseless_radii(self):
        ds = gen_double_circles(11, factor=0.4, noise_std=0.0, seed=0)
        r = np.hypot(ds.X[:, 0], ds.X[:, 1])
        np.testing.assert_allclose(r[ds.y == 1.0], 1.0, rtol=1e-12)
        np.testing.assert_allclose(r[ds.y == -1.0], 0.4, rtol=1e-12)

    @pytest.mark.parametrize("m", [7, 8, 501])
    def test_class_balance(self, m):
        for ds in (gen_double_moons(m, seed=1), gen_double_circles(m, seed=1)):
            n_pos = int(np.sum(ds.y == 1.0))
            assert abs(n_pos - (ds.n - n_pos)) <= 1

    def test_seeded_reproducibility(self):
        a = gen_double_circles(30, seed=9)
        b = gen_double_circles(30, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        assert not np.array_equal(a.X, gen_double_circles(30, seed=10).X)

    def test_invalid_params(self):
        with pytest.raises(InputError):
            gen_double_circles(10, factor=1.5)
        with pytest.raises(InputError):
            gen_double_moons(1)

    @pytest.mark.parametrize("gen", [gen_double_moons, gen_double_circles])
    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf"), -1.0])
    def test_unusable_noise_std(self, gen, noise_std):
        # NaN passed the old "< 0" test and then skipped the noise silently
        with pytest.raises(InputError, match="noise_std must be finite"):
            gen(50, noise_std=noise_std)


class TestFlipLabels:
    def test_zero_rate_identity(self):
        ds = gen_double_moons(20, seed=0)
        out = flip_labels(ds, 0.0, seed=1)
        np.testing.assert_array_equal(out.y, ds.y)

    def test_flip_count(self):
        ds = gen_double_circles(300, seed=0)
        out = flip_labels(ds, 0.1, seed=2)
        assert int(np.sum(out.y != ds.y)) == 30

    def test_involution(self):
        ds = gen_double_circles(50, seed=0)
        twice = flip_labels(flip_labels(ds, 0.2, seed=3), 0.2, seed=3)
        np.testing.assert_array_equal(twice.y, ds.y)

    def test_rate_bounds(self):
        ds = gen_double_circles(10, seed=0)
        with pytest.raises(InputError):
            flip_labels(ds, 0.5, seed=0)
