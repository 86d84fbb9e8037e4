import builtins

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_dataset
from weakiv import (
    Dataset, PartialledData, WeightSpec, estimate, load_csv, partial_out,
    weak_iv_test,
)
from weakiv.data import _QR_BLOCK_ROWS, _thin_qr
from weakiv.errors import InputError, NumericalError


class TestDataset:
    def test_shapes_and_dense_cluster_codes(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng, n=60, kz=2)
        assert data.n == 60
        assert data.k_z == 2
        labels = np.array(["b", "a", "b", "c"] * 15, dtype=object)
        ds = Dataset(y=data.y, x=data.x, z=data.z, cluster=labels)
        assert ds.cluster.dtype == np.int64
        assert ds.cluster[:4].tolist() == [1, 0, 1, 2]
        assert ds.cluster.max() == 2
        already_dense = np.arange(60) % 4
        ds2 = Dataset(y=data.y, x=data.x, z=data.z, cluster=already_dense)
        assert np.array_equal(ds2.cluster, already_dense)

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="same number of rows"):
            Dataset(y=np.zeros(10), x=np.zeros(9), z=np.zeros((10, 1)))

    def test_non_finite_named(self):
        y = np.zeros(10)
        x = np.ones(10)
        z = np.ones((10, 1))
        x_bad = x.copy()
        x_bad[3] = np.nan
        with pytest.raises(InputError, match="non-finite value in x"):
            Dataset(y=y, x=x_bad, z=z)

    def test_too_few_rows(self):
        with pytest.raises(InputError, match="rows"):
            Dataset(y=np.zeros(3), x=np.ones(3), z=np.ones((3, 2)))


class TestPartialOut:
    def test_orthogonality(self):
        rng = np.random.default_rng(1)
        data = make_dataset(rng, n=200, kz=3, kc=4)
        pd_ = partial_out(data)
        c = data.controls
        assert np.abs(c.T @ pd_.y).max() < 1e-8
        assert np.abs(c.T @ pd_.x).max() < 1e-8
        assert np.abs(c.T @ pd_.z).max() < 1e-8

    def test_no_controls_is_identity(self):
        rng = np.random.default_rng(2)
        data = make_dataset(rng, n=80, kz=2)
        pd_ = partial_out(data)
        assert pd_.y is data.y
        assert pd_.x is data.x
        assert pd_.z is data.z

    def test_no_automatic_intercept(self):
        rng = np.random.default_rng(3)
        data = make_dataset(rng, n=80, kz=2)
        shifted = Dataset(y=data.y + 5.0, x=data.x, z=data.z)
        pd_ = partial_out(shifted)
        assert pd_.y.mean() == pytest.approx(data.y.mean() + 5.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, n=60, kz=2, kc=3)
        pd1 = partial_out(data)
        pd2 = partial_out(
            Dataset(y=pd1.y, x=pd1.x, z=pd1.z, controls=data.controls)
        )
        assert np.allclose(pd1.y, pd2.y, atol=1e-10)
        assert np.allclose(pd1.x, pd2.x, atol=1e-10)
        assert np.allclose(pd1.z, pd2.z, atol=1e-10)

    def test_collinear_controls_rejected(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng, n=60, kz=2)
        c = rng.standard_normal((60, 2))
        bad = np.column_stack([c, c[:, 0] - c[:, 1]])
        with pytest.raises(InputError, match="rank deficient"):
            partial_out(Dataset(y=data.y, x=data.x, z=data.z, controls=bad))

    def test_instrument_collinear_with_controls_rejected(self):
        rng = np.random.default_rng(5)
        n = 60
        c = rng.standard_normal((n, 2))
        z = np.column_stack([rng.standard_normal(n), c[:, 0] + c[:, 1]])
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        with pytest.raises(InputError, match="instrument matrix after partialling"):
            partial_out(Dataset(y=y, x=x, z=z, controls=c))

    def test_ill_conditioned_without_a_small_pivot_names_no_column(self):
        """Z = Q R with R unit upper triangular, -1 above the diagonal: its
        singular-value ratio (about 1e-13) fails the rank rule, but every
        column's residual on its predecessors has norm 1, so no column is
        named."""
        rng = np.random.default_rng(30)
        k, n = 40, 200
        r = np.eye(k) - np.triu(np.ones((k, k)), 1)
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        y, x = rng.standard_normal((2, n))
        with pytest.raises(InputError, match="rank deficient") as exc:
            partial_out(Dataset(y=y, x=x, z=q @ r))
        assert exc.value.column is None
        assert "column index" not in str(exc.value)

    def test_directly_built_data_uses_the_same_rank_rule(self):
        """A near-duplicate instrument whose singular-value ratio (about
        5e-12) fails partial_out's rule fails z_qr's too, though |diag R|
        stays above 1e-12 of its largest entry."""
        rng = np.random.default_rng(27)
        a, b, c = rng.standard_normal((3, 200))
        z = np.column_stack([a, a + 1e-11 * b, c])
        y, x = rng.standard_normal((2, 200))
        with pytest.raises(InputError, match="rank deficient"):
            partial_out(Dataset(y=y, x=x, z=z))
        pd_ = PartialledData(y=y, x=x, z=z)
        with pytest.raises(NumericalError, match="numerically rank deficient"):
            pd_.z_qr
        with pytest.raises(NumericalError, match="numerically rank deficient"):
            weak_iv_test(pd_, WeightSpec("2sls"))

    def test_directly_built_data_with_more_instruments_than_rows_is_refused(self):
        """With 9 instruments and 6 rows, R is 6 x 9 and its 6 singular values
        can all be positive; the column count alone fails the rank rule."""
        rng = np.random.default_rng(0)
        y, x = rng.standard_normal((2, 6))
        z = rng.standard_normal((6, 9))
        for fails in (
            lambda pd_: pd_.z_qr,
            lambda pd_: weak_iv_test(pd_, WeightSpec("2sls")),
            lambda pd_: estimate(pd_, WeightSpec("2sls")),
        ):
            with pytest.raises(NumericalError, match="numerically rank deficient"):
                fails(PartialledData(y=y, x=x, z=z))


class TestBlockedQr:
    """The blocked QR gives the projections and singular values of a plain
    `np.linalg.qr`."""

    @pytest.mark.parametrize("k", [1, 40, 300])
    def test_matches_plain_qr(self, k, monkeypatch):
        rows = max(_QR_BLOCK_ROWS, 4 * k)
        n = 3 * rows + 17
        rng = np.random.default_rng(k)
        m = rng.standard_normal((n, k)) + rng.standard_normal(k)
        x = rng.standard_normal((n, 2))
        calls = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            calls.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        q, r = _thin_qr(m)
        monkeypatch.undo()
        assert calls == [(3, rows, k), (3 * k + 17, k)]
        q0, r0 = np.linalg.qr(m)
        scale = np.abs(x).max()
        assert np.allclose(x - q @ (q.T @ x), x - q0 @ (q0.T @ x), rtol=0.0, atol=1e-12 * scale)
        assert np.allclose((q.T @ x) ** 2, (q0.T @ x) ** 2, rtol=1e-12, atol=1e-12 * scale**2)
        sv, sv0 = (np.linalg.svd(a, compute_uv=False) for a in (r, r0))
        assert np.allclose(sv, sv0, rtol=1e-12, atol=0.0)
        assert np.allclose(q @ r, m, rtol=0.0, atol=1e-12 * np.abs(m).max())

    def test_short_matrix_factored_directly(self):
        """Under two blocks of rows the result is `np.linalg.qr`'s, bit for bit."""
        m = np.random.default_rng(3).standard_normal((2 * _QR_BLOCK_ROWS - 1, 5))
        for got, want in zip(_thin_qr(m), np.linalg.qr(m)):
            assert np.array_equal(got, want)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return str(path)

    def test_loads_and_binds(self, tmp_path):
        path = self.write(
            tmp_path,
            "wage,educ,q1,q2,exp,state\n"
            + "\n".join(
                f"{1.0 + i},{2.0 + i},{i % 2},{(i + 1) % 2},{0.1 * i},s{i % 3}"
                for i in range(12)
            )
            + "\n",
        )
        ds = load_csv(path, y="wage", x="educ", z=["q1", "q2"], controls=["exp"],
                      cluster="state")
        assert ds.n == 12
        assert ds.k_z == 2
        assert ds.y[0] == 1.0
        assert ds.cluster.tolist()[:3] == [0, 1, 2]

    def test_missing_column_named(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(InputError, match="missing column 'zz'"):
            load_csv(path, y="a", x="b", z=["zz"])

    def test_non_numeric_cell_reported_one_based(self, tmp_path):
        rows = ["1,2,3"] * 12
        rows[4] = "1,oops,3"
        path = self.write(tmp_path, "a,b,c\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=r"row 5, column 'b'"):
            load_csv(path, y="a", x="b", z=["c"])

    def test_empty_cell_reported(self, tmp_path):
        rows = ["1,2,3"] * 12
        rows[0] = "1,,3"
        path = self.write(tmp_path, "a,b,c\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=r"empty cell at row 1, column 'b'"):
            load_csv(path, y="a", x="b", z=["c"])

    def test_duplicate_header_name_rejected(self, tmp_path):
        rows = [f"{i},{2 * i},{i % 3},{i % 5}" for i in range(12)]
        path = self.write(tmp_path, "y,x,z,z\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=r"column 'z' appears more than once "
                           r"in the header \(columns 3, 4\)"):
            load_csv(path, y="y", x="x", z=["z"])

    def test_duplicate_instrument_column_named(self, tmp_path):
        rng = np.random.default_rng(6)
        lines = ["y,x,z1,z2"]
        for _ in range(30):
            z1 = rng.standard_normal()
            lines.append(
                f"{rng.standard_normal()},{rng.standard_normal()},{z1},{2 * z1}"
            )
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(InputError, match="'z2' is collinear"):
            load_csv(path, y="y", x="x", z=["z1", "z2"])

    def assert_collinear_z10_named(self, tmp_path, rows, seed):
        data = np.random.default_rng(seed).standard_normal((rows, 14))
        data[:, 12] = data[:, 2] - data[:, 3]  # z10 = z0 - z1
        names = [f"z{j}" for j in range(12)]
        lines = ["y,x," + ",".join(names)] + [",".join(map(str, row.tolist())) for row in data]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(InputError, match="instrument column 'z10' is collinear"):
            load_csv(path, y="y", x="x", z=names)

    def test_collinear_instrument_past_index_nine_named(self, tmp_path):
        """Index 10 must not be reported as the instrument at index 1."""
        self.assert_collinear_z10_named(tmp_path, 40, 7)

    def test_collinear_instrument_named_at_blocked_row_count(self, tmp_path):
        """The rank check of the blocked QR still names z10."""
        self.assert_collinear_z10_named(tmp_path, 2 * _QR_BLOCK_ROWS + 17, 9)

    def test_instrument_in_span_of_controls_named(self, tmp_path):
        """An instrument in the span of the controls is rounding noise once
        they are partialled out, and is still named."""
        rng = np.random.default_rng(8)
        data = rng.standard_normal((40, 6))
        data[:, 3] = data[:, 4] + data[:, 5]  # z1 = c0 + c1
        lines = ["y,x,z0,z1,c0,c1"] + [",".join(map(str, row.tolist())) for row in data]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(InputError, match="instrument column 'z1' is collinear"):
            load_csv(path, y="y", x="x", z=["z0", "z1"], controls=["c0", "c1"])

    def test_no_instruments(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(InputError, match="at least one instrument"):
            load_csv(path, y="a", x="b", z=[])

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(InputError, match="empty file"):
            load_csv(path, y="a", x="b", z=["c"])

    @pytest.mark.filterwarnings("error")
    def test_header_only_file(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n")
        with pytest.raises(InputError, match="no data rows"):
            load_csv(path, y="a", x="b", z=["c"])


def _write_bytes(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    return str(path)


def _rows(count):
    return [f"{1.0 + i},{2.0 + 3 * i},{(i * 7) % 5},{i % 2}" for i in range(count)]


class TestLoadCsvCells:
    """Cell forms and line layouts that load_csv must accept or reject with
    the 1-based row of the per-cell scan."""

    @pytest.mark.parametrize(
        "body, row",
        [
            ("\n".join(_rows(1) + [""] + _rows(11)) + "\n", 2),
            ("\n".join(_rows(1) + ["   "] + _rows(11)) + "\n", 2),
            ("\r\n".join(_rows(1) + ["\t "] + _rows(11)) + "\r\n", 2),
            ("\r\n".join(_rows(4)) + "\r\n\r\n", 5),
            ("\n".join(_rows(12)) + "\n\n", 13),
            ("\n".join(_rows(3)) + "\r\r\n" + "\n".join(_rows(9)) + "\n", 4),
            ("\n" + "\n".join(_rows(12)) + "\n", 1),
        ],
        ids=["blank", "spaces", "crlf-tab", "crlf-trailing", "lf-trailing",
             "bare-cr", "leading"],
    )
    @pytest.mark.filterwarnings("error")
    def test_blank_line_is_an_empty_cell(self, tmp_path, body, row):
        path = _write_bytes(tmp_path, "y,x,z,g\n" + body)
        with pytest.raises(InputError, match=rf"empty cell at row {row}, column 'y'$"):
            load_csv(path, y="y", x="x", z=["z"])

    def test_short_row_is_an_empty_cell(self, tmp_path):
        rows = _rows(12)
        rows[6] = "1.0,2.0"
        path = _write_bytes(tmp_path, "y,x,z,g\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=r"empty cell at row 7, column 'z'$"):
            load_csv(path, y="y", x="x", z=["z"])

    @pytest.mark.parametrize(
        "cell, message",
        [
            ('""', r"empty cell at row 9, column 'z'$"),
            ("  ", r"empty cell at row 9, column 'z'$"),
            ("0x10", r"non-numeric cell '0x10' at row 9, column 'z'$"),
            (' "2"', r"non-numeric cell '\"2\"' at row 9, column 'z'$"),
        ],
    )
    def test_bad_cell_messages(self, tmp_path, cell, message):
        rows = _rows(12)
        rows[8] = f"1.0,2.0,{cell},1"
        path = _write_bytes(tmp_path, "y,x,z,g\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=message):
            load_csv(path, y="y", x="x", z=["z"])

    def test_empty_cluster_label_reported(self, tmp_path):
        rows = [r + f",s{i % 3}" for i, r in enumerate(_rows(12))]
        rows[10] = rows[10].rsplit(",", 1)[0] + ", "
        path = _write_bytes(tmp_path, "y,x,z,g,state\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=r"empty cell at row 11, column 'state'$"):
            load_csv(path, y="y", x="x", z=["z"], cluster="state")

    def test_padded_and_quoted_numbers_load(self, tmp_path):
        rows = _rows(12)
        rows[0] = ' 1.5 ,"2.5",  "3.5"  ,1'
        rows[1] = '\t-4e-1\t,"  6 ","7" ,0'
        path = _write_bytes(tmp_path, "y,x,z,g\r\n" + "\r\n".join(rows) + "\r\n")
        with pytest.raises(InputError, match=r"non-numeric cell '\"3.5\"' at row 1"):
            load_csv(path, y="y", x="x", z=["z"])
        ds = load_csv(path, y="y", x="x", z=["g"])
        assert ds.y[:2].tolist() == [1.5, -0.4]
        assert ds.x[:2].tolist() == [2.5, 6.0]
        assert ds.z[:2, 0].tolist() == [1.0, 0.0]

    def test_forms_only_python_float_takes(self, tmp_path):
        rows = _rows(12)
        rows[3] = "1_000,\u0664\u0662,1,0"
        path = _write_bytes(tmp_path, "y,x,z,g\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, y="y", x="x", z=["z"])
        assert ds.y[3] == 1000.0
        assert ds.x[3] == 42.0

    def test_padded_and_quoted_cluster_labels(self, tmp_path):
        labels = [" a", '"b,c"', "a ", '" b,c "', "d", '"a"'] * 2
        rows = [f"{r},{lab}" for r, lab in zip(_rows(12), labels)]
        path = _write_bytes(tmp_path, "y,x,z,g,state\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, y="y", x="x", z=["z"], cluster="state")
        assert ds.cluster.tolist() == [0, 1, 0, 1, 2, 0] * 2

    def test_quoted_label_with_newline_loads(self, tmp_path):
        labels = ['"b\nx"', "c", "d", "a"] * 3
        rows = [f"{r},{lab}" for r, lab in zip(_rows(12), labels)]
        path = _write_bytes(tmp_path, "y,x,z,g,state\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, y="y", x="x", z=["z"], cluster="state")
        assert ds.n == 12
        assert ds.cluster.tolist() == [1, 2, 3, 0] * 3
        assert ds.y[-1] == 12.0

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_no_trailing_newline(self, tmp_path, eol):
        path = _write_bytes(tmp_path, "y,x,z,g" + eol + eol.join(_rows(12)))
        ds = load_csv(path, y="y", x="x", z=["z"])
        assert ds.n == 12
        assert ds.x[-1] == 35.0

    @pytest.mark.parametrize("cell", ["3", "1_000"], ids=["fast", "scan"])
    def test_byte_order_mark_skipped(self, tmp_path, cell):
        """A UTF-8 byte-order mark (as spreadsheet "CSV UTF-8" exports
        write) is not part of the first column name, on either path."""
        rows = _rows(12)
        rows[2] = f"1.0,2.0,{cell},1"
        text = "y,x,z,g\r\n" + "\r\n".join(rows) + "\r\n"
        plain = load_csv(_write_bytes(tmp_path, text), y="y", x="x", z=["z"])
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ds = load_csv(str(path), y="y", x="x", z=["z"])
        assert ds.y.tobytes() == plain.y.tobytes()
        assert ds.z.tobytes() == plain.z.tobytes()

    @pytest.mark.parametrize("cell", ["3", "1_000"], ids=["fast", "scan"])
    def test_file_opened_once(self, tmp_path, monkeypatch, cell):
        rows = [r + f",s{i % 3}" for i, r in enumerate(_rows(12))]
        rows[2] = f"1.0,2.0,{cell},1,s2"
        path = _write_bytes(tmp_path, "y,x,z,g,state\n" + "\n".join(rows) + "\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == path:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        ds = load_csv(path, y="y", x="x", z=["z"], cluster="state")
        assert len(opened) == 1
        assert ds.cluster.tolist() == [i % 3 for i in range(12)]

    def test_bare_cr_line_endings_load(self, tmp_path):
        path = _write_bytes(tmp_path, "y,x,z,g\r" + "\r".join(_rows(12)) + "\r")
        ds = load_csv(path, y="y", x="x", z=["z"])
        assert ds.n == 12
        assert ds.x[-1] == 35.0

    def test_fast_parse_and_cell_scan_bit_equal(self, tmp_path):
        """Every number reaches the same double through the C parser and
        through Python's float: one file parses fully in C, its twin differs
        by one cell that only float() reads, which sends it to the scan."""
        rng = np.random.default_rng(11)
        n, k = 400, 5
        vals = rng.standard_normal((n, k + 2)) * 10.0 ** rng.integers(-8, 9, (n, k + 2))
        vals[5, 3] = 1000.0
        forms = [repr, lambda v: f"{v:.17g}", lambda v: f"{v:.6e}",
                 lambda v: f" {v!r} ", lambda v: f'"{v!r}"']
        cells = [[forms[(i + j) % len(forms)](v) for j, v in enumerate(row)]
                 for i, row in enumerate(vals.tolist())]
        header = "y,x," + ",".join(f"z{j}" for j in range(k)) + ",state"
        lines = [",".join(row) + f",g{i % 9}" for i, row in enumerate(cells)]
        fast = _write_bytes(tmp_path, header + "\n" + "\n".join(lines) + "\n")
        cells[5][3] = "1_000"
        lines[5] = ",".join(cells[5]) + ",g5"
        twin = tmp_path / "twin.csv"
        twin.write_bytes((header + "\n" + "\n".join(lines) + "\n").encode())
        zs = [f"z{j}" for j in range(k)]
        a = load_csv(fast, y="y", x="x", z=zs, cluster="state")
        b = load_csv(str(twin), y="y", x="x", z=zs, cluster="state")
        parsed = np.array([[float(c.strip().strip('"')) for c in row] for row in cells])
        parsed[5, 3] = 1000.0
        for ds in (a, b):
            assert ds.y.tobytes() == parsed[:, 0].tobytes()
            assert ds.x.tobytes() == parsed[:, 1].tobytes()
            assert ds.z.tobytes() == np.ascontiguousarray(parsed[:, 2:]).tobytes()
            assert ds.z.flags.c_contiguous
            assert ds.cluster.tolist() == [i % 9 for i in range(n)]
