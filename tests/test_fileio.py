import csv

import numpy as np
import pytest

from oracles import shuffled_allocation
from factorial_rerand import fileio, simlab
from factorial_rerand.assignment import expand_assignment
from factorial_rerand.balance import CovariateMatrix, balance_profile
from factorial_rerand.design import DesignSpec, Order, build_design_matrix, expand_model_matrix
from factorial_rerand.errors import ParseError


def test_covariates_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = CovariateMatrix(rng.normal(size=(20, 3)), names=("alpha", "beta2", "g"))
    path = tmp_path / "cov.csv"
    fileio.write_covariates(path, x)
    back = fileio.read_covariates(path)
    assert back.names == x.names
    assert np.array_equal(back.entries, x.entries)


def test_covariates_accepts_tab_delimiter_and_unit_ids(tmp_path):
    path = tmp_path / "cov.tsv"
    path.write_text("unit_id\ta\tb\n2\t3.0\t4.0\n1\t1.0\t2.0\n")
    x = fileio.read_covariates(path)
    # rows come back ordered by unit_id
    assert x.entries.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_covariates_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,notanumber\n")
    with pytest.raises(ParseError, match="row 2, column 'b'"):
        fileio.read_covariates(path)
    path.write_text("a,b\n1\n")
    with pytest.raises(ParseError, match="row 2"):
        fileio.read_covariates(path)
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ParseError, match="header"):
        fileio.read_covariates(path)
    path.write_text("a,b\n1,inf\n")
    with pytest.raises(ParseError, match="non-finite"):
        fileio.read_covariates(path)
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        fileio.read_covariates(path)
    with pytest.raises(ParseError):
        fileio.read_covariates(tmp_path / "missing.csv")


@pytest.mark.parametrize("order", list(Order))
def test_allocation_round_trip_infers_order(tmp_path, order):
    spec = DesignSpec(k=3, r=2, order=order)
    alloc = shuffled_allocation(spec, np.random.default_rng(5))
    path = tmp_path / "alloc.csv"
    fileio.write_allocation(path, alloc)
    back = fileio.read_allocation(path)
    assert np.array_equal(back.combo_of_unit, alloc.combo_of_unit)
    assert back.spec.order == order
    checked = fileio.read_allocation(path, spec)
    assert np.array_equal(checked.combo_of_unit, alloc.combo_of_unit)


def test_allocation_rejects_tampered_signs(tmp_path):
    spec = DesignSpec(k=2, r=2)
    alloc = shuffled_allocation(spec, np.random.default_rng(1))
    path = tmp_path / "alloc.csv"
    fileio.write_allocation(path, alloc)
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = str(-int(fields[2]))  # flip one factor sign
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="disagree"):
        fileio.read_allocation(path)


def test_allocation_rejects_bad_unit_ids(tmp_path):
    spec = DesignSpec(k=2, r=2)
    alloc = shuffled_allocation(spec, np.random.default_rng(2))
    path = tmp_path / "alloc.csv"
    fileio.write_allocation(path, alloc)
    text = path.read_text().replace("\n1,", "\n2,", 1)
    path.write_text(text)
    with pytest.raises(ParseError, match="unit_id"):
        fileio.read_allocation(path)


def test_allocation_header_and_range_checks(tmp_path):
    path = tmp_path / "alloc.csv"
    path.write_text("unit,combination,A\n1,1,-1\n")
    with pytest.raises(ParseError, match="header"):
        fileio.read_allocation(path)
    path.write_text("unit_id,combination,A\n1,3,1\n2,1,-1\n")
    with pytest.raises(ParseError, match="combination 3"):
        fileio.read_allocation(path)
    path.write_text("unit_id,combination,A\n1,1,-1\n2,2,5\n")
    with pytest.raises(ParseError, match="levels"):
        fileio.read_allocation(path)
    path.write_text("unit_id,combination,A\n1,1,-1\n2,2,1\n3,1,-1\n")
    with pytest.raises(ParseError, match="evenly"):
        fileio.read_allocation(path)


def test_allocation_spec_mismatch(tmp_path):
    spec = DesignSpec(k=2, r=2)
    alloc = shuffled_allocation(spec, np.random.default_rng(3))
    path = tmp_path / "alloc.csv"
    fileio.write_allocation(path, alloc)
    with pytest.raises(ParseError, match="factor columns"):
        fileio.read_allocation(path, DesignSpec(k=3, r=1))
    with pytest.raises(ParseError, match="rows"):
        fileio.read_allocation(path, DesignSpec(k=2, r=3))


def test_outcomes_round_trip_and_validation(tmp_path):
    y = np.random.default_rng(4).normal(size=12)
    path = tmp_path / "y.csv"
    fileio.write_outcomes(path, y)
    assert np.array_equal(fileio.read_outcomes(path, n=12), y)
    with pytest.raises(ParseError, match="12"):
        fileio.read_outcomes(path, n=13)
    path.write_text("unit_id,y\n1,0.5\n")
    with pytest.raises(ParseError, match="header"):
        fileio.read_outcomes(path)


def test_thresholds_round_trip(tmp_path):
    path = tmp_path / "thr.json"
    fileio.write_thresholds(path, {"A": 1.25, "AB": 2.5}, p=4)
    thresholds, p = fileio.read_thresholds(path)
    assert thresholds == {"A": 1.25, "AB": 2.5}
    assert p == 4
    path.write_text('{"thresholds": 5}')
    with pytest.raises(ParseError):
        fileio.read_thresholds(path)


def test_read_json_errors(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{broken")
    with pytest.raises(ParseError, match="line 1"):
        fileio.read_json(path)
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="object"):
        fileio.read_json(path)


def test_write_json_handles_numpy_scalars(tmp_path):
    path = tmp_path / "x.json"
    fileio.write_json(path, {"a": np.float64(1.5), "b": np.int32(2), "c": np.arange(3)})
    assert fileio.read_json(path) == {"a": 1.5, "b": 2, "c": [0, 1, 2]}


# Tables as a cell-by-cell writer puts them: ``csv.writer`` with ``repr`` of
# each float.  The writers must give these bytes exactly.
def _reference_table(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


EDGE_VALUES = np.array([[0.1, -0.0, 1e-05], [1e16, 5e-324, 123456789.0]])


@pytest.mark.parametrize("x", [
    simlab.synthetic_nyde(np.random.default_rng(1)).subset(simlab.NYDE_MONITORED),
    CovariateMatrix(EDGE_VALUES, names=("plain", "with, comma", 'with "quotes"')),
], ids=["paper", "edge"])
def test_write_covariates_gives_the_cell_by_cell_bytes(tmp_path, x):
    path = tmp_path / "cov.csv"
    fileio.write_covariates(path, x)
    expected = _reference_table(
        tmp_path / "ref.csv", x.names, [[repr(float(v)) for v in row] for row in x.entries]
    )
    assert path.read_bytes() == expected
    back = fileio.read_covariates(path)
    assert back.names == x.names
    assert np.array_equal(back.entries, x.entries)
    assert np.array_equal(np.signbit(back.entries), np.signbit(x.entries))


def test_write_allocation_and_outcomes_give_the_cell_by_cell_bytes(tmp_path):
    spec = DesignSpec(k=5, r=43)
    alloc = shuffled_allocation(spec, np.random.default_rng(6))
    path = tmp_path / "alloc.csv"
    fileio.write_allocation(path, alloc)
    signs = build_design_matrix(spec).entries[alloc.combo_of_unit - 1]
    expected = _reference_table(
        tmp_path / "ref.csv",
        ["unit_id", "combination", *spec.factor_names],
        [[i + 1, int(alloc.combo_of_unit[i]), *map(int, signs[i])] for i in range(alloc.n)],
    )
    assert path.read_bytes() == expected
    assert np.array_equal(fileio.read_allocation(path, spec).combo_of_unit, alloc.combo_of_unit)

    for y in (np.random.default_rng(7).normal(size=spec.n), EDGE_VALUES.ravel()):
        path = tmp_path / "y.csv"
        fileio.write_outcomes(path, y)
        expected = _reference_table(
            tmp_path / "ref.csv", ["unit_id", "outcome"],
            [[i + 1, repr(float(v))] for i, v in enumerate(y)],
        )
        assert path.read_bytes() == expected
        assert np.array_equal(fileio.read_outcomes(path), y)


def test_write_balance_report_gives_the_cell_by_cell_bytes(tmp_path):
    spec = DesignSpec(k=2, r=2)
    x = CovariateMatrix(np.random.default_rng(8).normal(size=(8, 2)), names=("a, b", "c"))
    alloc = shuffled_allocation(spec, np.random.default_rng(9))
    w = expand_assignment(alloc, expand_model_matrix(build_design_matrix(spec)))
    profile = balance_profile(x, w, ["A", "AB"])
    path = tmp_path / "balance.csv"
    fileio.write_balance_report(path, profile)
    expected = _reference_table(
        tmp_path / "ref.csv", ["effect", "covariate", "statistic", "value"],
        [[e, c, s, repr(float(v))] for e, c, s, v in profile.rows()],
    )
    assert path.read_bytes() == expected


def test_readers_accept_every_token_int_and_float_accept(tmp_path):
    # Padding, a plus sign, digit grouping and quoting, in comma and tab files.
    path = tmp_path / "table.csv"
    path.write_text('unit_id,a,b\n 2 ,"3", 1.5 \n+1,+2,1_000\n')
    assert fileio.read_covariates(path).entries.tolist() == [[2.0, 1000.0], [3.0, 1.5]]
    path.write_text("unit_id\toutcome\n2\t1_0.5\n0_1\t-.5e1\n")
    assert fileio.read_outcomes(path).tolist() == [-5.0, 10.5]
    path.write_text('unit_id,combination,A\n"2","2",+1\n0_1,1, -1\n')
    assert fileio.read_allocation(path).combo_of_unit.tolist() == [1, 2]


@pytest.mark.parametrize("token, message", [
    ("#5", "cannot parse '#5' as a number"),
    ("nan", "non-finite value 'nan'"),
    ("inf", "non-finite value 'inf'"),
    ("-inf", "non-finite value '-inf'"),
    ("1e400", "non-finite value '1e400'"),
])
def test_readers_reject_what_float_rejects_or_reads_as_non_finite(tmp_path, token, message):
    path = tmp_path / "table.csv"
    path.write_text(f"unit_id,a\n1,0.5\n2,{token}\n")
    with pytest.raises(ParseError, match=f"row 3, column 'a': {message}"):
        fileio.read_covariates(path)
    path.write_text(f"unit_id,outcome\n1,0.5\n2,{token}\n")
    with pytest.raises(ParseError, match=f"row 3, column 'outcome': {message}"):
        fileio.read_outcomes(path)


@pytest.mark.parametrize("reader, text", [
    (fileio.read_covariates, "unit_id,a\n1,0.5\n7.0,1\n"),
    (fileio.read_outcomes, "unit_id,outcome\n1,0.5\n7.0,1\n"),
    (fileio.read_allocation, "unit_id,combination,A\n1,1,-1\n7.0,2,1\n"),
])
def test_unit_ids_must_be_integers(tmp_path, reader, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="row 3, column 'unit_id': cannot parse '7.0' as an integer"):
        reader(path)


@pytest.mark.parametrize("reader, header, good, bad", [
    (fileio.read_covariates, "a,b", "{i},0.5", "x"),
    (fileio.read_outcomes, "unit_id,outcome", "{i},0.5", "x"),
    (fileio.read_allocation, "unit_id,combination,A", "{i},1,-1", "x"),
])
def test_the_first_bad_cell_is_reported(tmp_path, reader, header, good, bad):
    # Row 3 holds a bad number and row 5 is short: row 3 is reported, as a
    # reader going cell by cell meets it first.  With the two swapped, row 3's
    # width is reported.
    rows = [good.format(i=i) for i in range(1, 5)]
    path = tmp_path / "table.csv"
    first = rows[1].rsplit(",", 1)[0] + "," + bad
    short = rows[3].rsplit(",", 1)[0]
    path.write_text("\n".join([header, rows[0], first, rows[2], short]) + "\n")
    with pytest.raises(ParseError, match=r"row 3, column '\w+': cannot parse 'x'"):
        reader(path)
    path.write_text("\n".join([header, rows[0], short, rows[2], first]) + "\n")
    with pytest.raises(ParseError, match="row 3 has"):
        reader(path)


def test_allocation_values_beyond_machine_integers_are_parse_errors(tmp_path):
    path = tmp_path / "alloc.csv"
    path.write_text("unit_id,combination,A\n1,99999999999,-1\n2,1,x\n")
    with pytest.raises(ParseError, match="row 2: combination 99999999999 outside 1..2"):
        fileio.read_allocation(path)
    path.write_text(f"unit_id,combination,A\n1,1,{10**30}\n2,2,1\n")
    with pytest.raises(ParseError, match="row 2: factor levels must be"):
        fileio.read_allocation(path)
