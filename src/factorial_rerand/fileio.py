"""Readers and writers for the on-disk formats the command line uses.

CSV for tabular data (covariates, allocations, outcomes, reports), JSON for
structured records (manifests, thresholds, study summaries).  Readers
validate aggressively and raise ParseError with row and column context;
writers emit full-precision floats so a write/read round trip is exact.

Tables are converted a column at a time: one ``map(int, ...)`` or
``map(float, ...)`` over each column's cells, so a cell is parsed by exactly
the tokens ``int()`` and ``float()`` accept, and the checks (row widths,
finite values, combination range, factor levels, unit ids) run over whole
columns.  Only when a check fails is the table read again cell by cell, in
row order and then column order, to raise the error for the first bad cell;
so a bad number in row 3 is reported before a short row 5.  Writers put the
header through ``csv.writer``, which quotes names that need it, and each
body row through one join of ``repr``s: exactly the bytes ``csv.writer``
writes for the same row.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .assignment import Allocation
from .balance import BalanceProfile, CovariateMatrix
from .design import DesignSpec, Order, build_design_matrix
from .errors import ParseError

# A column of a table: its name, the type its cells convert to (``int`` or
# ``float``), and for a bounded integer column the largest value allowed
# (the smallest is 1).
_Column = tuple[str, type, int | None]


def _rows_of(path: Path) -> list[list[str]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: file is empty")
    delimiter = "\t" if "\t" in lines[0] else ","
    rows = [row for row in csv.reader(lines, delimiter=delimiter) if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    return rows


def _parse_float(token: str, path: Path, row: int, col: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{path}: row {row}, column {col!r}: cannot parse {token!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: row {row}, column {col!r}: non-finite value {token!r}")
    return value


def _parse_int(token: str, path: Path, row: int, col: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"{path}: row {row}, column {col!r}: cannot parse {token!r} as an integer"
        ) from None


def _columns(path: Path, body: list[list[str]], columns: Sequence[_Column]) -> list[list]:
    """The cells of ``body`` converted column by column, one list per column.

    Every row must have one field per column, every float must be finite,
    and a bounded column must lie in 1..its bound.  When that holds, each
    column is one ``map`` over its cells.  Otherwise ``_cell_by_cell`` finds
    the first bad cell.
    """
    if {*map(len, body)} <= {len(columns)}:
        try:
            converted = [list(map(kind, col)) for (_, kind, _), col in zip(columns, zip(*body))]
        except ValueError:
            pass
        else:
            # An empty body has no columns to check.
            if len(converted) == len(columns) and all(map(_passes, columns, converted)):
                return converted
    return _cell_by_cell(path, body, columns)


def _passes(column: _Column, values: list) -> bool:
    """Whether a converted column passes its checks: floats finite, bounded ints within 1..top."""
    _, kind, top = column
    if kind is float:
        return all(map(math.isfinite, values))
    return top is None or (min(values) >= 1 and max(values) <= top)


def _cell_by_cell(path: Path, body: list[list[str]], columns: Sequence[_Column]) -> list[list]:
    """``_columns``, one cell at a time: raises the ParseError of the first bad cell.

    Rows are read in order.  In each, the width is checked, then each cell
    is parsed in column order, then the bounded columns are checked.
    """
    converted: list[list] = [[] for _ in columns]
    for i, row in enumerate(body):
        if len(row) != len(columns):
            raise ParseError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(columns)}")
        for (name, kind, _), token, values in zip(columns, row, converted):
            parse = _parse_int if kind is int else _parse_float
            values.append(parse(token, path, i + 2, name))
        for (name, _, top), values in zip(columns, converted):
            if top is not None and not 1 <= values[-1] <= top:
                raise ParseError(f"{path}: row {i + 2}: {name} {values[-1]} outside 1..{top}")
    return converted


def _order_by_unit(
    ids: list[int], path: Path
) -> np.ndarray:
    n = len(ids)
    seen = sorted(ids)
    if seen != list(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - set(ids))
        if missing:
            raise ParseError(f"{path}: unit_id values are not 1..{n} (missing {missing[:5]})")
        raise ParseError(f"{path}: unit_id values are not 1..{n} (duplicates present)")
    return np.argsort(np.asarray(ids, dtype=np.int64), kind="stable")


def read_covariates(path: str | Path) -> CovariateMatrix:
    """Load a covariate table: header of names, one row of floats per unit.

    A leading ``unit_id`` column is accepted and used to order the rows;
    otherwise file order is unit order.
    """
    path = Path(path)
    rows = _rows_of(path)
    header = [h.strip() for h in rows[0]]
    if any(_is_number(h) for h in header):
        raise ParseError(f"{path}: first row must be a header of covariate names")
    has_ids = bool(header) and header[0] == "unit_id"
    names = header[1:] if has_ids else header
    if not names:
        raise ParseError(f"{path}: no covariate columns found")
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: no data rows")
    columns = [("unit_id", int, None)] * has_ids + [(name, float, None) for name in names]
    converted = _columns(path, body, columns)
    values = np.array(converted[has_ids:], dtype=np.float64).T
    if has_ids:
        values = values[_order_by_unit(converted[0], path)]
    return CovariateMatrix(entries=values, names=tuple(names))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _write_table(path: str | Path, header: Sequence[str], rows: Iterable[Iterable[Any]]) -> None:
    """A CSV table of ints and floats, as ``csv.writer`` writes it with ``repr`` of each cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


def write_covariates(path: str | Path, x: CovariateMatrix) -> None:
    _write_table(path, x.names, x.entries.tolist())


def write_allocation(path: str | Path, alloc: Allocation) -> None:
    """Persist an allocation: unit_id, combination index, and factor signs."""
    dm = build_design_matrix(alloc.spec)
    signs = dm.entries[alloc.combo_of_unit - 1]
    table = np.column_stack((np.arange(1, alloc.n + 1), alloc.combo_of_unit, signs))
    _write_table(path, ["unit_id", "combination", *alloc.spec.factor_names], table.tolist())


def read_allocation(path: str | Path, spec: DesignSpec | None = None) -> Allocation:
    """Load an allocation and verify it is internally consistent.

    The combination index is authoritative; the factor sign columns must
    agree with it under the design's row ordering.  Without an explicit
    ``spec`` the ordering is inferred by trying the standard orderings.
    """
    path = Path(path)
    rows = _rows_of(path)
    header = [h.strip() for h in rows[0]]
    if len(header) < 3 or header[0] != "unit_id" or header[1] != "combination":
        raise ParseError(
            f"{path}: expected header starting with unit_id, combination, then factor names"
        )
    factor_names = tuple(header[2:])
    k = len(factor_names)
    body = rows[1:]
    n = len(body)
    if spec is None:
        if n % (1 << k) != 0:
            raise ParseError(
                f"{path}: {n} units cannot split evenly over {1 << k} combinations"
            )
        r = n // (1 << k)
    else:
        if spec.k != k:
            raise ParseError(
                f"{path}: file has {k} factor columns, design expects {spec.k}"
            )
        if tuple(spec.factor_names) != factor_names:
            raise ParseError(
                f"{path}: factor columns {factor_names} do not match design "
                f"{tuple(spec.factor_names)}"
            )
        r = spec.r
        if n != spec.n:
            raise ParseError(f"{path}: {n} rows, design allocates {spec.n} units")

    columns = [("unit_id", int, None), ("combination", int, 1 << k)]
    converted = _columns(path, body, columns + [(name, int, None) for name in factor_names])
    levels = converted[2:]
    if not all({*col} <= {-1, 1} for col in levels):
        bad = next(i for i, row in enumerate(zip(*levels)) if not {*row} <= {-1, 1})
        raise ParseError(f"{path}: row {bad + 2}: factor levels must be +1 or -1")
    order_rows = _order_by_unit(converted[0], path)
    combos = np.array(converted[1], dtype=np.int32)[order_rows]
    signs = np.array(levels, dtype=np.int64).T[order_rows]

    candidates = (
        (spec,)
        if spec is not None
        else tuple(
            DesignSpec(k=k, r=r, order=o, factor_names=factor_names)
            for o in (Order.LEXICOGRAPHIC, Order.YATES)
        )
    )
    for cand in candidates:
        dm = build_design_matrix(cand)
        if np.array_equal(dm.entries[combos - 1], signs):
            return Allocation(spec=cand, combo_of_unit=combos)
    raise ParseError(
        f"{path}: factor sign columns disagree with the combination indices "
        "under any standard row ordering"
    )


def read_outcomes(path: str | Path, n: int | None = None) -> np.ndarray:
    """Load observed outcomes keyed by unit_id; returns y ordered by unit."""
    path = Path(path)
    rows = _rows_of(path)
    header = [h.strip() for h in rows[0]]
    if header != ["unit_id", "outcome"]:
        raise ParseError(f"{path}: expected header unit_id,outcome")
    body = rows[1:]
    if n is not None and len(body) != n:
        raise ParseError(f"{path}: {len(body)} outcome rows, expected {n}")
    ids, y = _columns(path, body, [("unit_id", int, None), ("outcome", float, None)])
    return np.array(y, dtype=np.float64)[_order_by_unit(ids, path)]


def write_outcomes(path: str | Path, y: np.ndarray) -> None:
    values = np.asarray(y, dtype=np.float64).tolist()
    _write_table(path, ["unit_id", "outcome"], enumerate(values, 1))


def write_balance_report(path: str | Path, profile: BalanceProfile) -> None:
    """Flat CSV of mean differences and distances, one statistic per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["effect", "covariate", "statistic", "value"])
        # Covariate names may need quoting, so the rows go through the writer.
        writer.writerows(
            (effect, covariate, statistic, repr(float(value)))
            for effect, covariate, statistic, value in profile.rows()
        )


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: str | Path, payload: dict[str, Any]) -> None:
    """Write ``payload`` as strict JSON; a NaN or infinity raises ValueError and writes nothing."""
    text = json.dumps(payload, indent=2, default=_jsonable, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path: str | Path) -> dict[str, Any]:
    path = Path(path)

    def refuse(token: str) -> float:  # NaN, Infinity or -Infinity, which Python's json reads
        raise ParseError(f"{path}: {token} is not a JSON number")

    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=refuse)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return payload


def write_thresholds(path: str | Path, thresholds: dict[str, float], p: int) -> None:
    """Persist calibrated thresholds with the covariate count they assume."""
    write_json(path, {"mode": "empirical", "p": p, "thresholds": dict(thresholds)})


def read_thresholds(path: str | Path) -> tuple[dict[str, float], int]:
    """Thresholds and covariate count as ``write_thresholds`` wrote them.

    Each threshold must be a JSON number and ``p`` a JSON integer of at
    least 1; a bool, a string, ``NaN``, ``Infinity`` or a fractional ``p`` is
    refused, not cast.
    """
    payload = read_json(path)
    thresholds, p = payload.get("thresholds"), payload.get("p")
    if (
        not isinstance(thresholds, dict)
        or not all(_json_number(v) for v in thresholds.values())
        or not (_json_number(p) and isinstance(p, int) and p >= 1)
    ):
        raise ParseError(
            f"{path}: expected keys 'thresholds' (name to number) and 'p' (an integer >= 1)"
        )
    return {k: float(v) for k, v in thresholds.items()}, p


def _json_number(value: Any) -> bool:
    """Whether a parsed JSON value is a finite number.

    ``json`` parses true and false as bools, and a number too large for a
    float, such as 1e999, as infinity.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def write_study_report(out_dir: str | Path, report: Any) -> list[Path]:
    """Write a study or independence report: JSON summary plus CSV tables."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "study.json"]
    write_json(written[0], report.to_dict())
    rows = getattr(report, "reduction_rows", lambda: [])()
    if rows:
        p = out / "reduction.csv"
        _write_dict_rows(p, rows)
        written.append(p)
    rows = getattr(report, "estimator_rows", lambda: [])()
    if rows:
        p = out / "estimators.csv"
        _write_dict_rows(p, rows)
        written.append(p)
    return written


def _write_dict_rows(path: Path, rows: list[dict[str, Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
