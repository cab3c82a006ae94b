"""Answers the benchmark checks TQP against, made without TQP's executor.

* TPC-H answers come from :class:`repro.baselines.RowEngine`, the
  row-at-a-time interpreter, run on the same data.  It takes ~15 s at
  SF 0.01, so its answers are stored as JSON beside the dataset cache, keyed
  by a digest of the ``.tbl`` files, the query texts and the row engine's
  source, and remade when that key changes or the file is missing.  Run this
  file to remake them by hand::

      python3 perfbench/oracle.py --scale-factor 0.01

* The row engine runs TQP's own optimized physical plan, so it cannot see a
  frontend or optimizer fault.  Q1, Q6 and the four parameterized serving
  shapes are therefore also recomputed here with plain numpy over the
  DataFrame columns, and the ``PREDICT`` shape with the fitted model's own
  ``predict`` over the review texts.

Answers are compared as sorted row multisets with a float tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import common

REL_TOL = 1e-6
ABS_TOL = 1e-6


# -- canonical rows ------------------------------------------------------------

def normalize_cell(value):
    """Canonical JSON-able value of one cell (NaN and None both mean NULL)."""
    if value is None:
        return None
    if isinstance(value, np.datetime64):
        return str(value.astype("datetime64[D]"))
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return None if math.isnan(value) else float(value)
    if isinstance(value, (int, np.integer)):
        return float(value)
    return str(value)


def frame_rows(frame) -> list[list]:
    columns = [frame[name] for name in frame.columns]
    return [[normalize_cell(column[i]) for column in columns]
            for i in range(frame.num_rows)]


def _sort_key(row) -> tuple:
    return tuple("~none" if cell is None
                 else (f"{cell:+.4f}" if isinstance(cell, float) else str(cell))
                 for cell in row)


def _cells_close(left, right) -> bool:
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return left == right


def mismatch(actual_rows: list, expected_rows: list) -> "str | None":
    """Why two row multisets differ, or ``None`` when they match."""
    if len(actual_rows) != len(expected_rows):
        return f"{len(actual_rows)} rows, expected {len(expected_rows)}"
    left = sorted(actual_rows, key=_sort_key)
    right = sorted(expected_rows, key=_sort_key)
    for index, (lrow, rrow) in enumerate(zip(left, right)):
        if len(lrow) != len(rrow):
            return f"{len(lrow)} columns, expected {len(rrow)}"
        for lcell, rcell in zip(lrow, rrow):
            if not _cells_close(lcell, rcell):
                return f"row {index}: {lrow} != expected {rrow}"
    return None


# -- row-engine answers for the 22 TPC-H queries --------------------------------

def dataset_directory(scale_factor: float, data_seed: int) -> Path:
    from repro.datasets.tpch.io import cache_directory
    return cache_directory(scale_factor, data_seed, root=common.DATA_ROOT)


def ensure_dataset(scale_factor: float, data_seed: int) -> Path:
    """Generate the ``.tbl`` cache if it is missing; returns its directory."""
    from repro.datasets import tpch
    directory = dataset_directory(scale_factor, data_seed)
    if not all((directory / f"{name}.tbl").is_file()
               for name in tpch.TABLE_NAMES):
        # cached_tables publishes by atomic rename: all files, or none.
        tpch.cached_tables(scale_factor, data_seed, root=common.DATA_ROOT)
    return directory


def _oracle_key(scale_factor: float, data_seed: int) -> str:
    from repro.baselines import rowengine
    from repro.datasets import tpch
    digest = common.Digest()
    for path in sorted(dataset_directory(scale_factor, data_seed).glob("*.tbl")):
        digest.file(path)
    for number in tpch.ALL_QUERY_IDS:
        digest.text(tpch.query(number, scale_factor))
    digest.file(Path(rowengine.__file__))
    return digest.hexdigest()


def _oracle_path(scale_factor: float, data_seed: int) -> Path:
    directory = dataset_directory(scale_factor, data_seed)
    return directory.parent / f"{directory.name}.rowengine.json"


def make_tpch_answers(scale_factor: float, data_seed: int) -> dict[int, list]:
    """Run the 22 queries on the row engine and store the answers."""
    from repro.baselines import RowEngine
    from repro.datasets import tpch
    from repro.frontend import Catalog, sql_to_physical

    ensure_dataset(scale_factor, data_seed)
    tables = tpch.cached_tables(scale_factor, data_seed, root=common.DATA_ROOT)
    catalog = Catalog()
    for name, frame in tables.items():
        catalog.register(name, frame)
    answers = {}
    for number in tpch.ALL_QUERY_IDS:
        plan = sql_to_physical(tpch.query(number, scale_factor), catalog)
        answers[number] = frame_rows(
            RowEngine(tables).execute_to_dataframe(plan))
    path = _oracle_path(scale_factor, data_seed)
    staging = path.with_suffix(".tmp")
    staging.write_text(json.dumps({
        "key": _oracle_key(scale_factor, data_seed),
        "answers": {str(number): rows for number, rows in answers.items()},
    }))
    staging.replace(path)
    return answers


def _stored_answers(scale_factor: float, data_seed: int) -> "dict | None":
    """The stored answers if the dataset and an up-to-date answer file exist."""
    from repro.datasets import tpch
    directory = dataset_directory(scale_factor, data_seed)
    path = _oracle_path(scale_factor, data_seed)
    if not path.is_file() or not all(
            (directory / f"{name}.tbl").is_file() for name in tpch.TABLE_NAMES):
        return None
    stored = json.loads(path.read_text())
    if stored.get("key") != _oracle_key(scale_factor, data_seed):
        return None
    return {int(number): rows for number, rows in stored["answers"].items()}


def tpch_answers(scale_factor: float, data_seed: int) -> dict[int, list]:
    """Stored row-engine answers, remade when missing or out of date.

    The dataset and the answers are made by a child process running this
    file, so the row engine's time and memory never reach the measured
    process (its peak resident set in particular).
    """
    answers = _stored_answers(scale_factor, data_seed)
    if answers is not None:
        return answers
    common.log(f"oracle: running the row engine at SF {scale_factor:g}")
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--scale-factor", repr(scale_factor), "--data-seed", str(data_seed)],
        cwd=common.ROOT, stdout=sys.stderr)
    answers = _stored_answers(scale_factor, data_seed)
    if completed.returncode != 0 or answers is None:
        raise common.SetupError(f"making the SF {scale_factor:g} oracle "
                                f"answers failed (exit {completed.returncode})")
    return answers


# -- numpy references ---------------------------------------------------------------

def _date(text: str) -> np.datetime64:
    return np.datetime64(text, "D")


def q1_rows(lineitem, cutoff: str, full: bool) -> list[list]:
    """Q1 (``full``) or the serving Q1 shape, grouped by flag and status."""
    mask = lineitem["l_shipdate"] <= _date(cutoff)
    flag = lineitem["l_returnflag"][mask]
    status = lineitem["l_linestatus"][mask]
    qty = lineitem["l_quantity"][mask]
    price = lineitem["l_extendedprice"][mask]
    disc = lineitem["l_discount"][mask]
    tax = lineitem["l_tax"][mask]
    rows = []
    for key in sorted(set(zip(flag, status))):
        group = (flag == key[0]) & (status == key[1])
        disc_price = price[group] * (1 - disc[group])
        if full:
            values = [qty[group].sum(), price[group].sum(), disc_price.sum(),
                      (disc_price * (1 + tax[group])).sum(),
                      qty[group].mean(), price[group].mean(),
                      disc[group].mean(), group.sum()]
        else:
            values = [qty[group].sum(), disc_price.sum(), disc[group].mean(),
                      group.sum()]
        rows.append([normalize_cell(v) for v in (*key, *values)])
    return rows


def q6_rows(lineitem, lo: float, hi: float, quantity: float) -> list[list]:
    """Q6 revenue over the 1994 ship dates for one discount/quantity window."""
    disc = lineitem["l_discount"]
    mask = ((lineitem["l_shipdate"] >= _date("1994-01-01"))
            & (lineitem["l_shipdate"] < _date("1995-01-01"))
            & (disc >= lo) & (disc <= hi)
            & (lineitem["l_quantity"] < quantity))
    revenue = (lineitem["l_extendedprice"][mask] * disc[mask]).sum()
    return [[normalize_cell(revenue)]]


def orders_window_rows(orders, start: str, stop: str) -> list[list]:
    dates = orders["o_orderdate"]
    priority = orders["o_orderpriority"][(dates >= _date(start))
                                         & (dates < _date(stop))]
    names, counts = np.unique(priority.astype(str), return_counts=True)
    return [[str(name), float(count)] for name, count in zip(names, counts)]


def prediction_rows(reviews, predicted: np.ndarray, cut: int) -> list[list]:
    """Per brand: reviews rated at least ``cut`` and the model's positives."""
    brands = reviews["brand"].astype(str)
    rating = reviews["rating"]
    rows = []
    for brand in sorted(set(brands)):
        group = brands == brand
        rows.append([brand, float((rating[group] >= cut).sum()),
                     float(predicted[group].sum())])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale-factor", type=float, default=0.01)
    parser.add_argument("--data-seed", type=int, default=19920101)
    args = parser.parse_args(argv)
    common.import_repro()
    make_tpch_answers(args.scale_factor, args.data_seed)
    print(_oracle_path(args.scale_factor, args.data_seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
