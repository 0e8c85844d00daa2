"""CSV input/output for category-coded tables.

Categories are stored as strings. On load, codes follow first-appearance
order and the cardinality is the number of distinct values seen, unless a
``<name>.domains`` sidecar (JSON mapping column name to its ordered label
list) declares the domain; then codes follow the sidecar and unobserved
categories stay representable. ``write_csv`` always emits the sidecar, so a
write/load round trip preserves codes and cardinalities exactly. For that,
column names and labels must be free of leading or trailing whitespace
(``load_csv`` strips every field), and each column's labels must be distinct
strings; ``write_csv`` refuses anything else before it creates a file.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .graph import _json_typed
from .table import CategoricalTable

__all__ = ["load_csv", "write_csv", "domains_path"]


def domains_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".domains")


def _read_domains(sidecar: Path) -> dict[str, list[str]]:
    """A sidecar's label list per column name.

    ``ValueError`` naming the sidecar, and the column where one is at fault,
    unless it is a JSON object whose every value is a list of distinct
    strings.
    """
    try:
        domains = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{sidecar}: {exc}") from None
    _json_typed(domains, dict, f"{sidecar}: the sidecar")
    for name, labels in domains.items():
        where = f"{sidecar}: column {name!r}"
        seen = set()
        for i, label in enumerate(_json_typed(labels, list, f"{where} domain")):
            if _json_typed(label, str, f"{where} label {i}") in seen:
                raise ValueError(f"{where} repeats the label {label!r}")
            seen.add(label)
    return domains


def load_csv(path: str | Path) -> CategoricalTable:
    """Read a comma-separated file (names in its first row) into coded columns.

    A ``.domains`` sidecar that is not a JSON object mapping column names to
    lists of distinct strings is refused with ``ValueError``.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = [c.strip() for c in rows[0]]
    body = rows[1:]
    width = len(names)
    for lineno, row in enumerate(body, start=2):
        if len(row) != width:
            raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {width}")

    sidecar = domains_path(path)
    domains = _read_domains(sidecar) if sidecar.exists() else {}
    columns = []
    cards = []
    for j, name in enumerate(names):
        raw = [row[j].strip() for row in body]
        if name in domains:
            order = domains[name]
            mapping = {lab: i for i, lab in enumerate(order)}
            try:
                codes = np.array([mapping[v] for v in raw], dtype=np.int64)
            except KeyError as exc:
                raise ValueError(
                    f"{path}: column {name!r} holds {exc.args[0]!r}, absent from its declared domain"
                ) from None
            card = len(order)
        else:
            mapping = {}
            codes = np.empty(len(raw), dtype=np.int64)
            for i, v in enumerate(raw):
                codes[i] = mapping.setdefault(v, len(mapping))
            card = max(len(mapping), 1)
        columns.append(codes)
        cards.append(card)
    return CategoricalTable(tuple(names), tuple(columns), tuple(cards))


def write_csv(
    table: CategoricalTable,
    path: str | Path,
    labels: Mapping[str, Sequence[str]] | None = None,
) -> None:
    """Write categories as strings plus a sidecar declaring every domain.

    ``ValueError`` naming the column, and the label where one is at fault,
    for a label list of the wrong length, or a name or label that would not
    load back.
    """
    path = Path(path)
    lab: dict[str, list[str]] = {}
    for name, card in zip(table.names, table.cards):
        if name != name.strip():
            raise ValueError(f"column {name!r}: the name has surrounding whitespace")
        if labels is not None and name in labels:
            got = list(labels[name])
            if len(got) != card:
                raise ValueError(f"column {name!r}: {len(got)} labels for cardinality {card}")
            seen = set()
            for label in got:
                if not isinstance(label, str):
                    raise ValueError(f"column {name!r}: label {label!r} is not a string")
                if label != label.strip():
                    raise ValueError(f"column {name!r}: label {label!r} has surrounding whitespace")
                if label in seen:
                    raise ValueError(f"column {name!r} repeats the label {label!r}")
                seen.add(label)
            lab[name] = got
        else:
            lab[name] = [str(i) for i in range(card)]
    # one gather per column; the writer still quotes each field and ends each row
    columns = [np.array(lab[name], dtype=object)[col].tolist() for name, col in zip(table.names, table.columns)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        writer.writerows(zip(*columns))
    domains_path(path).write_text(
        json.dumps({name: lab[name] for name in table.names}, indent=2, sort_keys=True) + "\n"
    )
