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
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .graph import _json_typed
from .table import CategoricalTable, _Handover

__all__ = ["load_csv", "write_csv", "domains_path"]

# rows read and coded at a time by load_csv
_BLOCK = 256


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

    Rows are read and coded ``_BLOCK`` at a time, so only one block's fields
    are ever held as strings. A ``.domains`` sidecar that is not a JSON
    object mapping column names to lists of distinct strings is refused with
    ``ValueError``. Refusals keep one order, whatever block they fall in: an
    empty file, then the first row of the wrong width, then the sidecar, then
    the first label absent from its declared domain in the leftmost column
    that holds one.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in header]
        width = len(names)
        sidecar = domains_path(path)
        try:
            domains = _read_domains(sidecar) if sidecar.exists() else {}
            bad_sidecar = None
        except (OSError, ValueError) as exc:  # refused once every row is known to be whole
            domains, bad_sidecar = {}, exc
        mappings = [{lab: i for i, lab in enumerate(domains[name])} if name in domains else {} for name in names]
        absent: dict[int, str] = {}  # column -> its first label outside the declared domain
        buffers = [np.empty(_BLOCK, dtype=np.int64) for _ in names]
        n = 0
        while block := list(islice(reader, _BLOCK)):
            if set(map(len, block)) != {width}:
                lineno, row = next((i, r) for i, r in enumerate(block, start=n + 2) if len(r) != width)
                deque(reader, maxlen=0)  # a row that does not parse, in any later block, is refused first
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {width}")
            end = n + len(block)
            for j, fields in enumerate(zip(*block)):
                buf, mapping = buffers[j], mappings[j]
                if end > buf.size:  # grown by half: each row is copied a bounded number of times, a third spare at most
                    grown = np.empty(max(end, buf.size * 3 // 2), dtype=np.int64)
                    grown[:n] = buf[:n]
                    buf = buffers[j] = grown
                coded = dict.fromkeys(fields)  # distinct raw fields, in row order
                for raw in coded:
                    label = raw.strip()
                    code = mapping.get(label)
                    if code is None:
                        if names[j] in domains:
                            absent.setdefault(j, label)
                            code = 0  # a placeholder: the load is refused once every row is read
                        else:
                            code = mapping[label] = len(mapping)
                    coded[raw] = code
                buf[n:end] = np.fromiter(map(coded.__getitem__, fields), dtype=np.int64, count=len(block))
            n = end
            del block  # its strings go before the next block is read
    if bad_sidecar is not None:
        raise bad_sidecar
    if absent:
        j = min(absent)
        raise ValueError(f"{path}: column {names[j]!r} holds {absent[j]!r}, absent from its declared domain")
    columns = []
    for j in range(width):
        columns.append(buffers[j][:n].copy())
        buffers[j] = None  # trimmed one column at a time, so the spare capacity goes as it is copied
    cards = [len(domains[name]) if name in domains else max(len(mapping), 1) for name, mapping in zip(names, mappings)]
    return CategoricalTable(tuple(names), _Handover(columns), tuple(cards))


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
