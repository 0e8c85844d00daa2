"""Ground-truth Bayesian networks and a BIF-subset parser.

The supported grammar covers the discrete networks of the public network
repositories: a ``network`` header block, ``variable`` blocks declaring
discrete domains, and ``probability`` blocks holding either a flat ``table``
or one row per parent configuration. ``//`` comments run to end of line.
Parse errors carry the offending line and column.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graph import PDag, _reaches

__all__ = ["BayesNet", "BifParseError", "parse_bif", "serialize_bif"]


class BifParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class BayesNet:
    """A discrete Bayesian network: DAG plus one CPT per node.

    ``cpts[v]`` has one row per joint parent configuration (first declared
    parent varying slowest) and one column per category of v; every row sums
    to one.
    """

    name: str
    nodes: tuple[str, ...]
    labels: dict[str, tuple[str, ...]]
    parents: dict[str, tuple[str, ...]]
    cpts: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        dag = self.dag()
        for v in self.nodes:
            k = len(self.labels[v])
            if len(set(self.labels[v])) < k:
                label = next(x for i, x in enumerate(self.labels[v]) if x in self.labels[v][:i])
                raise ValueError(f"value {label!r} listed twice for {v!r}")
            rows = math.prod(len(self.labels[p]) for p in self.parents[v])
            cpt = self.cpts[v]
            if cpt.shape != (rows, k):
                raise ValueError(f"{v}: CPT shape {cpt.shape} does not cover {rows} x {k}")
            # np.allclose(row sums, 1.0, atol=1e-9) a block of rows at a time; a NaN row fails it too
            for start in range(0, rows, _BLOCK_ROWS):
                dev = cpt[start:start + _BLOCK_ROWS].sum(axis=1) - 1.0
                if not (np.abs(dev, out=dev) <= 1e-9 + 1e-5).all():
                    raise ValueError(f"{v}: CPT rows must sum to 1")
            if cpt.size and cpt.min() < 0:  # every entry is finite here
                raise ValueError(f"{v}: negative probability")
        if not dag.is_acyclic():
            raise ValueError("parent structure has a cycle")

    def card(self, v: str) -> int:
        return len(self.labels[v])

    def dag(self) -> PDag:
        g = PDag(self.nodes)
        known = set(self.nodes)
        for v in self.nodes:
            for p in self.parents[v]:
                if p not in known:
                    raise ValueError(f"parent {p!r} of {v!r} is not a node")
                if g.has_directed(p, v):
                    raise ValueError(f"parent {p!r} listed twice for {v!r}")
                if g.has_edge(p, v):
                    raise ValueError(f"parent structure has a cycle between {p!r} and {v!r}")
                g.add_directed(p, v)
        return g

    def config_index(self, v: str, parent_codes: Sequence):
        """CPT row of v for parent codes given in declared order (ints or code vectors)."""
        return _config_index([self.card(p) for p in self.parents[v]], parent_codes)


# rows of a table that are built, checked or normalised at once: the scratch
# arrays stay a block's size, whatever the table's
_BLOCK_ROWS = 1 << 14


def _config_index(cards: Sequence[int], codes: Sequence):
    """Mixed-radix row index, first parent slowest; elementwise on code vectors."""
    idx = 0
    for k, code in zip(cards, codes):
        idx = idx * k + code
    return idx


# -- tokenizer ---------------------------------------------------------------

# a word: a run of anything but whitespace and punctuation that holds no
# comment start; every name serialize_bif writes must be one
_WORD = re.compile(r"(?:[^\s{}()\[\]|,;/]|/(?!/))+")
# a comment, one punctuation mark, or a word
_TOKEN = re.compile(rf"(//[^\n]*)|[{{}}()\[\]|,;]|{_WORD.pattern}")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN.finditer(text):
        start = m.start()
        breaks = text.count("\n", pos, start)
        if breaks:
            line += breaks
            line_start = text.rfind("\n", pos, start) + 1
        pos = m.end()
        if m.group(1) is None:
            yield _Token(m.group(), line, start - line_start + 1)


class _TokenStream:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._pos = 0

    def peek(self) -> _Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self, what: str = "token") -> _Token:
        tok = self.peek()
        if tok is None:
            last = self._tokens[-1] if self._tokens else _Token("", 1, 1)
            raise BifParseError(f"unexpected end of input, expected {what}", last.line, last.col)
        self._pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(repr(text))
        if tok.text != text:
            raise BifParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def until(self, end: str, what: str) -> Iterator[_Token]:
        """The tokens before the next ``end`` (consumed), commas skipped."""
        while (tok := self.next(what)).text != end:
            if tok.text != ",":
                yield tok

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)


def _number(tok: _Token) -> float:
    try:
        value = float(tok.text)
    except ValueError:
        raise BifParseError(f"expected a number, found {tok.text!r}", tok.line, tok.col) from None
    if value < 0:
        raise BifParseError(f"negative probability {tok.text}", tok.line, tok.col)
    return value


# -- parser ------------------------------------------------------------------


def parse_bif(text: str) -> BayesNet:
    """Parse the BIF subset into a structurally validated network."""
    ts = _TokenStream(text)
    name = "network"
    decl: dict[str, _Token] = {}  # variable name -> its name token, in declaration order
    labels: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    children: dict[str, list[str]] = {}  # the reverse of parents, for the cycle check
    cpts: dict[str, np.ndarray] = {}

    while not ts.at_end():
        tok = ts.next("block keyword")
        if tok.text == "network":
            name = ts.next("network name").text
            ts.expect("{")
            depth = 1
            while depth:
                inner = ts.next("'}'")
                depth += {"{": 1, "}": -1}.get(inner.text, 0)
        elif tok.text == "variable":
            _parse_variable(ts, decl, labels)
        elif tok.text == "probability":
            _parse_probability(ts, labels, parents, children, cpts)
        else:
            raise BifParseError(
                f"expected 'network', 'variable' or 'probability', found {tok.text!r}",
                tok.line,
                tok.col,
            )

    for v, tok in decl.items():
        if v not in cpts:
            raise BifParseError(f"no probability block for variable {v!r}", tok.line, tok.col)
    try:
        return BayesNet(name=name, nodes=tuple(decl), labels=labels, parents=parents, cpts=cpts)
    except ValueError as exc:
        raise BifParseError(str(exc), 1, 1) from exc


def _parse_variable(ts: _TokenStream, decl: dict, labels: dict) -> None:
    name_tok = ts.next("variable name")
    v = name_tok.text
    if v in labels:
        raise BifParseError(f"variable {v!r} declared twice", name_tok.line, name_tok.col)
    ts.expect("{")
    ts.expect("type")
    ts.expect("discrete")
    ts.expect("[")
    k_tok = ts.next("cardinality")
    try:
        k = int(k_tok.text)
    except ValueError:
        raise BifParseError(f"expected an integer cardinality, found {k_tok.text!r}", k_tok.line, k_tok.col) from None
    if k < 1:
        raise BifParseError("cardinality must be >= 1", k_tok.line, k_tok.col)
    ts.expect("]")
    ts.expect("{")
    cats: dict[str, None] = {}  # in listed order
    for tok in ts.until("}", "category label or '}'"):
        if tok.text in cats:
            raise BifParseError(f"value {tok.text!r} listed twice for {v!r}", tok.line, tok.col)
        cats[tok.text] = None
    ts.expect(";")
    ts.expect("}")
    if len(cats) != k:
        raise BifParseError(
            f"variable {v!r} declares {k} values but lists {len(cats)}", name_tok.line, name_tok.col
        )
    decl[v] = name_tok
    labels[v] = tuple(cats)


def _parse_probability(ts: _TokenStream, labels: dict, parents: dict, children: dict, cpts: dict) -> None:
    open_tok = ts.expect("(")
    child_tok = ts.next("variable name")
    child = child_tok.text
    if child not in labels:
        raise BifParseError(f"unknown variable {child!r}", child_tok.line, child_tok.col)
    if child in cpts:
        raise BifParseError(f"duplicate probability block for {child!r}", child_tok.line, child_tok.col)
    par: list[str] = []
    tok = ts.next("'|' or ')'")
    if tok.text == "|":
        for p_tok in ts.until(")", "parent name"):
            p = p_tok.text
            if p not in labels:
                raise BifParseError(f"unknown variable {p!r}", p_tok.line, p_tok.col)
            if p == child:
                raise BifParseError(f"self-loop on {child!r}", p_tok.line, p_tok.col)
            if p in par:
                raise BifParseError(f"parent {p!r} listed twice for {child!r}", p_tok.line, p_tok.col)
            # p -> child closes a cycle when child already reaches p
            if _reaches(child, p, lambda v: children.get(v, ()), lambda v: parents.get(v, ())):
                between = f" between {p!r} and {child!r}" if child in parents[p] else ""
                raise BifParseError(f"parent structure has a cycle{between}", p_tok.line, p_tok.col)
            par.append(p)
        if not par:
            raise BifParseError("empty parent list", open_tok.line, open_tok.col)
    elif tok.text != ")":
        raise BifParseError(f"expected '|' or ')', found {tok.text!r}", tok.line, tok.col)

    k = len(labels[child])
    cards = [len(labels[p]) for p in par]
    rows = math.prod(cards)
    cpt = np.full((rows, k), np.nan)
    seen = np.zeros(rows, dtype=bool)

    ts.expect("{")
    while True:
        tok = ts.next("'table', '(' or '}'")
        if tok.text == "}":
            break
        if tok.text == "table":
            values = _read_values(ts)
            if len(values) != rows * k:
                raise BifParseError(
                    f"table for {child!r} lists {len(values)} values, expected {rows * k}",
                    tok.line,
                    tok.col,
                )
            cpt = np.asarray(values, dtype=np.float64).reshape(rows, k)
            seen[:] = True
        elif tok.text == "(":
            codes: list[int] = []
            for lab in ts.until(")", "parent value or ')'"):
                if len(codes) >= len(par):
                    raise BifParseError(
                        f"row for {child!r} lists more values than parents", lab.line, lab.col
                    )
                p = par[len(codes)]
                if lab.text not in labels[p]:
                    raise BifParseError(f"{lab.text!r} is not a value of {p!r}", lab.line, lab.col)
                codes.append(labels[p].index(lab.text))
            if len(codes) != len(par):
                raise BifParseError(
                    f"row for {child!r} lists {len(codes)} parent values, expected {len(par)}",
                    tok.line,
                    tok.col,
                )
            values = _read_values(ts)
            if len(values) != k:
                raise BifParseError(
                    f"row for {child!r} lists {len(values)} probabilities, expected {k}",
                    tok.line,
                    tok.col,
                )
            idx = _config_index(cards, codes)
            if seen[idx]:
                raise BifParseError(f"duplicate row for {child!r}", tok.line, tok.col)
            seen[idx] = True
            cpt[idx] = values
        else:
            raise BifParseError(f"expected 'table', '(' or '}}', found {tok.text!r}", tok.line, tok.col)

    if not seen.all():
        raise BifParseError(
            f"probability block for {child!r} covers {int(seen.sum())} of {rows} parent configurations",
            open_tok.line,
            open_tok.col,
        )
    sums = cpt.sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= 1e-6):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise BifParseError(
            f"row {bad} for {child!r} sums to {sums[bad]:.8f}, not 1", open_tok.line, open_tok.col
        )
    parents[child] = tuple(par)
    for p in par:
        children.setdefault(p, []).append(child)
    cpt /= sums[:, None]  # exact row normalization after the tolerance check
    cpts[child] = cpt


def _read_values(ts: _TokenStream) -> list[float]:
    return [_number(tok) for tok in ts.until(";", "number or ';'")]


# -- serializer ---------------------------------------------------------------


def serialize_bif(net: BayesNet) -> str:
    """Canonical text form; parsing it back reproduces the network.

    ``ValueError`` names the first network name, node name or label that
    would not read back as one word of the tokenizer: one that is empty or
    holds whitespace, one of ``{}()[]|,;``, or ``//``.
    """
    names = [("network name", net.name, "")] + [("node", v, "") for v in net.nodes]
    names += [("label", label, f" of node {v!r}") for v in net.nodes for label in net.labels[v]]
    for what, text, where in names:
        if not _WORD.fullmatch(text):
            raise ValueError(f"{what} {text!r}{where} is not one BIF word")
    out = [f"network {net.name} {{\n}}\n"]
    for v in net.nodes:
        cats = ", ".join(net.labels[v])
        out.append(
            f"variable {v} {{\n  type discrete [ {net.card(v)} ] {{ {cats} }};\n}}\n"
        )
    for v in net.nodes:
        par = net.parents[v]
        cpt = net.cpts[v]
        if not par:
            vals = ", ".join(map(repr, cpt[0].tolist()))
            out.append(f"probability ( {v} ) {{\n  table {vals};\n}}\n")
            continue
        head = ", ".join(par)
        lines = [f"probability ( {v} | {head} ) {{"]
        # product() steps the last parent fastest: the CPT row order
        for cfg, row in zip(itertools.product(*(net.labels[p] for p in par)), cpt):
            lines.append(f"  ( {', '.join(cfg)} ) {', '.join(map(repr, row.tolist()))};")
        lines.append("}\n")
        out.append("\n".join(lines))
    return "\n".join(out)


def exact_joint(net: BayesNet) -> tuple[np.ndarray, list[str]]:
    """Full joint distribution as an array indexed by node order; small nets only."""
    cards = [net.card(v) for v in net.nodes]
    total = int(np.prod(cards))
    if total > 2_000_000:
        raise ValueError("joint distribution too large to enumerate")
    pos = {v: i for i, v in enumerate(net.nodes)}
    joint = np.zeros(cards, dtype=np.float64)
    for flat in range(total):
        codes = np.unravel_index(flat, cards)
        p = 1.0
        for v in net.nodes:
            cfg = net.config_index(v, tuple(int(codes[pos[q]]) for q in net.parents[v]))
            p *= net.cpts[v][cfg, int(codes[pos[v]])]
        joint[codes] = p
    return joint, list(net.nodes)
