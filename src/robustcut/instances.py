"""Problem instances: weighted graphs (Max-Cut, Max-DiCut) and Max k-AllEqual
clause systems, plus cut/assignment evaluators and file formats.

JSON schema (1-based vertex ids on disk, 0-based in memory)::

    {"kind": "maxcut",  "n": 5, "edges": [[1, 2, 1.0], ...]}
    {"kind": "dicut",   "n": 3, "edges": [[1, 2, 1.0], ...]}      # [i, j, w] = arc i -> j
    {"kind": "allequal","n": 4, "clauses": [{"literals": [1, -2, 3], "weight": 1.0}, ...]}

An optional top-level ``"signed": true`` permits negative weights (used by the
shifted-bound evaluators); otherwise negative weights are a domain error.

Plain-text edge lists (``i j w`` per line, ``#`` comments) are accepted for the
two graph kinds.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAXCUT = "maxcut"
DICUT = "dicut"
ALLEQUAL = "allequal"
KINDS = (MAXCUT, DICUT, ALLEQUAL)

# the solver builds dense ncols x ncols weight matrices C(w), 2 GiB of
# float64 each at this many entries; an instance whose matrix would have more
# is refused when it is built
MAX_DENSE_ENTRIES = 2 ** 28


class ParseError(ValueError):
    """Malformed instance text/JSON; message names the offending field."""


class DomainError(ValueError):
    """Structurally valid input with out-of-domain values."""


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    ``edges`` holds ``(i, j, w)`` with 0-based endpoints; unordered with
    ``i < j`` for maxcut, ordered (arc ``i -> j``) for dicut.  ``clauses``
    holds ``(literals, w)`` where each literal is ``(variable, sign)`` with a
    0-based variable index and sign in {-1, +1}.  ``arity`` is the common
    clause length k (0 for the graph kinds).

    The index arrays derived from ``edges`` or ``clauses`` (:meth:`endpoints`,
    :attr:`clause_arrays`, :attr:`pair_table`, :attr:`colour_classes`) are
    built on first use, kept on the instance and read-only; they are not part
    of its value.
    """

    n: int
    kind: str
    edges: tuple[tuple[int, int, float], ...] = ()
    clauses: tuple[tuple[tuple[tuple[int, int], ...], float], ...] = ()
    arity: int = 0
    signed: bool = False

    @property
    def reference(self) -> bool:
        """True when factor column 0 is a reference direction u0 (dicut): it
        orients the rounding, vertex i is column i+1, and the objective is not
        flip-symmetric.  Otherwise column i is vertex/variable i."""
        return self.kind == DICUT

    @property
    def ncols(self) -> int:
        """Number of factor columns: ``n``, plus one for the reference."""
        return self.n + self.reference

    @property
    def m(self) -> int:
        """Number of weighted terms (edges, arcs, or clauses)."""
        return len(self.clauses) if self.kind == ALLEQUAL else len(self.edges)

    def nominal_weights(self) -> np.ndarray:
        if self.kind == ALLEQUAL:
            return np.array([w for _, w in self.clauses], dtype=float)
        return np.array([w for _, _, w in self.edges], dtype=float)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint index arrays (graph kinds only; read-only, built once)."""
        if self.kind == ALLEQUAL:
            raise DomainError("endpoints(): instance kind is allequal")
        return self._endpoints

    @functools.cached_property
    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        i = _frozen(np.array([e[0] for e in self.edges], dtype=int))
        j = _frozen(np.array([e[1] for e in self.edges], dtype=int))
        return i, j

    @functools.cached_property
    def clause_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(vars, signs)``: m x k variable indices and +-1.0 literal signs
        in literal order (allequal only).  Read-only, built once."""
        if self.kind != ALLEQUAL:
            raise DomainError(f"clause_arrays: instance kind is {self.kind}")
        V = np.array([[v for v, _ in lits] for lits, _ in self.clauses], dtype=int)
        S = np.array([[s for _, s in lits] for lits, _ in self.clauses], dtype=float)
        return _frozen(V), _frozen(S)

    @functools.cached_property
    def pair_table(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(c0, term, a, b, beta)``: each term's relaxed coefficient as an
        affine function of the Gram matrix of the factor columns u,
        ``coef[t] = c0 + sum of beta[p] <u_a[p], u_b[p]>`` over the pairs p
        with ``term[p] == t``, in the column layout of :attr:`reference`.
        Read-only, built once."""
        if self.kind == MAXCUT:
            i, j = self.endpoints()
            return _pair_table(0.5, np.arange(self.m), i, j, np.full(self.m, -0.5))
        if self.kind == DICUT:
            i, j = self.endpoints()
            ref = np.zeros(self.m, dtype=int)
            q = np.full(self.m, 0.25)
            return _pair_table(0.25, np.tile(np.arange(self.m), 3),
                               np.concatenate([ref, ref, i + 1]),
                               np.concatenate([i + 1, j + 1, j + 1]),
                               np.concatenate([q, -q, -q]))
        V, S = self.clause_arrays
        k = self.arity
        ra, rb = np.triu_indices(k)
        beta = (2.0 - (ra == rb)) * S[:, ra] * S[:, rb] / (k * k)
        return _pair_table(0.0, np.repeat(np.arange(self.m), len(ra)),
                           V[:, ra].ravel(), V[:, rb].ravel(), beta.ravel())

    @functools.cached_property
    def colour_classes(self) -> tuple[np.ndarray, ...]:
        """The factor columns split into classes that share no pair of
        :attr:`pair_table` with ``a != b``: a greedy colouring, in column
        order, of the graph those pairs draw on the columns.  Columns of one
        class do not interact in the relaxed objective, so a block-coordinate
        sweep may update a whole class at once.  The classes depend on the
        pairs only, never on the weights.  Each class lists its columns in
        increasing order; classes come in colour order.  Read-only, built
        once."""
        _, _, a, b, _ = self.pair_table
        ncols = self.ncols
        off = a != b
        nbrs: list[set[int]] = [set() for _ in range(ncols)]
        for x, y in zip(a[off].tolist(), b[off].tolist()):
            nbrs[x].add(y)
            nbrs[y].add(x)
        colour = [0] * ncols
        for v in range(ncols):
            taken = {colour[u] for u in nbrs[v] if u < v}
            c = 0
            while c in taken:
                c += 1
            colour[v] = c
        colours = np.array(colour)
        return tuple(_frozen(np.flatnonzero(colours == c))
                     for c in range(colours.max() + 1))


def _pair_table(c0: float, *arrays: np.ndarray) -> tuple:
    return (c0, *(_frozen(x) for x in arrays))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_n(n: int, kind: str) -> None:
    """A DomainError naming ``n`` unless it is a positive integer whose dense
    ncols x ncols weight matrix (:func:`sdp._weight_matrix`) has at most
    :data:`MAX_DENSE_ENTRIES` entries."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n: expected positive integer, got {n!r}")
    limit = math.isqrt(MAX_DENSE_ENTRIES) - (kind == DICUT)
    if n > limit:
        raise DomainError(f"n: {n} exceeds {limit}, the largest n whose dense "
                          f"weight matrix has at most {MAX_DENSE_ENTRIES} entries")


def graph_instance(n: int, kind: str, edges: Iterable[tuple[int, int, float]],
                   signed: bool = False) -> Instance:
    """Build a validated maxcut/dicut instance from 0-based edges."""
    if kind not in (MAXCUT, DICUT):
        raise DomainError(f"kind: expected maxcut or dicut, got {kind!r}")
    _check_n(n, kind)
    seen: set[tuple[int, int]] = set()
    out = []
    for idx, (i, j, w) in enumerate(edges):
        i, j, w = int(i), int(j), float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError(f"edges[{idx}]: endpoint out of range for n={n}")
        if i == j:
            raise DomainError(f"edges[{idx}]: self-loop ({i}, {j})")
        if kind == MAXCUT and i > j:
            i, j = j, i
        if (i, j) in seen:
            raise DomainError(f"edges[{idx}]: duplicate edge ({i}, {j})")
        seen.add((i, j))
        if w < 0 and not signed:
            raise DomainError(f"edges[{idx}]: negative weight {w} without signed flag")
        out.append((i, j, w))
    return Instance(n=n, kind=kind, edges=tuple(out), signed=signed)


def allequal_instance(n: int, clauses: Iterable[tuple[Sequence[int], float]],
                      signed: bool = False) -> Instance:
    """Build a validated allequal instance.

    ``clauses`` yields ``(literals, weight)`` with literals as signed 1-based
    variable ids (the on-disk convention): ``-3`` means "not x3".
    """
    _check_n(n, ALLEQUAL)
    out = []
    arity = 0
    for idx, (lits, w) in enumerate(clauses):
        w = float(w)
        if w < 0 and not signed:
            raise DomainError(f"clauses[{idx}]: negative weight {w} without signed flag")
        if len(lits) < 2:
            raise DomainError(f"clauses[{idx}]: arity {len(lits)} < 2")
        if arity == 0:
            arity = len(lits)
        elif len(lits) != arity:
            raise DomainError(f"clauses[{idx}]: arity {len(lits)} != {arity} (must be constant)")
        norm = []
        vars_seen = set()
        for lit in lits:
            lit = int(lit)
            if lit == 0 or abs(lit) > n:
                raise DomainError(f"clauses[{idx}]: literal {lit} out of range for n={n}")
            v = abs(lit) - 1
            if v in vars_seen:
                raise DomainError(f"clauses[{idx}]: repeated variable {abs(lit)}")
            vars_seen.add(v)
            norm.append((v, 1 if lit > 0 else -1))
        out.append((tuple(norm), w))
    if not out:
        raise DomainError("clauses: empty clause list")
    return Instance(n=n, kind=ALLEQUAL, clauses=tuple(out), arity=arity, signed=signed)


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise ParseError("instance: expected a JSON object")
    kind = d.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind: expected one of {KINDS}, got {kind!r}")
    if "n" not in d:
        raise ParseError("n: missing")
    n = _integer(d["n"], "n")
    signed = bool(d.get("signed", False))
    if kind == ALLEQUAL:
        raw = d.get("clauses")
        if not isinstance(raw, list):
            raise ParseError("clauses: missing or not a list")
        cl = []
        for idx, c in enumerate(raw):
            if not isinstance(c, dict) or "literals" not in c or "weight" not in c:
                raise ParseError(f"clauses[{idx}]: expected object with literals and weight")
            if not isinstance(c["literals"], list):
                raise ParseError(f"clauses[{idx}]: literals must be a list of integers")
            cl.append(([_integer(lit, f"clauses[{idx}]") for lit in c["literals"]],
                       _finite_weight(c["weight"], f"clauses[{idx}].weight")))
        return allequal_instance(n, cl, signed=signed)
    raw = d.get("edges")
    if not isinstance(raw, list):
        raise ParseError("edges: missing or not a list")
    edges = []
    for idx, e in enumerate(raw):
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise ParseError(f"edges[{idx}]: expected [i, j, w]")
        i, j = _integer(e[0], f"edges[{idx}]") - 1, _integer(e[1], f"edges[{idx}]") - 1
        edges.append((i, j, _finite_weight(e[2], f"edges[{idx}]")))
    return graph_instance(n, kind, edges, signed=signed)


def _integer(value, where: str) -> int:
    """`value` as an int; a ParseError naming `where` unless it is an integral
    JSON number (int() would truncate 3.5, parse "3" and accept true)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"{where}: not an integer ({value!r})")
    return int(value)


def _finite_weight(value, where: str) -> float:
    """`value` as a float; a ParseError naming `where` unless it is a finite
    number (JSON text and float() both accept NaN and Infinity; an integer
    too large for a float reads as inf)."""
    try:
        w = float(value)
    except OverflowError:
        w = math.inf
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: weight is not a number ({value!r})") from exc
    if not math.isfinite(w):
        raise ParseError(f"{where}: weight is not a finite number ({w})")
    return w


def parse_instance(text: str) -> Instance:
    """Parse an instance from JSON text."""
    try:
        d = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond 4,300 digits
        raise ParseError(f"instance JSON: {exc}") from exc
    return instance_from_dict(d)


def parse_edge_list(text: str, kind: str = MAXCUT) -> Instance:
    """Parse a plain ``i j w`` edge list (1-based ids, ``#`` comments)."""
    edges = []
    n = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'i j w', got {body!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        w = _finite_weight(parts[2], f"line {lineno}: edges[{len(edges)}]")
        if i < 1 or j < 1:
            raise ParseError(f"line {lineno}: vertex ids are 1-based, got {i}, {j}")
        n = max(n, i, j)
        edges.append((i - 1, j - 1, w))
    if not edges:
        raise ParseError("edge list: no edges")
    return graph_instance(n, kind, edges)


def instance_to_dict(inst: Instance) -> dict:
    d: dict = {"kind": inst.kind, "n": inst.n}
    if inst.kind == ALLEQUAL:
        d["clauses"] = [
            {"literals": [s * (v + 1) for v, s in lits], "weight": w}
            for lits, w in inst.clauses
        ]
    else:
        d["edges"] = [[i + 1, j + 1, w] for i, j, w in inst.edges]
    if inst.signed:
        d["signed"] = True
    return d


def instance_to_json(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True, indent=2) + "\n"


def read_text(path: str, data: bytes | None = None) -> str:
    """The UTF-8 text of the file at `path` (a ParseError naming it if it is
    not UTF-8), line ends translated as a text-mode :func:`open` does.  `data`
    is the file's bytes when the caller has already read them."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_instance(path: str, data: bytes | None = None) -> Instance:
    """Load an instance from a ``.json`` file or a plain edge-list file;
    `data` is the file's bytes when the caller has already read them."""
    text = read_text(path, data)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_instance(text)
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def check_cut(inst: Instance, y: np.ndarray) -> np.ndarray:
    """A +-1 vector of shape (n,), or a block of them of shape (B, n), as ints."""
    y = np.asarray(y, dtype=int)
    if y.shape[-1:] != (inst.n,) or y.ndim > 2:
        raise DomainError(f"cut: expected shape ({inst.n},) or (B, {inst.n}), got {y.shape}")
    if not np.all(np.abs(y) == 1):
        raise DomainError("cut: entries must be +-1")
    return y


def _weights(inst: Instance, w) -> np.ndarray:
    if w is None:
        return inst.nominal_weights()
    w = np.asarray(w, dtype=float)
    if w.shape != (inst.m,):
        raise DomainError(f"weights: expected shape ({inst.m},), got {w.shape}")
    return w


def _value(inst: Instance, y: np.ndarray, w) -> float:
    """The objective of one cut/assignment y at weights w (nominal if None)."""
    if np.ndim(y) != 1:
        raise DomainError(f"cut: expected shape ({inst.n},), got {np.shape(y)}")
    return float(term_coefficients(inst, y) @ _weights(inst, w))


def cut_value(inst: Instance, y: np.ndarray, w=None) -> float:
    """Total weight of edges crossing the cut: sum_{(i,j)} w_ij (1 - y_i y_j)/2."""
    if inst.kind != MAXCUT:
        raise DomainError(f"cut_value: instance kind is {inst.kind}")
    return _value(inst, y, w)


def dicut_value(inst: Instance, y: np.ndarray, w=None) -> float:
    """Total weight of arcs i -> j with y_i = +1 and y_j = -1."""
    if inst.kind != DICUT:
        raise DomainError(f"dicut_value: instance kind is {inst.kind}")
    return _value(inst, y, w)


def allequal_value(inst: Instance, x: np.ndarray, w=None) -> float:
    """Total weight of satisfied all-equal clauses under assignment x in {-1,+1}^n."""
    if inst.kind != ALLEQUAL:
        raise DomainError(f"allequal_value: instance kind is {inst.kind}")
    return _value(inst, x, w)


def term_coefficients(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Per-term contribution coefficients of a fixed cut/assignment.

    Entry e is the factor multiplying w_e in the objective: (1 - y_i y_j)/2
    for maxcut edges, the forward-arc indicator for dicut, the satisfied
    indicator for allequal (all literal values s * y_v of the clause agree).
    Always in [0, 1].  A (B, n) block of sign vectors gives a (B, m) block,
    row by row the same numbers.  Each kind works in integers and makes one
    C-ordered float copy (a gather ``y[..., i]`` alone is Fortran-ordered).
    """
    y = check_cut(inst, y)
    if inst.kind == MAXCUT:
        i, j = inst.endpoints()
        return (1 - y[..., i] * y[..., j]).astype(float, order="C") / 2.0
    if inst.kind == DICUT:
        i, j = inst.endpoints()
        return ((1 + y[..., i]) * (1 - y[..., j])).astype(float, order="C") / 4.0
    V, S = inst.clause_arrays
    lit = S * y[..., V]
    return np.all(lit == lit[..., :1], axis=-1).astype(float, order="C")


def total_weight(inst: Instance, w=None) -> float:
    return float(np.sum(_weights(inst, w)))
