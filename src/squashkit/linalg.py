"""Dense complex linear algebra, the tolerances and report of every check, and checked records.

Matrices are plain ``numpy.ndarray`` of dtype complex128. Every routine here is
a pure function; none mutates its arguments. Eigensolves call numpy's
LAPACK ``eigh`` directly, so numpy stays the only dependency.
"""

from __future__ import annotations

import itertools
import reprlib
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import SquashkitError

#: Default of every check: Theorem 1 and the no-go rest on exact equalities, held to this.
TOL = 1e-9
#: One order looser, for values that went through a search, a solve or a matrix power.
LOOSE_TOL = 1e-8
#: A mu weight or a trace-deficiency eigenvalue this small is dropped as zero.
ZERO = 1e-12
#: Largest side of a matrix read from JSON, and largest dimension the command line accepts:
#: a sector's prod(n_i + 1), or the d * |G| of a symmetrization.
MAX_INPUT_DIM = 256


class CheckReport(NamedTuple):
    """The residual of each relation of one check, by name, and the tolerance they are held to."""

    residuals: dict
    tol: float

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))  # NaN wins

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def as_matrix(a) -> np.ndarray:
    """Coerce to a nonempty square complex matrix with finite entries."""
    try:
        m = np.asarray(a, dtype=complex)
    except ValueError as exc:  # ragged rows, or a string that is no number
        raise SquashkitError("expected a square matrix of numbers in rows of equal length") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise SquashkitError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise SquashkitError("matrix entries must be finite")
    return m


def is_hermitian(a: np.ndarray) -> bool:
    return frob(a - dagger(a)) <= TOL * max(1.0, frob(a))


class Checked:
    """First base of the records checked in ``__new__``: every other path to one calls the class."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):  # the named tuple's own, which _replace calls, skips __new__
        return cls(*fields)

    def __reduce__(self):  # protocols 0 and 1 skip __new__; a mapping proxy goes as a dict
        return type(self), tuple(dict(f) if type(f) is MappingProxyType else f for f in self)


def unitary_from_generator(a: np.ndarray, angle: float) -> np.ndarray:
    """exp(1j * angle * A) for Hermitian A, via the spectral decomposition."""
    m = as_matrix(a)
    if not is_hermitian(m):
        raise SquashkitError(f"matrix is not Hermitian within tol={TOL}")
    values, vectors = np.linalg.eigh(m)
    return (vectors * np.exp(1j * angle * values)) @ dagger(vectors)


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": d, "entries": [[re, im], ...]} row-major. The *_to_json trees
# hold each entries list as one complex array, which cli._json_text, the one renderer, writes.

def json_field(obj: dict, key: str, kind: type | None = None):
    """Field ``key`` of a JSON object, of exact type ``kind`` (int, list or dict) if given."""
    if type(obj) is not dict:
        raise SquashkitError(f"expected an object holding {key!r}, got {reprlib.repr(obj)}")
    if key not in obj:
        raise SquashkitError(f"missing field {key!r}")
    if kind is not None and type(obj[key]) is not kind:
        name = {int: "an integer", list: "a list", dict: "an object"}[kind]
        raise SquashkitError(f"{key!r} must be {name}, got {reprlib.repr(obj[key])}")
    return obj[key]


def _decode(entries: list, rows: int, cols: int, shape_name: str) -> np.ndarray:
    if rows < 1 or cols < 1:
        raise SquashkitError(f"{shape_name} is not a positive size")
    if max(rows, cols) > MAX_INPUT_DIM:  # refused before any entry is counted or decoded
        raise SquashkitError(f"{shape_name} has a side above the supported {MAX_INPUT_DIM}")
    if len(entries) != rows * cols:
        raise SquashkitError(f"expected {rows * cols} entries for {shape_name}, got {len(entries)}")
    try:
        values = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past any float
        raise SquashkitError("entries must be [re, im] pairs of numbers, none too large") from exc
    # complex() takes True as 1; a scan at C speed once every entry has parsed
    if bool in set(map(type, itertools.chain.from_iterable(entries))):
        raise SquashkitError("matrix entries must be numbers, not booleans")
    return values.reshape(rows, cols)


def matrix_to_json(a: np.ndarray) -> dict:
    m = np.asarray(a, dtype=complex)
    return {"dim": int(m.shape[0]), "entries": m.flatten()}


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = json_field(obj, "dim", int)
    return _decode(json_field(obj, "entries", list), dim, dim, f"dim {dim}")


def matrix_rect_to_json(a: np.ndarray) -> dict:
    m = np.asarray(a, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": m.flatten()}


def matrix_rect_from_json(obj: dict) -> np.ndarray:
    rows, cols = json_field(obj, "rows", int), json_field(obj, "cols", int)
    return _decode(json_field(obj, "entries", list), rows, cols, f"{rows}x{cols}")


def vector_to_json(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).flatten()
