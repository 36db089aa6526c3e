"""The immutable :class:`Problem` value object and its fluent builder.

A ``Problem`` is everything needed to reproduce one assignment
instance: the object catalogue (points + capacities), the preference
cohort (weights + priorities + capacities), the solver selection
(named method + keyword options) and the index/storage settings.  It
validates on construction (:class:`~repro.errors.InvalidProblemError`
/ :class:`~repro.errors.UnknownSolverError`; NaN and infinite values
are refused), is canonically normalized (all-1 capacity and priority
vectors collapse to ``None``), and round-trips through versioned
dict/JSON serde so instances can cross a process boundary.

Catalogues are interned per process: every ``Problem`` over the same
points and capacities shares one :class:`Catalogue` record (validated
and fingerprinted once, its JSON text encoded once), held in a
:data:`CATALOGUE_SLOTS`-entry LRU.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Any

from pathlib import Path

import numpy as np

from repro.api.serde import (
    PROBLEM_SCHEMA,
    PROBLEM_SCHEMAS,
    SCHEMA_KEY,
    canonical_members,
    check_payload,
    from_json,
    to_canonical_json,
)
from repro.core import validate_solver_options
from repro.data.instances import (
    FunctionSet,
    ObjectSet,
    Point,
    catalogue_fingerprint,
)
from repro.errors import InvalidProblemError, SerdeError
from repro.planner import AUTO_METHOD, Plan, explicit_plan, plan_instance

_OPTION_TYPES = (bool, int, float, str, type(None))

#: How many distinct catalogues a process keeps interned; the least
#: recently used record beyond that leaves the table (problems that
#: hold it keep it alive).
CATALOGUE_SLOTS = 8

#: ``np.array(points)`` dtypes that take the vector conversion path.
_COLUMN_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def _point_tuple(row: Sequence[float]) -> Point:
    return tuple(float(x) for x in row)


def _encode(section: Any) -> bytes:
    # Canonical JSON escapes every non-ASCII character, so its text
    # and its UTF-8 bytes are the same ASCII.
    return to_canonical_json(section).encode("ascii")


def _require_finite(values: Sequence[float], what: str) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidProblemError(f"{what} must be finite, got {tuple(values)}")


class Catalogue:
    """One validated object catalogue, shared by every :class:`Problem`
    over it: the read-only float64 point matrix, the point tuples, the
    normalized capacities, the frozen :class:`ObjectSet` (fingerprint
    preset) and, once a problem over it is first digested, the
    canonical text of the ``"objects"`` section."""

    def __init__(
        self,
        fingerprint: str,
        matrix: np.ndarray,
        capacities: tuple[int, ...] | None,
    ) -> None:
        self.matrix = matrix
        self.points: tuple[Point, ...] = tuple(map(tuple, matrix.tolist()))
        self.capacities = capacities
        self.object_set = ObjectSet.from_validated(self.points, capacities, matrix)
        self.object_set._repro_fingerprint = fingerprint
        self._text: bytes | None = None

    def section(self) -> dict:
        """The ``"objects"`` section of :meth:`Problem.to_dict`."""
        return {
            "points": self.matrix.tolist(),
            "capacities": (
                list(self.capacities) if self.capacities is not None else None
            ),
        }

    def text(self) -> bytes:
        """The canonical encoding of :meth:`section`, made on first use.

        Two threads racing here both encode and store equal bytes.
        """
        text = self._text
        if text is None:
            text = self._text = _encode(self.section())
        return text


class _CatalogueTable:
    """Process-wide LRU of :class:`Catalogue` records keyed by
    :func:`~repro.data.instances.catalogue_fingerprint`."""

    def __init__(self, slots: int) -> None:
        self._slots = slots
        self._lock = threading.Lock()
        self._records: OrderedDict[str, Catalogue] = OrderedDict()

    def intern(self, fingerprint: str, build: Callable[[], Catalogue]) -> Catalogue:
        """The record for ``fingerprint``, built (outside the lock) on a
        miss; racing builders of one catalogue all get the first record
        stored."""
        with self._lock:
            record = self._records.get(fingerprint)
            if record is not None:
                self._records.move_to_end(fingerprint)
                return record
        built = build()
        with self._lock:
            record = self._records.setdefault(fingerprint, built)
            self._records.move_to_end(fingerprint)
            while len(self._records) > self._slots:
                self._records.popitem(last=False)
        return record

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


_CATALOGUES = _CatalogueTable(CATALOGUE_SLOTS)


def _point_matrix(points: Sequence[Sequence[float]]) -> np.ndarray:
    """The catalogue as a read-only float64 matrix of its own.

    One vector conversion when ``np.array(points)`` is a non-empty 2-D
    float64 or int64 array; anything else (strings, all-bool rows,
    ragged rows, ints beyond int64, empty input) goes row by row
    through :func:`float`, with the errors that path has always raised.
    """
    try:
        matrix: np.ndarray | None = np.array(points)
    except (ValueError, TypeError, OverflowError):
        matrix = None
    if (
        matrix is None
        or matrix.dtype not in _COLUMN_DTYPES
        or matrix.ndim != 2
        or 0 in matrix.shape
    ):
        rows = tuple(_point_tuple(p) for p in points)
        if not rows:
            raise InvalidProblemError("a Problem needs at least one object")
        dims = len(rows[0])
        if any(len(row) != dims for row in rows):
            raise InvalidProblemError("all object points must share one dimensionality")
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), dims)
    matrix = matrix.astype(np.float64, copy=False)
    matrix.flags.writeable = False
    return matrix


def _catalogue(
    points: Sequence[Sequence[float]], capacities: Sequence[int] | None
) -> Catalogue:
    """Validate a catalogue with vector checks and return its interned
    record."""
    matrix = _point_matrix(points)
    if not np.isfinite(matrix).all():
        raise InvalidProblemError("object points must be finite (no NaN or inf)")
    caps = _normalize_caps(capacities, matrix.shape[0], "object")
    cap_column = None
    if caps is not None:
        if min(caps) < 1:
            raise InvalidProblemError("object capacities must be >= 1")
        try:
            cap_column = np.asarray(caps, dtype=np.int64)
        except OverflowError as exc:
            raise InvalidProblemError("object capacities must fit in int64") from exc
    fingerprint = catalogue_fingerprint(matrix, cap_column)
    return _CATALOGUES.intern(fingerprint, lambda: Catalogue(fingerprint, matrix, caps))


def _frozen_options(options: Mapping[str, Any]) -> Mapping[str, Any]:
    """Solver options as a sorted read-only mapping of JSON scalars."""
    for name, value in dict(options).items():
        if not isinstance(name, str) or not isinstance(value, _OPTION_TYPES):
            raise InvalidProblemError(
                f"solver option {name!r}={value!r} is not a JSON scalar"
            )
    return MappingProxyType(dict(sorted(dict(options).items())))


def _normalize_caps(
    caps: Sequence[int] | None, n: int, side: str
) -> tuple[int, ...] | None:
    if caps is None:
        return None
    out = tuple(int(c) for c in caps)
    if len(out) != n:
        raise InvalidProblemError(
            f"{side} capacities must align with the {side}s "
            f"({len(out)} != {n})"
        )
    if all(c == 1 for c in out):
        return None
    return out


@dataclass(frozen=True)
class Problem:
    """One immutable assignment instance plus its solver selection.

    Construct directly, via :meth:`builder`, or via :meth:`from_sets`;
    derive variants with :meth:`with_method` / :meth:`with_functions` /
    :meth:`with_objects` (the instance itself never mutates).
    """

    objects: tuple[Point, ...]
    functions: tuple[Point, ...]
    object_capacities: tuple[int, ...] | None = None
    function_capacities: tuple[int, ...] | None = None
    priorities: tuple[float, ...] | None = None
    method: str = "sb"
    options: Mapping[str, Any] = field(default_factory=dict)
    page_size: int = 4096
    memory_index: bool | None = None
    buffer_fraction: float = 0.02

    def __post_init__(self) -> None:
        self._validate(_catalogue(self.objects, self.object_capacities))

    def _validate(self, catalogue: Catalogue) -> None:
        """Normalize and check every section but the catalogue, which
        ``catalogue`` already is, and attach the instance containers."""
        set_ = object.__setattr__
        set_(self, "objects", catalogue.points)
        set_(self, "object_capacities", catalogue.capacities)
        set_(self, "functions", tuple(_point_tuple(w) for w in self.functions))
        if not self.functions:
            raise InvalidProblemError("a Problem needs at least one function")
        _require_finite(tuple(chain.from_iterable(self.functions)), "weights")
        set_(
            self,
            "function_capacities",
            _normalize_caps(self.function_capacities, len(self.functions), "function"),
        )
        if self.priorities is not None:
            gammas = tuple(float(g) for g in self.priorities)
            _require_finite(gammas, "priorities")
            set_(self, "priorities", None if all(g == 1.0 for g in gammas) else gammas)
        set_(self, "options", _frozen_options(self.options))
        if not isinstance(self.page_size, int) or self.page_size < 64:
            raise InvalidProblemError(
                f"page_size must be an int >= 64, got {self.page_size!r}"
            )
        if not 0.0 < float(self.buffer_fraction) <= 1.0:
            raise InvalidProblemError(
                f"buffer_fraction must be in (0, 1], got {self.buffer_fraction!r}"
            )
        set_(self, "buffer_fraction", float(self.buffer_fraction))
        # Raises UnknownSolverError / InvalidSolverOptionError.
        validate_solver_options(self.method, dict(self.options))
        # Building the cohort container runs its structural validation
        # (dimensionality, weight sums, capacity floors).
        try:
            fset = FunctionSet(
                list(self.functions),
                gammas=(list(self.priorities) if self.priorities is not None else None),
                capacities=(
                    list(self.function_capacities)
                    if self.function_capacities is not None
                    else None
                ),
            )
        except ValueError as exc:
            raise InvalidProblemError(str(exc)) from exc
        if catalogue.matrix.shape[1] != fset.dims:
            raise InvalidProblemError(
                f"objects are {catalogue.matrix.shape[1]}-dimensional but "
                f"functions are {fset.dims}-dimensional"
            )
        self.__dict__["_catalogue"] = catalogue
        self.__dict__["object_set"] = catalogue.object_set
        self.__dict__["function_set"] = fset

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the
        # MappingProxyType options field; hash its canonical item form.
        return hash(
            (
                self.objects,
                self.functions,
                self.object_capacities,
                self.function_capacities,
                self.priorities,
                self.method,
                tuple(self.options.items()),
                self.page_size,
                self.memory_index,
                self.buffer_fraction,
            )
        )

    # -- instance views ------------------------------------------------

    @cached_property
    def _catalogue(self) -> Catalogue:
        """The interned catalogue record (shared, never copied)."""
        raise AssertionError("populated in __post_init__")

    @cached_property
    def object_set(self) -> ObjectSet:
        """The validated (frozen) :class:`ObjectSet` view."""
        raise AssertionError("populated in __post_init__")

    @cached_property
    def function_set(self) -> FunctionSet:
        """The validated :class:`FunctionSet` view."""
        raise AssertionError("populated in __post_init__")

    @property
    def dims(self) -> int:
        return len(self.objects[0])

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @property
    def num_functions(self) -> int:
        return len(self.functions)

    # -- construction --------------------------------------------------

    @staticmethod
    def builder() -> "ProblemBuilder":
        return ProblemBuilder()

    @classmethod
    def from_sets(
        cls,
        objects: ObjectSet,
        functions: FunctionSet,
        method: str = "sb",
        options: Mapping[str, Any] | None = None,
        **settings: Any,
    ) -> "Problem":
        """Build a ``Problem`` from existing instance containers."""
        return cls(
            objects=tuple(objects.points),
            functions=tuple(functions.weights),
            object_capacities=(
                tuple(objects.capacities) if objects.capacities is not None else None
            ),
            function_capacities=(
                tuple(functions.capacities)
                if functions.capacities is not None
                else None
            ),
            priorities=(
                tuple(functions.gammas) if functions.gammas is not None else None
            ),
            method=method,
            options=dict(options or {}),
            **settings,
        )

    # -- derivation ----------------------------------------------------

    def _derive(self, **changes: Any) -> "Problem":
        """``dataclasses.replace`` for changes that leave the catalogue
        alone: the copy shares this problem's catalogue record and
        validates only the other sections, so deriving M cohorts of one
        catalogue converts, checks and hashes it once, not M times."""
        state = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        state.update(changes)
        derived = object.__new__(type(self))
        derived.__dict__.update(state)
        derived._validate(self._catalogue)
        return derived

    def _with_solver(self, method: str, options: Mapping[str, Any]) -> "Problem":
        """An O(1) copy with a new solver selection.

        Only the solver section is validated; the instance tuples and
        containers are shared, not rebuilt.  The instance digest
        excludes the solver section, so it carries over; the full
        digest and the plan depend on the solver and do not.
        """
        frozen = _frozen_options(options)
        # Raises UnknownSolverError / InvalidSolverOptionError.
        validate_solver_options(method, dict(frozen))
        state = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        state.update(
            method=method,
            options=frozen,
            _catalogue=self._catalogue,
            object_set=self.object_set,
            function_set=self.function_set,
        )
        instance_digest = self.__dict__.get("_instance_digest")
        if instance_digest is not None:
            state["_instance_digest"] = instance_digest
        derived = object.__new__(type(self))
        derived.__dict__.update(state)
        return derived

    def with_method(self, method: str, **options: Any) -> "Problem":
        """A copy solved by a different method (options replaced)."""
        return self._with_solver(method, options)

    def with_options(self, **options: Any) -> "Problem":
        """A copy with updated solver options (merged over current)."""
        merged = dict(self.options)
        merged.update(options)
        return self._with_solver(self.method, merged)

    def with_functions(
        self,
        functions: Sequence[Sequence[float]],
        priorities: Sequence[float] | None = None,
        capacities: Sequence[int] | None = None,
    ) -> "Problem":
        """A new cohort over the same catalogue (index cache reuse)."""
        return self._derive(
            functions=functions,
            priorities=priorities,
            function_capacities=capacities,
        )

    def with_objects(
        self,
        objects: Sequence[Sequence[float]],
        capacities: Sequence[int] | None = None,
    ) -> "Problem":
        """The same cohort over a different catalogue."""
        return dataclasses.replace(
            self,
            objects=tuple(_point_tuple(p) for p in objects),
            object_capacities=tuple(capacities) if capacities is not None else None,
        )

    # -- serde ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-compatible payload (versioned schema)."""
        return {
            SCHEMA_KEY: PROBLEM_SCHEMA,
            "objects": self._catalogue.section(),
            "functions": self._functions_section(),
            "solver": self._solver_section(),
            "index": self._index_section(),
        }

    def _functions_section(self) -> dict:
        return {
            "weights": [list(w) for w in self.functions],
            "priorities": (
                list(self.priorities) if self.priorities is not None else None
            ),
            "capacities": (
                list(self.function_capacities)
                if self.function_capacities is not None
                else None
            ),
        }

    def _solver_section(self) -> dict:
        return {"method": self.method, "options": dict(self.options)}

    def _index_section(self) -> dict:
        return {
            "page_size": self.page_size,
            "memory": self.memory_index,
            "buffer_fraction": self.buffer_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Problem":
        check_payload(
            payload,
            PROBLEM_SCHEMAS,  # v2, plus backward-compatible v1 reads
            required={"objects", "functions", "solver"},
            optional={"index"},
        )
        objects = payload["objects"]
        functions = payload["functions"]
        solver = payload["solver"]
        index = payload.get("index") or {}
        for section, name, required_keys, optional_keys in (
            (objects, "objects", {"points"}, {"capacities"}),
            (functions, "functions", {"weights"}, {"priorities", "capacities"}),
            (solver, "solver", {"method"}, {"options"}),
            (index, "index", set(), {"page_size", "memory", "buffer_fraction"}),
        ):
            if not isinstance(section, Mapping):
                raise SerdeError(f"{name!r} section must be a mapping")
            unknown = set(section) - required_keys - optional_keys
            if unknown:
                raise SerdeError(
                    f"{name!r} section has unknown field(s) {sorted(unknown)}"
                )
            missing = required_keys - set(section)
            if missing:
                raise SerdeError(f"{name!r} section missing field(s) {sorted(missing)}")
        return cls(
            objects=objects["points"],
            functions=functions["weights"],
            object_capacities=objects.get("capacities"),
            function_capacities=functions.get("capacities"),
            priorities=functions.get("priorities"),
            method=solver["method"],
            options=dict(solver.get("options") or {}),
            page_size=index.get("page_size", 4096),
            memory_index=index.get("memory"),
            buffer_fraction=index.get("buffer_fraction", 0.02),
        )

    def to_json(self) -> str:
        return self.canonical_body().decode("utf-8")

    @classmethod
    def from_json(cls, text: str | bytes) -> "Problem":
        return cls.from_dict(from_json(text))

    def to_file(self, path: str | Path) -> Path:
        """Write the canonical JSON payload to ``path``; returns it."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_file(cls, path: str | Path) -> "Problem":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise SerdeError(f"cannot read problem file {path!s}: {exc}") from exc
        return cls.from_json(text)

    # -- content addressing --------------------------------------------

    def canonical_body(self) -> bytes:
        """The canonical JSON encoding (:meth:`to_json`) as bytes.

        This is the one float-to-text pass, and it is made once per
        distinct catalogue per process: the ``"objects"`` section's
        text is kept on the shared catalogue record, and only the
        small sections are encoded per problem.  The instance text is
        every section but ``solver``; both digests are memoized from
        the two texts.  The bytes themselves are not kept — a server
        holds thousands of registered problems — so a caller that
        forwards them owns them.
        """
        sections = {
            SCHEMA_KEY: _encode(PROBLEM_SCHEMA),
            "objects": self._catalogue.text(),
            "functions": _encode(self._functions_section()),
            "index": _encode(self._index_section()),
        }
        instance_body = canonical_members(sections)
        sections["solver"] = _encode(self._solver_section())
        body = canonical_members(sections)
        self.__dict__["_instance_digest"] = hashlib.sha256(instance_body).hexdigest()
        self.__dict__["_digest"] = hashlib.sha256(body).hexdigest()
        return body

    def digest(self) -> str:
        """Stable content address of the whole problem (catalogue,
        cohort, solver selection, index settings) — the registration
        identity at a service boundary: the SHA-256 of
        :meth:`canonical_body`."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            self.canonical_body()
            cached = self.__dict__["_digest"]
        return cached

    def instance_digest(self) -> str:
        """Content address of the *instance* alone: the solver section
        is excluded, so ``p.with_method(...)`` variants share it (and
        thus share index/result cache locality downstream)."""
        cached = self.__dict__.get("_instance_digest")
        if cached is None:
            self.canonical_body()
            cached = self.__dict__["_instance_digest"]
        return cached

    # -- planning ------------------------------------------------------

    def plan(self) -> Plan:
        """The planner's decision for this problem (memoized).

        For ``method="auto"`` this profiles the instance and scores
        every plannable registry config; for an explicit method it is
        the trivial plan (``explain()`` works either way).  The
        decision is a pure, deterministic function of the instance, so
        memoizing it on this immutable value object makes "resolve
        once per solve key" hold everywhere the problem travels.
        """
        cached = self.__dict__.get("_plan")
        if cached is None:
            if self.method == AUTO_METHOD:
                cached = plan_instance(self.function_set, self.object_set)
            else:
                cached = explicit_plan(self.method, dict(self.options))
            self.__dict__["_plan"] = cached
        return cached

    @property
    def resolved_method(self) -> str:
        """The concrete method a solve will run: ``method`` itself, or
        the planner's pick when ``method="auto"``."""
        return self.plan().method

    def explain(self) -> str:
        """Human-readable transcript of :meth:`plan`."""
        return self.plan().explain()

    def solve_key(self) -> tuple[str, str, str]:
        """``(instance_digest, resolved method, canonical options
        JSON)`` — the result-cache identity used by
        :mod:`repro.server`: two problems with this key equal produce
        bit-identical solutions.  The *resolved* method (see
        :attr:`resolved_method`) keys the cache, so ``method="auto"``
        shares cache entries with an explicit pick of the same config
        — a planner-routed solve and a hand-routed one are the same
        computation."""
        plan = self.plan()
        return (
            self.instance_digest(),
            plan.method,
            to_canonical_json(plan.options_dict()),
        )


class ProblemBuilder:
    """Fluent, mutable accumulator for a :class:`Problem`.

    Every method returns ``self``; :meth:`build` validates and freezes
    the accumulated state into an immutable ``Problem``::

        problem = (
            Problem.builder()
            .add_object((0.5, 0.6), capacity=2)
            .add_function((0.8, 0.2), priority=2.0)
            .solver("sb", omega_fraction=0.05)
            .build()
        )
    """

    def __init__(self) -> None:
        self._objects: list[Point] = []
        self._object_caps: list[int] = []
        self._functions: list[Point] = []
        self._function_caps: list[int] = []
        self._priorities: list[float] = []
        self._method = "sb"
        self._options: dict[str, Any] = {}
        self._page_size = 4096
        self._memory_index: bool | None = None
        self._buffer_fraction = 0.02

    def add_object(self, point: Sequence[float], capacity: int = 1) -> "ProblemBuilder":
        self._objects.append(_point_tuple(point))
        self._object_caps.append(int(capacity))
        return self

    def add_objects(
        self,
        points: Sequence[Sequence[float]],
        capacities: Sequence[int] | None = None,
    ) -> "ProblemBuilder":
        if capacities is not None and len(capacities) != len(points):
            raise InvalidProblemError("capacities must align with points")
        for i, point in enumerate(points):
            self.add_object(point, 1 if capacities is None else capacities[i])
        return self

    def add_function(
        self,
        weights: Sequence[float],
        capacity: int = 1,
        priority: float = 1.0,
    ) -> "ProblemBuilder":
        self._functions.append(_point_tuple(weights))
        self._function_caps.append(int(capacity))
        self._priorities.append(float(priority))
        return self

    def add_functions(
        self,
        weights: Sequence[Sequence[float]],
        priorities: Sequence[float] | None = None,
        capacities: Sequence[int] | None = None,
    ) -> "ProblemBuilder":
        for seq, what in ((priorities, "priorities"), (capacities, "capacities")):
            if seq is not None and len(seq) != len(weights):
                raise InvalidProblemError(f"{what} must align with weights")
        for i, w in enumerate(weights):
            self.add_function(
                w,
                capacity=1 if capacities is None else capacities[i],
                priority=1.0 if priorities is None else priorities[i],
            )
        return self

    def solver(self, method: str, **options: Any) -> "ProblemBuilder":
        """Select the solver; keyword arguments become its options."""
        self._method = method
        self._options = dict(options)
        return self

    def options(self, **options: Any) -> "ProblemBuilder":
        self._options.update(options)
        return self

    def page_size(self, page_size: int) -> "ProblemBuilder":
        self._page_size = int(page_size)
        return self

    def memory_index(self, memory: bool | None) -> "ProblemBuilder":
        self._memory_index = memory
        return self

    def buffer_fraction(self, fraction: float) -> "ProblemBuilder":
        self._buffer_fraction = float(fraction)
        return self

    def build(self) -> Problem:
        return Problem(
            objects=tuple(self._objects),
            functions=tuple(self._functions),
            object_capacities=tuple(self._object_caps) or None,
            function_capacities=tuple(self._function_caps) or None,
            priorities=tuple(self._priorities) or None,
            method=self._method,
            options=dict(self._options),
            page_size=self._page_size,
            memory_index=self._memory_index,
            buffer_fraction=self._buffer_fraction,
        )


__all__ = ["Problem", "ProblemBuilder"]
