"""Finite weighted hypothesis classes over explicit domains.

A weighted class pairs each binary hypothesis with a mistake budget: a
labeled sequence is realizable when some member disagrees with it at most
its budget many times.  Restricting by an observed example keeps agreeing
members unchanged and charges one budget unit to the rest, dropping members
whose budget is exhausted.  All values are immutable and all operations are
pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

Example = tuple[str, int]
ExampleSequence = list[Example]


class ClassFileError(ValueError):
    """A class document failed structural validation."""


class UnknownInstanceError(KeyError):
    """An instance identifier is not a point of the domain."""


@dataclass(frozen=True)
class Domain:
    """Ordered collection of distinct instance identifiers."""

    points: tuple[str, ...]

    def __post_init__(self) -> None:
        index = {p: i for i, p in enumerate(self.points)}
        if len(index) != len(self.points):
            dupes = sorted({p for p in self.points if self.points.count(p) > 1})
            raise ValueError(f"domain points must be unique; repeated: {dupes}")
        # Not a field, so equality, hashing and repr see only ``points``.
        object.__setattr__(self, "_index", index)

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except (KeyError, TypeError):
            raise UnknownInstanceError(point) from None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[str]:
        return iter(self.points)

    def __contains__(self, point: object) -> bool:
        try:
            return point in self._index
        except TypeError:  # unhashable, so not a point
            return False


@dataclass(frozen=True)
class Member:
    """One hypothesis: a label column over the domain plus a mistake budget."""

    name: str
    labels: tuple[int, ...]
    budget: int


@dataclass(frozen=True)
class WeightedClass:
    """A finite weighted hypothesis class over an explicit domain."""

    domain: Domain
    members: tuple[Member, ...]
    duplicates_collapsed: int = 0

    def __post_init__(self) -> None:
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ValueError("member names must be unique")
        seen: set[tuple[tuple[int, ...], int]] = set()
        for m in self.members:
            if len(m.labels) != len(self.domain):
                raise ValueError(
                    f"member {m.name!r}: labels has {len(m.labels)} entries, "
                    f"domain has {len(self.domain)}"
                )
            if any(b not in (0, 1) for b in m.labels):
                raise ValueError(f"member {m.name!r}: labels must be 0/1")
            if m.budget < 0:
                raise ValueError(f"member {m.name!r}: negative budget {m.budget}")
            key = (m.labels, m.budget)
            if key in seen:
                raise ValueError(
                    f"member {m.name!r} duplicates another member's labels and budget"
                )
            seen.add(key)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def state_key(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Canonical key identifying this class up to member names/order."""
        return tuple(sorted((m.labels, m.budget) for m in self.members))

    def explicit(self) -> "WeightedClass":
        """The class itself: it already has its domain (see
        :meth:`ExpertClass.explicit`).  The same object, so caches keyed by
        the class still hit."""
        return self


# The most experts whose 2^n-point advice domain is materialized.
EXPLICIT_MAX_BITS = 16


@dataclass(frozen=True)
class ExpertClass:
    """The n projection hypotheses over {0,1}^n, with per-expert budgets.

    The domain is kept implicit: instances are length-n bit strings giving
    the experts' advice, and expert ``i`` labels an instance with its
    ``i``-th bit.  ``budgets[i] is None`` marks an eliminated expert (its
    position is retained so advice strings keep their meaning).
    """

    budgets: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if not self.budgets:
            raise ValueError("an expert class needs at least one expert slot")
        for b in self.budgets:
            if b is not None and b < 0:
                raise ValueError("expert budgets must be non-negative")

    @property
    def n(self) -> int:
        return len(self.budgets)

    @property
    def is_empty(self) -> bool:
        return all(b is None for b in self.budgets)

    def counts(self) -> tuple[int, ...]:
        """Number of surviving experts per remaining-budget level.

        The tuple is trimmed to the highest occupied level; the empty tuple
        encodes the empty class.  Experts with equal remaining budgets are
        interchangeable for dimension computations, so this is a sound
        canonical key.
        """
        alive = [b for b in self.budgets if b is not None]
        if not alive:
            return ()
        out = [0] * (max(alive) + 1)
        for b in alive:
            out[b] += 1
        return tuple(out)

    def explicit(self) -> WeightedClass:
        """Materialize the 2^n-point domain as a plain weighted class."""
        if self.n > EXPLICIT_MAX_BITS:
            raise ValueError(
                f"explicit materialization of a {self.n}-expert class exceeds "
                f"the {EXPLICIT_MAX_BITS}-bit enumeration cap"
            )
        points = tuple(format(v, f"0{self.n}b") for v in range(2**self.n))
        members = tuple(
            Member(
                name=f"e{i + 1}",
                labels=tuple(int(p[i]) for p in points),
                budget=b,
            )
            for i, b in enumerate(self.budgets)
            if b is not None
        )
        return WeightedClass(domain=Domain(points), members=members)


def _check_advice(instance: str, n: int) -> str:
    """``instance`` if it is a length-n bit string, else UnknownInstanceError."""
    if len(instance) != n or instance.strip("01"):
        raise UnknownInstanceError(
            f"expected a length-{n} bit string, got {instance!r}"
        )
    return instance


def _parse_advice(instance: str, n: int) -> tuple[int, ...]:
    return tuple(int(c) for c in _check_advice(instance, n))


def universal_class(n: int, k: int) -> WeightedClass:
    """The n projection functions over an explicit {0,1}^n domain, budget k each."""
    if n < 1:
        raise ValueError("need at least one expert")
    if k < 0:
        raise ValueError("budgets must be non-negative")
    return ExpertClass((k,) * n).explicit()


def expert_class(n: int, k: int) -> ExpertClass:
    """Implicit-domain variant of :func:`universal_class`; scales to large n."""
    if n < 1:
        raise ValueError("need at least one expert")
    if k < 0:
        raise ValueError("budgets must be non-negative")
    return ExpertClass((k,) * n)


def restrict(w: WeightedClass | ExpertClass, x: str, y: int) -> WeightedClass | ExpertClass:
    """Charge the example (x, y) to the class.

    Members agreeing with y at x survive unchanged; disagreeing members
    lose one budget unit and are dropped once the budget hits zero.
    """
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    if isinstance(w, ExpertClass):
        advice = _parse_advice(x, w.n)
        new: list[int | None] = []
        for i, b in enumerate(w.budgets):
            if b is None or advice[i] == y:
                new.append(b)
            else:
                new.append(b - 1 if b > 0 else None)
        return ExpertClass(tuple(new))
    i = w.domain.index(x)
    kept: list[Member] = []
    for m in w.members:
        if m.labels[i] == y:
            kept.append(m)
        elif m.budget > 0:
            kept.append(Member(m.name, m.labels, m.budget - 1))
    return WeightedClass(domain=w.domain, members=tuple(kept))


def with_budget(w: WeightedClass | ExpertClass, k: int) -> WeightedClass | ExpertClass:
    """The class with budget k on every member, and on every surviving
    expert; an eliminated expert's slot stays None, as ``explicit()`` has
    no member for it.

    Members sharing a label row would become identical, so only the first of
    each row is kept; they share every column, so RL and L are unchanged."""
    if isinstance(w, ExpertClass):
        return ExpertClass(tuple(None if b is None else k for b in w.budgets))
    names: dict[tuple[int, ...], str] = {}
    for m in w.members:
        names.setdefault(m.labels, m.name)
    return WeightedClass(
        domain=w.domain, members=tuple(Member(name, labels, k) for labels, name in names.items())
    )


@dataclass(frozen=True)
class RealizabilityResult:
    """Outcome of matching an example sequence against a class."""

    mistakes: int | None
    realizable: bool
    best_member: str | None = None

    def __iter__(self) -> Iterator:
        return iter((self.mistakes, self.realizable))


def min_mistakes(s: ExampleSequence, w: WeightedClass | ExpertClass) -> RealizabilityResult:
    """Fewest disagreements any member has with s, and whether some member
    stays within its budget ("realizable by the class")."""
    if isinstance(w, ExpertClass):
        best: tuple[int, str] | None = None
        ok = False
        advice = None
        for i, b in enumerate(w.budgets):
            if b is None:
                continue
            if advice is None:  # parsed once, and only if some expert is alive
                advice = [(_parse_advice(x, w.n), y) for x, y in s]
            errs = sum(1 for a, y in advice if a[i] != y)
            if best is None or errs < best[0]:
                best = (errs, f"e{i + 1}")
            ok = ok or errs <= b
        if best is None:
            return RealizabilityResult(None, False)
        return RealizabilityResult(best[0], ok, best[1])
    indices = [(w.domain.index(x), y) for x, y in s]
    best = None
    ok = False
    for m in w.members:
        errs = sum(1 for i, y in indices if m.labels[i] != y)
        if best is None or errs < best[0]:
            best = (errs, m.name)
        ok = ok or errs <= m.budget
    if best is None:
        return RealizabilityResult(None, False)
    return RealizabilityResult(best[0], ok, best[1])


def load_class(source: str | dict) -> WeightedClass:
    """Parse a class document (JSON text or an already-parsed mapping).

    Missing budgets default to 0.  Members duplicating both labels and
    budget are collapsed; the count is recorded on the returned class.
    """
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise ClassFileError(f"not valid JSON: {e}") from e
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ClassFileError("top level: expected an object")
    if "domain" not in doc:
        raise ClassFileError("domain: missing")
    if "hypotheses" not in doc:
        raise ClassFileError("hypotheses: missing")
    raw_domain = doc["domain"]
    if not isinstance(raw_domain, list) or not all(isinstance(p, str) for p in raw_domain):
        raise ClassFileError("domain: expected an array of strings")
    if not isinstance(doc["hypotheses"], list):
        raise ClassFileError("hypotheses: expected an array")
    try:
        domain = Domain(tuple(raw_domain))
    except ValueError as e:
        raise ClassFileError(f"domain: {e}") from e

    members: list[Member] = []
    seen: dict[tuple[tuple[int, ...], int], str] = {}
    names: set[str] = set()
    duplicates = 0
    for idx, h in enumerate(doc["hypotheses"]):
        where = f"hypotheses[{idx}]"
        if not isinstance(h, dict):
            raise ClassFileError(f"{where}: expected an object")
        name = h.get("name", f"h{idx}")
        if not isinstance(name, str):
            raise ClassFileError(f"{where}.name: expected a string")
        if "labels" not in h:
            raise ClassFileError(f"{where}.labels: missing (member {name!r})")
        labels = h["labels"]
        if not isinstance(labels, list) or any(b not in (0, 1) for b in labels):
            raise ClassFileError(f"{where}.labels: expected an array of 0/1 (member {name!r})")
        if len(labels) != len(domain):
            raise ClassFileError(
                f"{where}.labels: length {len(labels)} does not match domain "
                f"size {len(domain)} (member {name!r})"
            )
        budget = h.get("budget", 0)
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
            raise ClassFileError(
                f"{where}.budget: expected a non-negative integer (member {name!r})"
            )
        key = (tuple(labels), budget)
        if key in seen:
            duplicates += 1
            continue
        seen[key] = name
        if name in names:
            raise ClassFileError(f"{where}.name: duplicate member name {name!r}")
        names.add(name)
        members.append(Member(name, tuple(labels), budget))
    return WeightedClass(
        domain=domain, members=tuple(members), duplicates_collapsed=duplicates
    )


def load_class_file(path: str) -> WeightedClass:
    with open(path, "r", encoding="utf-8") as fh:
        return load_class(fh.read())
