"""Bounded checking of the calculus's hypotheses on finitely generated actions.

The calculus in :mod:`pseudoquotients.core` is only as good as three
hypotheses about the acting semigroup: every element acts injectively,
every pair of elements has a common left multiple (``f'g = g'f``), and
composition cancels on the right.  None of these is decidable in general,
so this module checks them *extensionally and up to a bound*: a
:class:`Presentation` pins down named generators, a finite set of sample
points, and a maximum word length, and the checks quantify over all words
up to that length, comparing maps by their values on the samples.

A counterexample found this way is a hard refutation (everything reported
is re-validated by independent re-evaluation); a "pass" only means "no
violation up to the stated depth on the stated samples", and every report
carries both.  The word order is length-first, then left-to-right by the
declared generator order, which makes all results reproducible.

Search never uses the empty word: words are semigroup words of length at
least one, so an identity map participates only if some generator denotes
one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from .core import DomainError, UsageError, require_int
from .instances import PRESETS

__all__ = [
    "CancellationResult",
    "InjectivityResult",
    "OreSearchResult",
    "PRESET_NAMES",
    "Presentation",
    "VerifyReport",
    "preset",
    "presentation_from_config",
    "search_ore_witness",
    "verify",
    "verify_injectivity",
    "verify_right_cancellation",
]

Word = tuple[str, ...]


@dataclass(frozen=True)
class Presentation:
    """Named generator actions, sample points, and a word-length bound.

    Generator actions must be defined on the samples and on all their
    images under words up to the bound; points must be hashable and
    compare exactly.
    """

    generators: tuple[tuple[str, Callable[[Any], Any]], ...]
    sample_points: tuple
    max_depth: int = 5
    label: str = "custom"
    point_text: Callable[[Any], str] = field(default=str)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "sample_points", tuple(self.sample_points))
        names = [name for name, _ in self.generators]
        if not names:
            raise DomainError("a presentation needs at least one generator")
        if len(set(names)) != len(names):
            raise DomainError("generator names must be distinct")
        if not self.sample_points:
            raise DomainError("a presentation needs at least one sample point")
        if require_int(self.max_depth, "max_depth") < 1:
            raise DomainError("max_depth must be >= 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)


@dataclass(frozen=True)
class InjectivityResult:
    ok: bool
    word: Word | None = None
    left: Any = None
    right: Any = None


@dataclass(frozen=True)
class OreSearchResult:
    f: Word
    g: Word
    f_prime: Word | None
    g_prime: Word | None

    @property
    def found(self) -> bool:
        return self.f_prime is not None


@dataclass(frozen=True)
class CancellationResult:
    ok: bool
    f1: Word | None = None
    f2: Word | None = None
    g: Word | None = None


@dataclass(frozen=True)
class VerifyReport:
    label: str
    depth_used: int
    injectivity: InjectivityResult
    ore: tuple[OreSearchResult, ...]
    cancellation: CancellationResult
    samples_text: tuple[str, ...]
    validated: bool
    point_text: Callable[[Any], str] = field(default=str, repr=False, compare=False)

    @property
    def has_counterexample(self) -> bool:
        return not (self.injectivity.ok and self.cancellation.ok)

    def to_json(self) -> dict:
        inj: dict[str, Any] = {"status": "pass" if self.injectivity.ok else "fail"}
        if not self.injectivity.ok:
            inj["word"] = list(self.injectivity.word)
            inj["left"] = self.point_text(self.injectivity.left)
            inj["right"] = self.point_text(self.injectivity.right)
        ore = []
        for r in self.ore:
            entry: dict[str, Any] = {"f": list(r.f), "g": list(r.g)}
            if r.found:
                entry["f_prime"] = list(r.f_prime)
                entry["g_prime"] = list(r.g_prime)
            else:
                entry["status"] = "not_found_within_depth"
            ore.append(entry)
        canc: dict[str, Any] = {"status": "pass" if self.cancellation.ok else "fail"}
        if not self.cancellation.ok:
            canc["f1"] = list(self.cancellation.f1)
            canc["f2"] = list(self.cancellation.f2)
            canc["g"] = list(self.cancellation.g)
        return {
            "presentation": self.label,
            "depth_used": self.depth_used,
            "bounded": True,  # "pass" always means "pass up to this bound on these samples"
            "samples": list(self.samples_text),
            "injectivity": inj,
            "ore": ore,
            "cancellation": canc,
            "validated": self.validated,
        }


class _Evaluator:
    """Memoized application of generator words to points."""

    def __init__(self, presentation: Presentation):
        self.actions = dict(presentation.generators)
        self.samples = presentation.sample_points
        self._memo: dict[tuple[str, Any], Any] = {}

    def step(self, name: str, point):
        key = (name, point)
        out = self._memo.get(key)
        if out is None:
            out = self.actions[name](point)
            self._memo[key] = out
        return out

    def word(self, word: Word, point):
        for name in reversed(word):  # rightmost letter acts first
            point = self.step(name, point)
        return point

    def on_points(self, word: Word, points) -> tuple:
        return tuple(self.word(word, p) for p in points)

    def signature(self, word: Word) -> tuple:
        return self.on_points(word, self.samples)


def _words_by_length(names: tuple[str, ...], max_depth: int) -> list[list[Word]]:
    table: list[list[Word]] = [[]]
    for length in range(1, max_depth + 1):
        table.append([tuple(w) for w in itertools.product(names, repeat=length)])
    return table


def verify_injectivity(presentation: Presentation) -> InjectivityResult:
    """Look for a word and two distinct samples it maps to the same point."""
    if len(set(presentation.sample_points)) < 2:
        raise UsageError("injectivity checking needs at least two distinct sample points")
    ev = _Evaluator(presentation)
    words = _words_by_length(presentation.names, presentation.max_depth)
    for length in range(1, presentation.max_depth + 1):
        for word in words[length]:
            images: dict[Any, Any] = {}
            for point in presentation.sample_points:
                image = ev.word(word, point)
                if image in images and images[image] != point:
                    return InjectivityResult(False, word, images[image], point)
                images.setdefault(image, point)
    return InjectivityResult(True)


def search_ore_witness(
    presentation: Presentation, f: Word, g: Word
) -> tuple[Word, Word] | None:
    """Find the first word pair ``(w1, w2)`` with ``w1 o g == w2 o f`` on the samples.

    Pairs are tried in order of total length, then length of ``w1``, then
    the declared generator order; ``None`` means no witness within the
    bound, which is a result rather than an error.
    """
    ev = _Evaluator(presentation)
    depth = presentation.max_depth
    words = _words_by_length(presentation.names, depth)
    base_f = ev.on_points(f, presentation.sample_points)
    base_g = ev.on_points(g, presentation.sample_points)
    # first w2 of each length for every achievable action on base_f
    first_by_sig: list[dict[tuple, Word] | None] = [None] * (depth + 1)
    for total in range(2, 2 * depth + 1):
        for len1 in range(max(1, total - depth), min(depth, total - 1) + 1):
            len2 = total - len1
            if first_by_sig[len2] is None:
                table: dict[tuple, Word] = {}
                for w2 in words[len2]:
                    table.setdefault(ev.on_points(w2, base_f), w2)
                first_by_sig[len2] = table
            for w1 in words[len1]:
                w2 = first_by_sig[len2].get(ev.on_points(w1, base_g))
                if w2 is not None:
                    return w1, w2
    return None


def verify_right_cancellation(presentation: Presentation) -> CancellationResult:
    """Look for words with ``f1 o g == f2 o g`` on samples while ``f1 != f2`` on them.

    The first counterexample in the order (total length, |f1|, |f2|, |g|,
    then word order) is returned; candidates whose sample actions already
    agree are skipped, since they are indistinguishable here anyway.
    """
    ev = _Evaluator(presentation)
    depth = presentation.max_depth
    words = _words_by_length(presentation.names, depth)
    rank: dict[Word, int] = {}
    for length in range(1, depth + 1):
        for i, w in enumerate(words[length]):
            rank[w] = i
    sample_sig = {w: ev.signature(w) for length in range(1, depth + 1) for w in words[length]}
    grouped: dict[tuple[Word, int], dict[tuple, list[Word]]] = {}

    def groups_for(g: Word, length: int) -> dict[tuple, list[Word]]:
        key = (g, length)
        table = grouped.get(key)
        if table is None:
            base = ev.on_points(g, presentation.sample_points)
            table = {}
            for w in words[length]:
                table.setdefault(ev.on_points(w, base), []).append(w)
            grouped[key] = table
        return table

    for total in range(3, 3 * depth + 1):
        for len1 in range(1, depth + 1):
            for len2 in range(1, depth + 1):
                len3 = total - len1 - len2
                if not 1 <= len3 <= depth:
                    continue
                candidates: list[tuple[int, int, int, Word, Word, Word]] = []
                for g in words[len3]:
                    base = ev.on_points(g, presentation.sample_points)
                    table = groups_for(g, len2)
                    hit = None
                    for f1 in words[len1]:
                        for f2 in table.get(ev.on_points(f1, base), ()):
                            if sample_sig[f1] != sample_sig[f2]:
                                hit = (rank[f1], rank[f2], rank[g], f1, f2, g)
                                break
                        if hit:
                            break
                    if hit:
                        candidates.append(hit)
                if candidates:
                    _, _, _, f1, f2, g = min(candidates)
                    return CancellationResult(False, f1, f2, g)
    return CancellationResult(True)


def _revalidate(presentation: Presentation, injectivity, ore, cancellation) -> bool:
    """Re-check every reported fact with a fresh, memo-free evaluation."""
    actions = dict(presentation.generators)

    def raw(word: Word, point):
        for name in reversed(word):
            point = actions[name](point)
        return point

    samples = presentation.sample_points
    if not injectivity.ok:
        if injectivity.left == injectivity.right:
            return False
        if raw(injectivity.word, injectivity.left) != raw(injectivity.word, injectivity.right):
            return False
    for result in ore:
        if result.found:
            lhs = [raw(result.f_prime, raw(result.g, s)) for s in samples]
            rhs = [raw(result.g_prime, raw(result.f, s)) for s in samples]
            if lhs != rhs:
                return False
    if not cancellation.ok:
        f1, f2, g = cancellation.f1, cancellation.f2, cancellation.g
        if [raw(f1, s) for s in samples] == [raw(f2, s) for s in samples]:
            return False
        if [raw(f1, raw(g, s)) for s in samples] != [raw(f2, raw(g, s)) for s in samples]:
            return False
    return True


def verify(presentation: Presentation) -> VerifyReport:
    """Run all three checks and assemble a re-validated report.

    Ore witnesses are searched for every ordered pair of distinct
    generators in declared order; a witness for ``(f, g)`` doubles as one
    for ``(g, f)`` with its sides swapped, so each pair appears once.
    """
    injectivity = verify_injectivity(presentation)
    names = presentation.names
    ore = []
    for i, f_name in enumerate(names):
        for g_name in names[i + 1 :]:
            f, g = (f_name,), (g_name,)
            found = search_ore_witness(presentation, f, g)
            if found is None:
                ore.append(OreSearchResult(f, g, None, None))
            else:
                ore.append(OreSearchResult(f, g, found[0], found[1]))
    cancellation = verify_right_cancellation(presentation)
    validated = _revalidate(presentation, injectivity, ore, cancellation)
    return VerifyReport(
        label=presentation.label,
        depth_used=presentation.max_depth,
        injectivity=injectivity,
        ore=tuple(ore),
        cancellation=cancellation,
        samples_text=tuple(presentation.point_text(p) for p in presentation.sample_points),
        validated=validated,
        point_text=presentation.point_text,
    )


# ----------------------------------------------------------------------
# presets and the JSON config schema
# ----------------------------------------------------------------------

PRESET_NAMES = tuple(PRESETS)


def preset(name: str, max_depth: int | None = None) -> Presentation:
    """A ready-made presentation for one of the built-in instances."""
    return _preset(name, max_depth, {})


def _preset(name: str, max_depth: int | None, config: dict) -> Presentation:
    """The preset ``name``; custom rules under ``config[name]`` rebuild its instance."""
    try:
        spec = PRESETS[name]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        ) from None
    instance, label = spec.instance, name
    if spec.from_rules is not None and config.get(name) is not None:
        instance, label = spec.from_rules(config[name]), f"{name} (custom rules)"
    return Presentation(
        generators=tuple(
            (gen, lambda p, el=element: instance.apply(el, p)) for gen, element in spec.generators
        ),
        sample_points=spec.samples,
        max_depth=spec.depth if max_depth is None else max_depth,
        label=label,
        point_text=instance.point_text,
    )


def _int_affine(entry: dict) -> Callable[[int], int]:
    if not isinstance(entry, dict):
        raise DomainError("each affine rule must be a JSON object")
    mul = require_int(entry.get("mul", 1), "mul")
    add = require_int(entry.get("add", 0), "add")
    return lambda x: mul * x + add


def _int_generator(entry: dict) -> Callable[[int], int]:
    if "even" in entry or "odd" in entry:
        if "even" not in entry or "odd" not in entry:
            raise DomainError("a parity generator needs both 'even' and 'odd' rules")
        even = _int_affine(entry["even"])
        odd = _int_affine(entry["odd"])
        return lambda x: even(x) if x % 2 == 0 else odd(x)
    return _int_affine(entry)


def presentation_from_config(config: dict) -> Presentation:
    """Build a presentation from the JSON config schema.

    Either ``{"preset": <name>, "max_depth": k, "tower": {...}}`` or an
    explicit integer-domain presentation::

        {"domain": "int",
         "generators": [{"name": "dbl", "mul": 2, "add": 0},
                        {"name": "osh", "even": {"mul": 1}, "odd": {"add": 2}}],
         "samples": [-3, -1, 0, 1, 2],
         "max_depth": 3}

    Tower presets accept custom affine rules
    ``{"ascend_add": s, "squeeze_mul": a, "squeeze_const": e}`` for ascent
    ``x -> x + s`` and level-``n`` squeeze ``x -> a*x + c*n + e``, where
    ``c = s*(1 - a)`` is derived because the squares commute exactly for
    that value; a given ``"squeeze_level_coeff"`` must equal it, and
    ``a = 0`` is rejected.  Every number in a config must be a JSON integer.
    """
    if not isinstance(config, dict):
        raise DomainError("config must be a JSON object")
    depth = config.get("max_depth")
    if "preset" in config:
        return _preset(config["preset"], depth, config)
    if config.get("domain") != "int":
        raise DomainError("config needs either a 'preset' or '\"domain\": \"int\"'")
    raw_gens = config.get("generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise DomainError("config needs a nonempty 'generators' list")
    generators = []
    for entry in raw_gens:
        if not isinstance(entry, dict) or "name" not in entry:
            raise DomainError("each generator needs a 'name'")
        generators.append((str(entry["name"]), _int_generator(entry)))
    samples = config.get("samples")
    if not isinstance(samples, list) or not samples:
        raise DomainError("config needs a nonempty 'samples' list of integers")
    return Presentation(
        generators=tuple(generators),
        sample_points=tuple(require_int(s, "each sample") for s in samples),
        max_depth=depth if depth is not None else 5,
        label=str(config.get("label", "custom")),
    )
