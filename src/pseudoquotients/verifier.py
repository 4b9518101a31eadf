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

The searches run over interned points and word actions, as in the
enumeration of Froidure and Pin (*Algorithms for computing finite
semigroups*, 1997).  Within one :func:`verify` call every point reached
gets a small int id, and each generator becomes a lazily filled table
from ids to ids.  The words of a length are the words one shorter with a
letter put in front, and a word's action on a base tuple of ids is
computed from the shorter word's action; words with equal actions on that
base collapse to the first of them in word order, which is the one any
result reports.  A search therefore costs one generator call per distinct
(generator, point) pair and one table lookup per base point of each
distinct action, not words x letters x samples.  For cancellation the
base is the samples followed by their images under ``g``, one base for
each distinct action of ``g``.  Each base also remembers up to which
word length no two actions share their part on ``g``'s images while
differing on the samples; pairs of lengths within it hold no
counterexample and are skipped without a scan.  Nothing is kept between
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .core import DomainError, UsageError, require_int, require_object
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
        require_int(self.max_depth, "max_depth", 1)

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


class _Search:
    """Interned points and word actions, shared by the phases of one ``verify`` call.

    Inside, a word is a tuple of generator indices, so that comparing two
    words of one length compares them in word order; :meth:`spell` gives
    the names back.  See the module docs for the search itself.
    """

    def __init__(self, presentation: Presentation):
        self.names = presentation.names
        self._letters = {name: a for a, name in enumerate(self.names)}
        self._actions = [action for _, action in presentation.generators]
        self._tables: list[dict[int, int]] = [{} for _ in self._actions]
        self._ids: dict[Any, int] = {}
        self._points: list = []
        self._layers: dict[tuple[int, ...], list[dict[tuple[int, ...], tuple[int, ...]]]] = {}
        self._by_tail: dict[tuple[tuple[int, ...], int], dict] = {}
        self._heads: dict[tuple[int, ...], tuple[int, dict | None]] = {}
        self.samples = tuple(self._intern(p) for p in presentation.sample_points)

    def _intern(self, point) -> int:
        pid = self._ids.setdefault(point, len(self._points))  # hashes the point once
        if pid == len(self._points):
            self._points.append(point)
        return pid

    def _image(self, letter: int, ids: tuple[int, ...]) -> tuple[int, ...]:
        table = self._tables[letter]
        try:
            return tuple(map(table.__getitem__, ids))
        except KeyError:
            action, points = self._actions[letter], self._points
            for pid in ids:
                if pid not in table:
                    table[pid] = self._intern(action(points[pid]))
            return tuple(map(table.__getitem__, ids))

    def act(self, word: Word, base: tuple[int, ...]) -> tuple[int, ...]:
        """The action of a word of generator names on ``base``."""
        for name in reversed(word):  # rightmost letter acts first
            base = self._image(self._letters[name], base)
        return base

    def spell(self, word: tuple[int, ...]) -> Word:
        return tuple(self.names[a] for a in word)

    def layer(self, base: tuple[int, ...], length: int) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each distinct action on ``base`` of the words of ``length``, with its first word.

        Built from the layer one shorter, taking first letters in declared
        order and suffixes in the order of their first words, so that the
        first word reaching an action is the first in word order and the
        actions come in the order of their first words.
        """
        layers = self._layers.setdefault(base, [{base: ()}])
        while len(layers) <= length:
            shorter = layers[-1]
            layer: dict[tuple[int, ...], tuple[int, ...]] = {}
            for letter in range(len(self._actions)):
                for action, word in shorter.items():
                    layer.setdefault(self._image(letter, action), (letter, *word))
            layers.append(layer)
        return layers[length]

    def _split_free(self, base: tuple[int, ...], n: int, length: int) -> bool:
        """Whether no two words of lengths ``1..length`` give two heads to one tail on ``base``.

        A word's head is its action on ``base[:n]`` and its tail its action
        on ``base[n:]``.  Per base, the longest split-free run of lengths is
        kept with each tail's one head, and grows only over layers already
        built.
        """
        free, heads = self._heads.get(base, (0, {}))
        layers = self._layers[base]
        while free < length and heads is not None:
            for action in layers[free + 1]:
                if heads.setdefault(action[n:], action[:n]) != action[:n]:
                    heads = None  # a split among the lengths up to free + 1
                    break
            else:
                free += 1
        self._heads[base] = free, heads
        return free >= length

    def first_split(self, base: tuple[int, ...], n: int, len1: int, len2: int):
        """The first ``(f1, f2)`` of lengths ``len1, len2`` agreeing only on ``base[n:]``."""
        second = self.layer(base, len2)
        first = self.layer(base, len1)
        if self._split_free(base, n, max(len1, len2)):
            return None
        by_tail = self._by_tail.get((base, len2))
        if by_tail is None:
            by_tail = self._by_tail[base, len2] = {}
            for action in second:
                by_tail.setdefault(action[n:], []).append(action)
        for action, f1 in first.items():
            for other in by_tail.get(action[n:], ()):
                if other[:n] != action[:n]:
                    return f1, second[other]
        return None


def verify_injectivity(
    presentation: Presentation, *, _search: _Search | None = None
) -> InjectivityResult:
    """Look for a word and two distinct samples it maps to the same point."""
    if len(set(presentation.sample_points)) < 2:
        raise UsageError("injectivity checking needs at least two distinct sample points")
    search = _search or _Search(presentation)
    samples = search.samples
    for length in range(1, presentation.max_depth + 1):
        for action, word in search.layer(samples, length).items():
            first: dict[int, int] = {}
            for i, image in enumerate(action):
                j = first.setdefault(image, i)
                if samples[j] != samples[i]:
                    points = presentation.sample_points
                    return InjectivityResult(False, search.spell(word), points[j], points[i])
    return InjectivityResult(True)


def search_ore_witness(
    presentation: Presentation, f: Word, g: Word, *, _search: _Search | None = None
) -> tuple[Word, Word] | None:
    """Find the first word pair ``(w1, w2)`` with ``w1 o g == w2 o f`` on the samples.

    Pairs are tried in order of total length, then length of ``w1``, then
    the declared generator order; ``None`` means no witness within the
    bound, which is a result rather than an error.
    """
    search = _search or _Search(presentation)
    depth = presentation.max_depth
    base_f = search.act(f, search.samples)
    base_g = search.act(g, search.samples)
    for total in range(2, 2 * depth + 1):
        for len1 in range(max(1, total - depth), min(depth, total - 1) + 1):
            # the first w2 of its length for every action on base_f
            first_w2 = search.layer(base_f, total - len1)
            for action, w1 in search.layer(base_g, len1).items():
                w2 = first_w2.get(action)
                if w2 is not None:
                    return search.spell(w1), search.spell(w2)
    return None


def verify_right_cancellation(
    presentation: Presentation, *, _search: _Search | None = None
) -> CancellationResult:
    """Look for words with ``f1 o g == f2 o g`` on samples while ``f1 != f2`` on them.

    The first counterexample in the order (total length, |f1|, |f2|, |g|,
    then word order) is returned; candidates whose sample actions already
    agree are skipped, since they are indistinguishable here anyway.
    """
    search = _search or _Search(presentation)
    depth = presentation.max_depth
    samples = search.samples
    for total in range(3, 3 * depth + 1):
        for len1 in range(1, depth + 1):
            for len2 in range(1, depth + 1):
                len3 = total - len1 - len2
                if not 1 <= len3 <= depth:
                    continue
                # With words collapsed by their action on the samples followed
                # by g's images, the first word of each action is the first
                # in word order, so the least triple is among these.
                candidates = []
                for image, g in search.layer(samples, len3).items():
                    pair = search.first_split(samples + image, len(samples), len1, len2)
                    if pair is not None:
                        candidates.append((*pair, g))
                if candidates:
                    f1, f2, g = map(search.spell, min(candidates))
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
    search = _Search(presentation)
    injectivity = verify_injectivity(presentation, _search=search)
    names = presentation.names
    ore = []
    for i, f_name in enumerate(names):
        for g_name in names[i + 1 :]:
            f, g = (f_name,), (g_name,)
            found = search_ore_witness(presentation, f, g, _search=search)
            if found is None:
                ore.append(OreSearchResult(f, g, None, None))
            else:
                ore.append(OreSearchResult(f, g, found[0], found[1]))
    cancellation = verify_right_cancellation(presentation, _search=search)
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
_INT_CONFIG_KEYS = ("domain", "generators", "samples", "max_depth", "label")
_RULES_KEYS = tuple(name for name, spec in PRESETS.items() if spec.from_rules is not None)
# the keys of either schema, checked before each branch checks its own
_CONFIG_KEYS = ("preset", *_RULES_KEYS, *_INT_CONFIG_KEYS)


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
    rules_keys = (name,) if spec.from_rules is not None else ()
    require_object(config, "config key", ("preset", "max_depth", *rules_keys))
    instance, label = spec.instance, name
    if rules_keys and config.get(name) is not None:
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


def _config_text(value: Any, what: str) -> str:
    """``value`` if it is a JSON string, else a DomainError (so ``1`` and ``"1"`` stay apart)."""
    if not isinstance(value, str):
        raise DomainError(f"{what} must be a JSON string, got {value!r}")
    return value


def _int_affine(rule: dict) -> Callable[[int], int]:
    mul = require_int(rule.get("mul", 1), "mul")
    add = require_int(rule.get("add", 0), "add")
    return lambda x: mul * x + add


def _int_generator(entry: Any) -> tuple[str, Callable[[int], int]]:
    entry = require_object(entry, "generator key", ("name", "mul", "add", "even", "odd"))
    if "name" not in entry:
        raise DomainError("each generator needs a 'name'")
    name = _config_text(entry["name"], "generator name")
    if "even" in entry or "odd" in entry:
        require_object(entry, "parity generator key", ("name", "even", "odd"))
        if "even" not in entry or "odd" not in entry:
            raise DomainError("a parity generator needs both 'even' and 'odd' rules")
        even = _int_affine(require_object(entry["even"], "parity rule key", ("mul", "add")))
        odd = _int_affine(require_object(entry["odd"], "parity rule key", ("mul", "add")))
        return name, lambda x: even(x) if x % 2 == 0 else odd(x)
    return name, _int_affine(entry)


def presentation_from_config(config: Any) -> Presentation:
    """Build a presentation from the JSON config schema.

    Either ``{"preset": <name>, "max_depth": k, "tower": {...}}`` or an
    explicit integer-domain presentation::

        {"domain": "int",
         "generators": [{"name": "dbl", "mul": 2, "add": 0},
                        {"name": "osh", "even": {"mul": 1}, "odd": {"add": 2}}],
         "samples": [-3, -1, 0, 1, 2],
         "max_depth": 3, "label": "demo"}

    Tower presets accept custom affine rules
    ``{"ascend_add": s, "squeeze_mul": a, "squeeze_const": e}`` for ascent
    ``x -> x + s`` and level-``n`` squeeze ``x -> a*x + c*n + e``, where
    ``c = s*(1 - a)`` is derived because the squares commute exactly for
    that value; a given ``"squeeze_level_coeff"`` must equal it, and
    ``a = 0`` is rejected.  Every number must be a JSON integer, every name
    and label a JSON string, and every level a JSON object with only the
    keys shown; anything else is a domain error.
    """
    config = require_object(config, "config key", _CONFIG_KEYS)
    depth = config.get("max_depth")
    if "preset" in config:
        return _preset(config["preset"], depth, config)
    require_object(config, "config key", _INT_CONFIG_KEYS)
    if config.get("domain") != "int":
        raise DomainError("config needs either a 'preset' or '\"domain\": \"int\"'")
    raw_gens = config.get("generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise DomainError("config needs a nonempty 'generators' list")
    generators = [_int_generator(entry) for entry in raw_gens]
    samples = config.get("samples")
    if not isinstance(samples, list) or not samples:
        raise DomainError("config needs a nonempty 'samples' list of integers")
    return Presentation(
        generators=tuple(generators),
        sample_points=tuple(require_int(s, "each sample") for s in samples),
        max_depth=depth if depth is not None else 5,
        label=_config_text(config.get("label", "custom"), "label"),
    )
