"""Bounded checking of the calculus's hypotheses on finitely generated actions.

The calculus in :mod:`pseudoquotients.core` is only as good as three
hypotheses about the acting semigroup: every element acts injectively,
every pair of elements has a common left multiple (``f'g = g'f``), and
composition cancels on the right.  None of these is decidable in general,
so this module checks them *extensionally and up to a bound*: a
:class:`Presentation` pins down named generators, a finite set of sample
points, and a maximum word length, and the checks quantify over all words
up to that length, comparing maps by their values on the samples.

Everything reported is re-validated by independent re-evaluation, on the
samples.  An injectivity counterexample is a hard refutation: one word
maps two distinct samples to one point.  An Ore witness and a
cancellation counterexample are not proofs: ``w1 o g == w2 o f`` and
``f1 o g == f2 o g`` are checked on the samples only, so two maps that
differ elsewhere can still be reported equal.  A "pass" only means "no
violation up to the stated depth on the stated samples", and every
report carries both.  One pass is exact: when the samples determine every
word's map (:meth:`~pseudoquotients.core.Instance.determines`, as on the
``power-affine``, affine and ``dyadic-steps`` presets), right cancellation
holds at every depth, and :func:`verify` reports it without a search.
The word order is length-first, then left-to-right by the declared
generator order, which makes all results reproducible.

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
distinct action, not words x letters x samples.

For cancellation a word ``g`` needs the base of the samples followed by
their images under ``g``.  The bases of all ``g`` of one length share
one union base: the samples, then every other point of those images.
Layers are built on the union only, and each base reads its actions off
it by position.  A base is split-free through a length ``L`` when no two
words up to ``L`` agree on ``g``'s images (the tail) while differing on
the samples (the head); that holds exactly when the union actions of
lengths ``1..L`` give as many tails as (head, tail) pairs, two set
sizes.  Pairs of lengths within it hold no counterexample.  A base that
splits reads its first split off the union layers too: they come in the
order of their first words, and two union actions with one head and tail
act alike on the base, so each action on it keeps its first word.  The
union visits the same (generator, point) pairs as the bases would one by
one, so generator calls and reports are unchanged.  Nothing is kept
between calls.

One call counts at most :data:`MAX_SEARCH_BYTES`: the ``__sizeof__`` of
its interned points, plus an estimate of the tables and layers that
hold their ids.  It is charged once per new point and once per finished
layer and letter, and past it :func:`verify` stops with a DomainError
that names the word length it had reached.  It bounds the counted
bytes only: ``__sizeof__`` leaves out the ints inside an affine tuple or
a step function, so :func:`verify_right_cancellation` counts 34 MB at a
62 MB peak RSS on ``dyadic-steps`` at depth 9, and 33 MB at 61 MB on
``affine-lattice-2d`` at depth 10.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from types import SimpleNamespace
from typing import Any, Callable

from . import _VERIFIER_NAMES
from .core import DomainError, Preset, UsageError, require_int, require_object, value_text, value_type
from .instances import PRESET_NAMES, PRESETS

__all__ = [*_VERIFIER_NAMES, "MAX_SEARCH_BYTES", "PRESET_NAMES", "presentation_from_preset"]

Word = tuple[str, ...]

# The largest search known to finish, verify_right_cancellation on
# power-affine at depth 9, counts about 280 MB (verify certifies that preset
# without it); the tower preset at an unbounded depth stops at word length
# 60 with a 360 MB peak, inside a 512 MB address-space limit.
MAX_SEARCH_BYTES = 320 << 20
_POINT_BYTES = 100  # per point beyond its __sizeof__: its id, and its id-dict, list and table slots
_ENTRY_BYTES = 130  # per kept action: two tuple headers and a dict slot, beside 8 per id or letter


@value_type
class Presentation:
    """Named generator actions, sample points, and a word-length bound.

    Generator actions must be defined on the samples and on all their
    images under words up to the bound; points must be hashable and
    compare exactly.  The verifier calls them on nothing else, so an
    action need not check its input: a preset's generators are its
    instance's compiled :meth:`~pseudoquotients.core.Instance.action`
    callables, and only its samples are checked, once, when it is built.

    ``determines``, if set, is a claim about the generators' maps with the
    obligations of :meth:`~pseudoquotients.core.Instance.determines`; a
    preset sets it to its instance's hook.  When it returns ``True`` on the
    samples, :func:`verify` reports right cancellation as passed without
    searching, a pass that holds at every depth.
    """

    generators: tuple[tuple[str, Callable[[Any], Any]], ...]
    sample_points: tuple
    max_depth: int = 5
    label: str = "custom"
    point_text: Callable[[Any], str] = str
    determines: Callable[[tuple], bool] | None = None

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


# What dataclasses.replace(presentation, generators=...) reads, as perfbench/spans.py
# and tests/test_compiled_actions.py call it: each field, taken by __init__.
Presentation.__dataclass_fields__ = {
    name: SimpleNamespace(name=name, init=True, _field_type=None) for name in Presentation.__slots__
}


@value_type
class InjectivityResult:
    ok: bool
    word: Word | None = None
    left: Any = None
    right: Any = None


@value_type
class OreSearchResult:
    f: Word
    g: Word
    f_prime: Word | None
    g_prime: Word | None

    @property
    def found(self) -> bool:
        return self.f_prime is not None


@value_type
class CancellationResult:
    ok: bool
    f1: Word | None = None
    f2: Word | None = None
    g: Word | None = None


@value_type
class VerifyReport:
    label: str
    depth_used: int
    injectivity: InjectivityResult
    ore: tuple[OreSearchResult, ...]
    cancellation: CancellationResult
    samples_text: tuple[str, ...]
    validated: bool
    injectivity_text: tuple[str, ...] = ()  # a failed injectivity's left and right points

    @property
    def has_counterexample(self) -> bool:
        return not (self.injectivity.ok and self.cancellation.ok)

    def to_json(self) -> dict:
        inj: dict[str, Any] = {"status": "pass" if self.injectivity.ok else "fail"}
        if not self.injectivity.ok:
            inj["word"] = list(self.injectivity.word)
            inj["left"], inj["right"] = self.injectivity_text
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
            # "pass" means "pass up to this bound on these samples", or more: see the module docs
            "bounded": True,
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
        self._left = MAX_SEARCH_BYTES  # of the memory budget
        self._length = 0  # the word length being built
        self.samples = tuple(self._intern(p) for p in presentation.sample_points)

    def _intern(self, point) -> int:
        pid = self._ids.setdefault(point, len(self._points))  # hashes the point once
        if pid == len(self._points):
            self._points.append(point)
            self._left -= point.__sizeof__() + _POINT_BYTES  # sys.getsizeof costs ten times more
            if self._left < 0:
                self._over_budget()
        return pid

    def _over_budget(self):
        raise DomainError(
            f"verify stopped at word length {self._length}: its points and word actions "
            f"outgrew the {MAX_SEARCH_BYTES >> 20} MB search budget; lower max_depth"
        )

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
            self._length = len(layers)
            shorter = layers[-1]
            layer: dict[tuple[int, ...], tuple[int, ...]] = {}
            entry = _ENTRY_BYTES + 8 * (len(base) + self._length)  # a kept action's ids and letters
            for letter in range(len(self._actions)):
                kept = len(layer)
                for action, word in shorter.items():
                    layer.setdefault(self._image(letter, action), (letter, *word))
                self._left -= (len(layer) - kept) * entry
                if self._left < 0:
                    self._over_budget()
            layers.append(layer)
        return layers[length]


class _Bases:
    """The cancellation bases ``samples + g(samples)`` of the words ``g`` of one length.

    Word layers are built once, on a union base: the samples, then every
    other point of the images of the words ``g``.  Base ``i`` reads off it
    through ``fulls[i]`` (the positions of its samples, then of its
    images) and ``tails[i]`` (those of its images).  A base is split-free
    through a length when no two actions of the words up to it share a
    tail with two heads; ``free[i]`` is how far that is known to hold,
    and ``split[i]`` whether it stops there.
    """

    def __init__(self, search: _Search, length: int):
        self.search = search
        samples = search.samples
        self.words = search.layer(samples, length)  # g by its images of the samples
        at: dict[int, int] = {}
        union = list(samples)
        for i, pid in enumerate(samples):
            at.setdefault(pid, i)
        for image in self.words:
            for pid in image:
                if pid not in at:
                    at[pid] = len(union)
                    union.append(pid)
        self.union = tuple(union)
        heads = [at[pid] for pid in samples]
        self.tails = [itemgetter(*map(at.__getitem__, image)) for image in self.words]
        self.fulls = [itemgetter(*heads, *map(at.__getitem__, image)) for image in self.words]
        self.free = [0] * len(self.words)
        self.split = [False] * len(self.words)
        # the distinct union actions in order of length, and how many have length <= k
        self._seen: dict[tuple[int, ...], None] = {}
        self._ends = [0]

    def _free_through(self, i: int, length: int) -> bool:
        """Whether base ``i`` is split-free through ``length``; ``free[i]`` grows one at a time.

        Every action on base ``i`` is ``fulls[i]`` of one on the union, so
        the distinct union actions of lengths ``1..k`` give as many tails as
        (head, tail) pairs exactly when each tail has one head.  Their count
        bounds both, so all tails distinct settles it with one set.
        """
        tail, full = self.tails[i], self.fulls[i]
        while self.free[i] < length and not self.split[i]:
            k = self.free[i] + 1
            while len(self._ends) <= k:  # the union actions of one more length
                self._seen.update(dict.fromkeys(self.search.layer(self.union, len(self._ends))))
                self._ends.append(len(self._seen))
            count = self._ends[k]
            tails = len(set(map(tail, islice(self._seen, count))))
            if tails == count or tails == len(set(map(full, islice(self._seen, count)))):
                self.free[i] = k
            else:
                self.split[i] = True
        return self.free[i] >= length

    def _first_split(self, i: int, len1: int, len2: int):
        """The first ``(f1, f2)`` of lengths ``len1, len2`` agreeing only on base ``i``'s images.

        Read off the union layers, whose first ``n`` ids are the samples' images.
        """
        n, tail = len(self.search.samples), self.tails[i]
        by_tail: dict[Any, dict[tuple[int, ...], tuple[int, ...]]] = {}
        for action, word in self.search.layer(self.union, len2).items():
            by_tail.setdefault(tail(action), {}).setdefault(action[:n], word)
        for action, f1 in self.search.layer(self.union, len1).items():
            head = action[:n]
            for other, f2 in by_tail.get(tail(action), {}).items():
                if other != head:
                    return f1, f2
        return None

    def counterexamples(self, len1: int, len2: int) -> list:
        """Each base's first ``(f1, f2, g)`` with ``f1, f2`` of lengths ``len1, len2``."""
        length = max(len1, len2)
        found = []
        for i, g in enumerate(self.words.values()):
            if not self._free_through(i, length):
                pair = self._first_split(i, len1, len2)
                if pair is not None:
                    found.append((*pair, g))
        return found


def verify_injectivity(
    presentation: Presentation, *, _search: _Search | None = None
) -> InjectivityResult:
    """Look for a word and two distinct samples it maps to the same point."""
    if len(set(presentation.sample_points)) < 2:
        raise UsageError("injectivity checking needs at least two distinct sample points")
    search = _search or _Search(presentation)
    samples = search.samples
    distinct = len(set(samples))
    for length in range(1, presentation.max_depth + 1):
        for action, word in search.layer(samples, length).items():
            if len(set(action)) == distinct:  # no two distinct samples meet
                continue
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
    bound, which is a result rather than an error.  ``f`` and ``g`` must be
    non-empty tuples or lists of declared generator names.
    """
    names = presentation.names
    for what, word in (("f", f), ("g", g)):
        if not isinstance(word, (tuple, list)) or not word:
            raise DomainError(
                f"Ore search word {what} must be a non-empty tuple or list of generator names, "
                f"got {value_text(word)}"
            )
        for name in word:
            if name not in names:
                raise DomainError(
                    f"unknown generator {value_text(name)} in Ore search word {what}; "
                    f"declared: {', '.join(map(str, names))}"
                )
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
    agree are skipped, since they are indistinguishable here anyway.  This
    is always the search: :func:`verify` skips it when the presentation's
    ``determines`` holds on its samples.
    """
    search = _search or _Search(presentation)
    depth = presentation.max_depth
    bases: dict[int, _Bases] = {}
    for total in range(3, 3 * depth + 1):
        for len1 in range(1, depth + 1):
            for len2 in range(1, depth + 1):
                len3 = total - len1 - len2
                if not 1 <= len3 <= depth:
                    continue
                if len3 not in bases:
                    bases[len3] = _Bases(search, len3)
                # With words collapsed by their action on the samples followed
                # by g's images, the first word of each action is the first
                # in word order, so the least triple is among these.
                candidates = bases[len3].counterexamples(len1, len2)
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
    Right cancellation passes without a search when the presentation's
    ``determines`` holds on its samples, and is searched for otherwise.
    """
    search = _Search(presentation)
    injectivity = verify_injectivity(presentation, _search=search)
    names = presentation.names
    ore = []
    for i, f_name in enumerate(names):
        for g_name in names[i + 1 :]:
            f, g = (f_name,), (g_name,)
            f_prime, g_prime = search_ore_witness(presentation, f, g, _search=search) or (None, None)
            ore.append(OreSearchResult(f, g, f_prime, g_prime))
    determines = presentation.determines
    if determines is not None and determines(presentation.sample_points):
        # every word g maps the samples to a determining set, so no
        # f1 o g == f2 o g on them has f1 != f2 on them, at any depth
        cancellation = CancellationResult(True)
    else:
        cancellation = verify_right_cancellation(presentation, _search=search)
    validated = _revalidate(presentation, injectivity, ore, cancellation)
    text = presentation.point_text
    return VerifyReport(
        label=presentation.label,
        depth_used=presentation.max_depth,
        injectivity=injectivity,
        ore=tuple(ore),
        cancellation=cancellation,
        samples_text=tuple(map(text, presentation.sample_points)),
        validated=validated,
        injectivity_text=() if injectivity.ok else (text(injectivity.left), text(injectivity.right)),
    )


# ----------------------------------------------------------------------
# presets and the JSON config schema
# ----------------------------------------------------------------------

_INT_CONFIG_KEYS = ("domain", "generators", "samples", "max_depth", "label")
_RULES_KEYS = tuple(name for name, spec in PRESETS.items() if spec.from_rules is not None)
# the keys of either schema, checked before each branch checks its own
_CONFIG_KEYS = ("preset", *_RULES_KEYS, *_INT_CONFIG_KEYS)


def preset(name: str, max_depth: int | None = None) -> Presentation:
    """A ready-made presentation for one of the built-in instances."""
    return presentation_from_config({"preset": name, "max_depth": max_depth})


def presentation_from_preset(spec: Preset, label: str, max_depth: int | None = None) -> Presentation:
    """The presentation of a :class:`~pseudoquotients.core.Preset`, at its own depth unless given.

    Each generator is compiled once by the preset instance's ``action``
    hook into a callable that checks no point, so the samples are checked
    here, once.  An instance outside the built-in registry reaches the
    verifier through this function; ``presentation_from_config`` calls it
    for every preset.
    """
    instance = spec.instance
    return Presentation(
        generators=tuple((gen, instance.action(element)) for gen, element in spec.generators),
        sample_points=tuple(map(instance._check_point, spec.samples)),
        max_depth=spec.depth if max_depth is None else max_depth,
        label=label,
        point_text=instance.point_text,
        determines=instance.determines,
    )


def _config_text(value: Any, what: str) -> str:
    """``value`` if it is a JSON string, else a DomainError (so ``1`` and ``"1"`` stay apart)."""
    if not isinstance(value, str):
        raise DomainError(f"{what} must be a JSON string, got {value_text(value)}")
    return value


def _int_affine(rule: dict) -> tuple[int, int]:
    return require_int(rule.get("mul", 1), "mul"), require_int(rule.get("add", 0), "add")


def _int_generator(entry: Any) -> tuple[str, Callable[[int], int]]:
    entry = require_object(entry, "generator key", ("name", "mul", "add", "even", "odd"))
    if "name" not in entry:
        raise DomainError("each generator needs a 'name'")
    name = _config_text(entry["name"], "generator name")
    if "even" in entry or "odd" in entry:
        require_object(entry, "parity generator key", ("name", "even", "odd"))
        if "even" not in entry or "odd" not in entry:
            raise DomainError("a parity generator needs both 'even' and 'odd' rules")
        em, ea = _int_affine(require_object(entry["even"], "parity rule key", ("mul", "add")))
        om, oa = _int_affine(require_object(entry["odd"], "parity rule key", ("mul", "add")))
        return name, lambda x: em * x + ea if x % 2 == 0 else om * x + oa
    mul, add = _int_affine(entry)
    return name, lambda x: mul * x + add


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
        name = config["preset"]
        try:
            spec = PRESETS[name]
        except (KeyError, TypeError):
            raise DomainError(
                f"unknown preset {value_text(name)}; choose one of {', '.join(PRESET_NAMES)}"
            ) from None
        rules_keys = (name,) if spec.from_rules is not None else ()
        require_object(config, "config key", ("preset", "max_depth", *rules_keys))
        # custom rules under config[name] rebuild the preset's instance
        label = name
        if rules_keys and config.get(name) is not None:
            spec, label = spec._replace(instance=spec.from_rules(config[name])), f"{name} (custom rules)"
        return presentation_from_preset(spec, label, depth)
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
