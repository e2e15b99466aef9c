"""Per-person symptom display simulation and per-client dataset synthesis.

A simulated survey respondent walks the country's prominent-symptom list
in order. Each symptom is displayed with its survey probability; when it
is not displayed, a noise statistic decides whether a random corpus term
is reported instead. Displayed symptoms become positive training
examples, balanced 1:1 by corpus terms drawn from outside the
prominent-symptom set. Every phrase is encoded once per run into a
read-only PhraseTable; a client dataset is only an array of row indices
into that table and an array of 0/1 labels, so the walk appends row ids
and no per-example object or feature copy is kept.

A person's walk is numpy's draws in this order: per entry, one
``rng.random() < p`` displays it; on a miss, the noise draw
(NoiseMechanism) decides; when that fires, ``rng.integers`` picks the
term. synthesize_client takes each draw it can from the generator's raw
64-bit words. Under uniform_threshold and laplace_dp it replays a whole
survey (`_replay_walks`, `_replay_picks`) from words read ahead and
writes the state once, so the rows and final state are numpy's; under
normal_threshold only the display draws are words, as numpy's ziggurat
normal cannot be rebuilt from words with its public API. The words are
PCG64's, as every rng.py stream is; any other generator is refused.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import cycle, islice
from typing import NamedTuple

import numpy as np

from .embeddings import encode_phrase
from .surveys import SymptomDistribution

UNIFORM_THRESHOLD = "uniform_threshold"
NORMAL_THRESHOLD = "normal_threshold"
LAPLACE_DP = "laplace_dp"

MECHANISM_KINDS = (UNIFORM_THRESHOLD, NORMAL_THRESHOLD, LAPLACE_DP)


def check_number(name: str, value, kind: type) -> None:
    """Refuse a value that is not a numbers.Integral or numbers.Real `kind`, or is a bool.

    A bool is an int to Python, but True for a count, a level or a fraction is
    a mistake, not a 1.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class NoiseMechanism:
    """How the not-displayed branch decides to report a random term.

    Its one draw, in numpy's calls: uniform_threshold fires when
    ``rng.random() < noise_level``, normal_threshold when
    ``rng.standard_normal() < noise_level``, and laplace_dp when
    ``rng.laplace(0.0, 1.0 / epsilon) > noise_level``.
    """

    kind: str
    noise_level: float
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"mechanism must be one of {MECHANISM_KINDS}, got {self.kind!r}")
        # True would be level 1.0, or an epsilon the CSVs record as True
        check_number("noise_level", self.noise_level, numbers.Real)
        if self.epsilon is not None:
            check_number("epsilon", self.epsilon, numbers.Real)
        # float() stores a numpy scalar as the float64 the draws compare against and the
        # records spell; + 0.0 turns -0.0 into 0.0, so one level has one CSV spelling
        object.__setattr__(self, "noise_level", float(self.noise_level) + 0.0)
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", float(self.epsilon))
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level {self.noise_level} outside [0, 1]")
        if self.kind == LAPLACE_DP:
            # a NaN or infinite epsilon never fires, at any level
            if self.epsilon is None or not (self.epsilon > 0 and math.isfinite(self.epsilon)):
                raise ValueError("laplace_dp requires a finite epsilon > 0")
        elif self.epsilon is not None:
            raise ValueError(f"epsilon applies only to laplace_dp, not {self.kind}")


NO_NOISE = NoiseMechanism(kind=UNIFORM_THRESHOLD, noise_level=0.0)


@dataclass(frozen=True)
class PhraseTable:
    """Every phrase a run can emit, each encoded once, and the walks over it.

    Row i of the read-only ``matrix`` is the embedding of phrase
    ``names[i]``. ``distributions[country]`` is the distribution the table
    was built from for that country, and its entries are found by its
    country: ``word_walks[dist.country]`` is dist's prominent-symptom list
    as (row, raw-word threshold) pairs (`word_threshold` of each display
    probability), in order; ``negatives[dist.country]`` holds the rows of
    the corpus terms outside dist's prominent-symptom set, in corpus order
    (possibly none), as a tuple. ``term_rows[i]`` is the row of corpus
    term i.
    """

    matrix: np.ndarray
    names: tuple[str, ...]
    word_walks: dict[str, tuple[tuple[int, int], ...]]
    term_rows: tuple[int, ...]
    negatives: dict[str, tuple[int, ...]]
    distributions: dict[str, SymptomDistribution]


def word_threshold(p: float) -> int:
    """The bound under which a PCG64 raw word w makes numpy's uniform draw fall below p.

    ``rng.random()`` is ``(w >> 11) * 2**-53``, and for p in [0, 1] that
    is below p exactly when ``w < ceil(p * 2**53) << 11``: the scaling by
    a power of two is exact, and the draw is an integer count of 2**-53.
    p = 1 gives 2**64, above every word.
    """
    return math.ceil(p * 2.0 ** 53) << 11


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_phrase_table(embeddings: dict[str, np.ndarray], corpus: tuple[str, ...],
                       distributions: list[SymptomDistribution]) -> PhraseTable:
    """Encode every corpus term and every positive-count symptom once.

    An unembeddable phrase raises UnembeddablePhraseError, naming it,
    before any client is synthesized. The command line never gets here:
    its loaders refuse such phrases first, so only a library caller that
    loads without embeddings reaches this raise. The table finds a
    distribution by its country, so two unequal distributions of one
    country raise ValueError naming it; one distribution may come twice.
    """
    by_country: dict[str, SymptomDistribution] = {}
    for d in distributions:
        if by_country.setdefault(d.country, d) != d:
            raise ValueError(f"two different distributions of country {d.country!r}")
    names = tuple(dict.fromkeys([*corpus,
                                 *(name for d in distributions for name, _ in d.entries)]))
    rows = {phrase: i for i, phrase in enumerate(names)}
    matrix = _read_only(np.stack([encode_phrase(embeddings, phrase) for phrase in names]))
    word_walks = {c: tuple((rows[name], word_threshold(p)) for name, p in d.entries)
                  for c, d in by_country.items()}
    negatives = {c: tuple(rows[t] for t in corpus if t.lower() not in d.prominent_lower)
                 for c, d in by_country.items()}
    return PhraseTable(matrix, names, word_walks, tuple(rows[t] for t in corpus), negatives,
                       by_country)


class LabeledExample(NamedTuple):
    """Provenance of one feature row: its label and the phrase it encodes."""

    label: int
    source_symptom: str


@dataclass(frozen=True)
class ClientDataset:
    """One simulated client's labeled training examples, as rows of a phrase table.

    Example i is row ``rows[i]`` of ``phrases.matrix``, labeled ``labels[i]``.
    ``examples`` is derived from these on each access and never stored.

    The constructor takes two 1-D arrays of one length, intp rows inside
    the table and float64 labels, each 0.0 or 1.0, as they are: no copy,
    no check. It makes them read-only in place. synthesize_client is the
    one package code that builds them.
    """

    phrases: PhraseTable = field(repr=False)
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        _read_only(self.rows)
        _read_only(self.labels)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def examples(self) -> tuple[LabeledExample, ...]:
        """(label, source phrase) of each example, aligned with ``rows``."""
        names = self.phrases.names
        return tuple(LabeledExample(label, names[row])
                     for row, label in zip(self.rows.tolist(), self.labels.astype(int).tolist()))


# 64 words keep a block's array and list in numpy's and Python's small-block
# allocators; over 12 run_I_single calls in one process, 1,024-word blocks
# raised the peak RSS by 0.1-0.2 MB
_BLOCK_WORDS = 64
_UNIT = 2.0 ** -53
# laplace_dp's U is 0.0, which numpy redraws, for a word under _ZERO_WORDS, and 0.5 or
# more for a word from _HALF_WORD on
_ZERO_WORDS = word_threshold(_UNIT)
_HALF_WORD = word_threshold(0.5)
# a client's negative picks are replayed up to this many; numpy draws a larger batch
# faster (~10 us a batch against ~0.3 us a replayed pick, on a 2-core x86-64 host)
_REPLAYED_PICKS = 48

# PCG64 steps its 128-bit LCG state s to s * multiplier + inc before each raw word
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MASK = 2 ** 128 - 1


def _lcg_jumps(n: int) -> tuple[tuple[int, int], ...]:
    """(a, c) for d = 0..n steps: d steps take s to (a * s + c * inc) mod 2**128."""
    jumps, a, c = [], 1, 0
    for _ in range(n + 1):
        jumps.append((a, c))
        a, c = a * _PCG_MULTIPLIER & _PCG_MASK, (c * _PCG_MULTIPLIER + 1) & _PCG_MASK
    return tuple(jumps)


_JUMPS = _lcg_jumps(_BLOCK_WORDS)


class _RawWords:
    """A PCG64 generator's raw words, read ahead in blocks, and its state written back once.

    The replays read ``words[i]`` and call `more` when a block runs out;
    ``has`` and ``half`` are the state's kept 32-bit half, which a 32-bit
    draw takes before a fresh word. Words read ahead but not used are
    given back by `close`, which writes the state that numpy's own draws
    would have left: the LCG stepped once per word used, and the kept
    half. Blocks hold at most `_BLOCK_WORDS` words.
    """

    __slots__ = ("rng", "_state", "_lcg", "words", "i", "has", "half")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._state = state = rng.bit_generator.state
        self._lcg = state["state"]["state"]  # the LCG state before the current block
        self.has, self.half = state["has_uint32"], state["uinteger"]
        self.words, self.i = [], 0

    def more(self, wanted: int) -> list:
        """The next block, of min(wanted, _BLOCK_WORDS) words but at least one, read from 0."""
        a, c = _JUMPS[len(self.words)]
        self._lcg = (a * self._lcg + c * self._state["state"]["inc"]) & _PCG_MASK
        bitgen = self.rng.bit_generator
        # random_raw() skips the array for a block of one
        self.words = (bitgen.random_raw(min(wanted, _BLOCK_WORDS)).tolist() if wanted > 1
                      else [bitgen.random_raw()])
        return self.words

    def close(self) -> None:
        """Leave the generator after the words used, with the kept half, as numpy would."""
        a, c = _JUMPS[self.i]
        state = self._state
        state["state"]["state"] = (a * self._lcg + c * state["state"]["inc"]) & _PCG_MASK
        state["has_uint32"], state["uinteger"] = self.has, self.half
        self.rng.bit_generator.state = state


def _replay_walks(entries, terms, noise: NoiseMechanism, raw: _RawWords, n_persons: int,
                  out: list) -> None:
    """Walk n_persons persons (see the module docstring) from raw's words, appending their items.

    `entries` are (item, word threshold) pairs (`word_threshold` of each
    probability). The draws come in the walk's order and give numpy's
    items, and raw ends where the generator would, kept 32-bit half
    included. Each numpy draw is a plain function of the words:

    - ``rng.random() < p`` is ``w < word_threshold(p)`` of one word;
    - ``rng.integers(k)`` is Lemire's method on 32-bit halves. A fresh
      word gives its low half and keeps its high half for the next
      32-bit draw (the state's ``has_uint32`` and ``uinteger``). A draw
      is redrawn while ``(r * k) & 0xFFFFFFFF < (2**32 - k) % k``;
    - laplace_dp's ``rng.laplace(0.0, scale)`` draws U, redrawing 0.0.
      It fires when ``0.0 - scale * log(2.0 - U - U)`` exceeds the level
      for U >= 0.5; below 0.5 its value is at most 0, so it never fires.

    A block asks for three words for each symptom left, and a few more: a
    walk under noise uses about two, and each pick about one half word,
    so a small client's survey takes one block. Only for uniform_threshold
    or laplace_dp. numpy picks among more than 2**32 terms with 64-bit
    draws, which this does not replay; a phrase table never holds that
    many rows.
    """
    k = len(terms)
    reject_below = (2**32 - k) % k if k else 0
    laplace = noise.kind == LAPLACE_DP
    scale = 1.0 / noise.epsilon if laplace else 0.0
    level = noise.noise_level
    fires_below = word_threshold(level)
    total = n_persons * len(entries)
    append = out.append
    words, i, has, half = raw.words, raw.i, raw.has, raw.half
    n = len(words)
    for j, (item, threshold) in enumerate(islice(cycle(entries), total)):
        if i == n:
            words, i = raw.more(3 * (total - j) + 4), 0
            n = len(words)
        w = words[i]
        i += 1
        if w < threshold:
            append(item)
            continue
        if i == n:
            words, i = raw.more(3 * (total - j) + 4), 0
            n = len(words)
        w = words[i]
        i += 1
        if laplace:
            while w < _ZERO_WORDS:  # numpy redraws U == 0.0
                if i == n:
                    words, i = raw.more(3 * (total - j) + 4), 0
                    n = len(words)
                w = words[i]
                i += 1
            if w < _HALF_WORD:
                continue
            u = (w >> 11) * _UNIT
            if 0.0 - scale * math.log(2.0 - u - u) <= level:
                continue
        elif w >= fires_below:
            continue
        if k < 2:  # k == 1 draws nothing; k == 0 raises numpy's own error
            append(terms[raw.rng.integers(k)])
            continue
        while True:
            if has:
                has, r = 0, half
            else:
                if i == n:
                    words, i = raw.more(3 * (total - j) + 4), 0
                    n = len(words)
                w = words[i]
                i += 1
                has, half, r = 1, w >> 32, w & 0xFFFFFFFF
            m = r * k
            if m & 0xFFFFFFFF >= reject_below:
                break
        append(terms[m >> 32])
    raw.i, raw.has, raw.half = i, has, half


def _replay_picks(raw: _RawWords, pool, n_picks: int, out: list) -> None:
    """Append ``pool[j]`` for each j of ``rng.integers(len(pool), size=n_picks)``, replayed.

    numpy's draws of a size-n array under 2**32 are the scalar draw's
    Lemire method, once per value, on the same 32-bit halves, the kept
    half first (see `_replay_walks`). A pool of one draws nothing, and an
    empty pool raises numpy's own error.
    """
    k = len(pool)
    if k < 2:
        out.extend(pool[j] for j in raw.rng.integers(k, size=n_picks).tolist())
        return
    reject_below = (2**32 - k) % k
    append = out.append
    words, i, has, half = raw.words, raw.i, raw.has, raw.half
    n = len(words)
    for left in range(n_picks, 0, -1):
        while True:
            if has:
                has, r = 0, half
            else:
                if i == n:
                    # a word gives two picks
                    words, i = raw.more((left + 1) // 2), 0
                    n = len(words)
                w = words[i]
                i += 1
                has, half, r = 1, w >> 32, w & 0xFFFFFFFF
            m = r * k
            if m & 0xFFFFFFFF >= reject_below:
                break
        append(pool[m >> 32])
    raw.i, raw.has, raw.half = i, has, half


def synthesize_client(n_persons: int, dist: SymptomDistribution, noise: NoiseMechanism,
                      phrases: PhraseTable, rng: np.random.Generator) -> ClientDataset:
    """Simulate n_persons respondents and build the balanced dataset.

    Draw order is fixed: all persons, then the negative corpus picks as
    one batch, then one shuffle. Changing it would change every dataset
    produced from a given stream. `phrases` must be built from a list of
    distributions that includes `dist`, or one equal to it, and any other
    dist is refused with ValueError before any draw; the persons walk its
    rows (``word_walks[dist.country]``, ``term_rows``), so no phrase is looked
    up, and no example object or feature row is made, per example.
    n_persons must be an integer of at least 1 (a bool is refused),
    checked before any draw.

    On a PCG64 generator under uniform_threshold or laplace_dp, the
    persons' walks are replayed from raw words (`_replay_walks`), and so
    are the negative picks of up to _REPLAYED_PICKS positives
    (`_replay_picks`), with the same draws; the generator's state is
    written once before numpy draws the rest. Over one CLI call's clients
    (seed 1, interleaved repeats on a shared 2-core x86-64 host) that
    takes ~25 us a run_IV_wide client of 1-2 persons against ~38 us with
    the walks alone replayed and numpy's batch of picks, and ~4.1 ms a
    run_I_single client of 1,800 persons against ~6.4 ms. Under
    normal_threshold a display draw is one raw word, the normal and term
    draws and the picks numpy's calls: nothing is read ahead, so no state
    is written back. rng must be a PCG64 generator, as every rng.py
    stream is; any other is refused, also before any draw.
    """
    # True would synthesize one person
    check_number("n_persons", n_persons, numbers.Integral)
    if n_persons < 1:
        raise ValueError("n_persons must be at least 1")
    if type(rng.bit_generator) is not np.random.PCG64:
        raise ValueError(f"synthesize_client needs a PCG64 generator, "
                         f"got {type(rng.bit_generator).__name__}")
    # the rows are the table's own distribution's: `is` first, as every run's clients pass it
    own = phrases.distributions.get(dist.country)
    if own is not dist and own != dist:
        raise ValueError(f"the phrase table was not built from this distribution of "
                         f"{dist.country!r}")

    terms, pool = phrases.term_rows, phrases.negatives[dist.country]
    emitted: list[int] = []  # the positives' rows, then the replayed negatives'
    if noise.kind != NORMAL_THRESHOLD:
        raw = _RawWords(rng)
        _replay_walks(phrases.word_walks[dist.country], terms, noise, raw, n_persons,
                      emitted)
        n_pos = len(emitted)
        if n_pos <= _REPLAYED_PICKS and pool:
            _replay_picks(raw, pool, n_pos, emitted)
        raw.close()
    else:
        # random_raw() gives the word rng.random() would turn into the display draw
        word, normal, pick = rng.bit_generator.random_raw, rng.standard_normal, rng.integers
        walk, level, k = phrases.word_walks[dist.country], noise.noise_level, len(terms)
        for row, threshold in islice(cycle(walk), n_persons * len(walk)):
            if word() < threshold:
                emitted.append(row)
            elif normal() < level:
                emitted.append(terms[pick(k)])
        n_pos = len(emitted)

    if not n_pos:
        return ClientDataset(phrases, np.empty(0, np.intp), np.empty(0))
    if not pool:
        raise ValueError("corpus has no terms outside the prominent-symptom set")

    rows = np.array(emitted, dtype=np.intp)
    if len(rows) == n_pos:  # the picks were not replayed: numpy draws them
        rows = np.concatenate([rows, np.take(pool, rng.integers(len(pool), size=n_pos))])
    order = rng.permutation(2 * n_pos)
    # positives come first before the shuffle, so a row is positive iff it came from [0, n_pos);
    # every row comes from the table's walks and negatives, so nothing needs re-checking
    return ClientDataset(phrases, rows[order], (order < n_pos).astype(np.float64))
