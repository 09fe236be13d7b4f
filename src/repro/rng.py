"""Counter-based deterministic random number generation.

Every stochastic decision in the simulator is a pure function of
``(seed, stream key, counters)``.  This gives two properties that ordinary
sequential generators (``random.Random``, ``numpy.random.Generator``) lack:

* **Order independence** — the outcome for host *h* does not depend on how
  many other hosts were evaluated first.  The vectorized scan path and the
  scalar per-host path therefore agree bit-for-bit.
* **Stable replay** — re-running any slice of a campaign (one origin, one
  trial, one host) reproduces exactly the same draws.

The mixing function is splitmix64 (Steele, Lea & Flood 2014), applied to a
running fold of the key material.  It passes BigCrush when used as a plain
generator and is more than adequate as a hash-style RNG for simulation.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Accepted key-component types.
KeyPart = Union[int, str]


def _mix_scalar(x: int) -> int:
    """One splitmix64 finalization round over a Python int."""
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def _fold_part(state: int, part: KeyPart) -> int:
    """Fold one key component (int or str) into a 64-bit state."""
    if isinstance(part, str):
        for byte in part.encode("utf-8"):
            state = _mix_scalar(state ^ byte)
        return _mix_scalar(state ^ len(part))
    if isinstance(part, (int, np.integer)):
        return _mix_scalar(state ^ (int(part) & _MASK64))
    raise TypeError(f"RNG key parts must be int or str, got {type(part)!r}")


def weighted_pick(items: Sequence, weights: Sequence[float], u: float):
    """The element of ``items`` that the uniform ``u`` in [0, 1) selects.

    :meth:`CounterRNG.weighted_choice` for a uniform drawn elsewhere (e.g.
    one element of :func:`fold_uniform`): ``u`` scales the weights' total
    and a running sum walks the items, so the same ``u`` picks the same
    element.
    """
    target = u * float(sum(weights))
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if target < acc:
            return item
    return items[-1]


def _mix_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalization over a uint64 array.

    Returns a new array and leaves ``x`` as it was: the first addition
    allocates the result, and every later step works on it in place.
    """
    x = x + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


class CounterRNG:
    """A keyed, counter-addressable random stream.

    A stream is identified by a 64-bit key derived from a seed plus an
    arbitrary sequence of int/str components.  Draws are addressed by
    integer counters rather than produced sequentially::

        rng = CounterRNG(7, "packet-loss", origin_id)
        u = rng.uniform(host_id, probe_no)          # scalar draw
        us = rng.uniform_array(host_ids, probe_no)  # one draw per host

    ``derive`` creates an independent sub-stream; two streams derived with
    different components never collide in practice.
    """

    __slots__ = ("key", "_key_u64")

    def __init__(self, seed: int, *stream: KeyPart) -> None:
        state = _mix_scalar(int(seed) & _MASK64)
        for part in stream:
            state = _fold_part(state, part)
        self.key = state
        self._key_u64 = np.uint64(state)

    def derive(self, *stream: KeyPart) -> "CounterRNG":
        """Return an independent sub-stream keyed by ``stream``."""
        child = CounterRNG.__new__(CounterRNG)
        state = self.key
        for part in stream:
            state = _fold_part(state, part)
        child.key = state
        child._key_u64 = np.uint64(state)
        return child

    # ------------------------------------------------------------------
    # Scalar draws
    # ------------------------------------------------------------------

    def bits(self, *counters: KeyPart) -> int:
        """64 pseudo-random bits addressed by ``counters`` (ints or strs)."""
        state = self.key
        for c in counters:
            state = _fold_part(state, c)
        return _mix_scalar(state)

    def uniform(self, *counters: int) -> float:
        """A float in [0, 1) addressed by ``counters``."""
        return (self.bits(*counters) >> 11) * (1.0 / (1 << 53))

    def bernoulli(self, p: float, *counters: int) -> bool:
        """True with probability ``p``, addressed by ``counters``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.uniform(*counters) < p

    def randint(self, lo: int, hi: int, *counters: int) -> int:
        """An integer in [lo, hi) addressed by ``counters``."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        span = hi - lo
        return lo + self.bits(*counters) % span

    def exponential(self, mean: float, *counters: int) -> float:
        """An exponential variate with the given mean."""
        u = self.uniform(*counters)
        # Guard against log(0); u is in [0, 1) so 1 - u is in (0, 1].
        return -mean * float(np.log1p(-u))

    def choice(self, items: Sequence, *counters: int):
        """One element of ``items`` chosen uniformly."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.bits(*counters) % len(items)]

    def weighted_choice(self, items: Sequence, weights: Sequence[float],
                        *counters: int):
        """One element of ``items`` chosen with the given weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        if float(sum(weights)) <= 0.0:
            raise ValueError("weights must sum to a positive value")
        return weighted_pick(items, weights, self.uniform(*counters))

    def shuffled(self, items: Iterable, *counters: int) -> list:
        """A deterministically shuffled copy of ``items``."""
        out = list(items)
        sub = self.derive("shuffle", *[int(c) for c in counters])
        # Fisher-Yates driven by counter-addressed draws.
        for i in range(len(out) - 1, 0, -1):
            j = sub.bits(i) % (i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    # ------------------------------------------------------------------
    # Vectorized draws
    # ------------------------------------------------------------------

    def bits_array(self, counters: np.ndarray, *extra: int) -> np.ndarray:
        """64 pseudo-random bits per element of ``counters``.

        ``extra`` scalar counters are folded in before the per-element
        counter, so ``bits_array(ids, k)`` matches ``bits(k, i)`` — note the
        per-element counter is folded last in both paths.
        """
        state = self.key
        for c in extra:
            state = _fold_part(state, c)
        arr = np.asarray(counters, dtype=np.uint64)
        # Mirror the scalar path exactly: fold the per-element counter, then
        # apply the final output mix.
        return _mix_array(_mix_array(np.uint64(state) ^ arr))

    def uniform_array(self, counters: np.ndarray, *extra: int) -> np.ndarray:
        """Floats in [0, 1), one per element of ``counters``."""
        bits = self.bits_array(counters, *extra)
        return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))

    def bernoulli_array(self, p, counters: np.ndarray,
                        *extra: int) -> np.ndarray:
        """Boolean array, each True with probability ``p``.

        ``p`` may be a scalar or an array broadcastable to ``counters``.
        """
        return self.uniform_array(counters, *extra) < p

    def exponential_array(self, mean, counters: np.ndarray,
                          *extra: int) -> np.ndarray:
        """Exponential variates, one per element of ``counters``."""
        u = self.uniform_array(counters, *extra)
        return -np.asarray(mean, dtype=np.float64) * np.log1p(-u)


def _mix_array_inplace(x: np.ndarray, scratch: np.ndarray) -> None:
    """One splitmix64 finalization round over ``x``, in place.

    Identical arithmetic to :func:`_mix_array` (uint64 wraparound, same
    operation order) but written through ``out=`` into ``x`` and the
    caller-provided ``scratch`` buffer, so hot loops — the vectorized
    bootstrap draws 500 × n of these — allocate nothing per call and
    keep their working set cache-resident.
    """
    np.add(x, np.uint64(_GOLDEN), out=x)
    np.right_shift(x, np.uint64(30), out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, np.uint64(_MIX1), out=x)
    np.right_shift(x, np.uint64(27), out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, np.uint64(_MIX2), out=x)
    np.right_shift(x, np.uint64(31), out=scratch)
    np.bitwise_xor(x, scratch, out=x)


def keyed_bits_into(keys: np.ndarray, counters: np.ndarray,
                    out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Draw ``bits_array(counters)`` for a block of pre-derived stream keys.

    ``out`` and ``scratch`` are the caller's flat, contiguous uint64
    buffers of ``len(keys) * len(counters)`` elements; row *r* of
    ``out`` (its *r*-th run of ``len(counters)`` elements) receives
    stream ``keys[r]``'s draws, and ``out`` is returned.  Bit-identical
    to ``CounterRNG`` with ``key == keys[r]`` → ``bits_array(counters)``
    row by row; the allocation-free twin of :func:`keyed_bits_array`,
    which hashes the whole block in each numpy call.
    """
    np.bitwise_xor(counters, keys[:, None],
                   out=out.reshape(len(keys), len(counters)))
    _mix_array_inplace(out, scratch)
    _mix_array_inplace(out, scratch)
    return out


def keyed_bits_array(keys: np.ndarray,
                     counters: np.ndarray) -> np.ndarray:
    """64 pseudo-random bits where element *i* draws from stream ``keys[i]``.

    ``keys`` carries pre-derived stream keys (:attr:`CounterRNG.key`);
    ``keys`` and ``counters`` broadcast against each other, so a
    ``(replicates, 1)`` key column against a ``(1, n)`` counter row
    yields a full ``(replicates, n)`` draw matrix in one call — the
    vectorized-bootstrap workhorse.  Bit-identical to calling
    ``CounterRNG`` with ``key == keys[i]`` → ``bits_array(counters)``
    element by element.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    return _mix_array(_mix_array(keys ^ counters))


def fold_keys(keys: np.ndarray, *stream) -> np.ndarray:
    """:meth:`CounterRNG.derive` over an array of stream keys.

    ``keys`` carries stream keys (:attr:`CounterRNG.key`).  Each part of
    ``stream`` is an int, a str, or an integer array that broadcasts
    against ``keys``; element *i* of the result is the key of
    ``derive(*stream)`` on the stream keyed ``keys[i]``, with every array
    part contributing its *i*-th element.  Bit-identical to the scalar
    fold: strings fold byte by byte and then their length.
    """
    state = np.asarray(keys, dtype=np.uint64)
    for part in stream:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                state = _mix_array(state ^ np.uint64(byte))
            state = _mix_array(state ^ np.uint64(len(part)))
        elif isinstance(part, (int, np.integer)):
            state = _mix_array(state ^ np.uint64(int(part) & _MASK64))
        else:
            state = _mix_array(
                state ^ np.asarray(part, dtype=np.int64).astype(np.uint64))
    return state


def fold_bits(keys: np.ndarray, *counters) -> np.ndarray:
    """:meth:`CounterRNG.bits` over an array of stream keys.

    Element *i* is ``bits(*counters)`` of the stream keyed ``keys[i]``;
    ``counters`` are folded as by :func:`fold_keys`, so an integer array
    counter gives element *i* its own counter.
    """
    return _mix_array(fold_keys(keys, *counters))


def fold_uniform(keys: np.ndarray, *counters) -> np.ndarray:
    """:meth:`CounterRNG.uniform` over an array of stream keys.

    Element *i* is ``uniform(*counters)`` of the stream keyed ``keys[i]``;
    ``counters`` may be strs as well as ints, as in the scalar draw, or
    integer arrays as in :func:`fold_keys`.
    """
    bits = fold_bits(keys, *counters)
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def keyed_uniform_array(keys: np.ndarray,
                        counters: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) where element *i* is drawn from stream ``keys[i]``.

    ``keys`` carries pre-derived stream keys (:attr:`CounterRNG.key`), one
    per element, so a single vectorized call can evaluate draws that
    belong to *different* streams — e.g. per-AS firewall-coverage draws
    concatenated across ASes.  Bit-identical to calling
    ``CounterRNG`` with ``key == keys[i]`` → ``uniform_array(counters)``
    element by element.
    """
    bits = keyed_bits_array(keys, counters)
    return (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def stream_keys(rng: CounterRNG,
                suffixes: Iterable[Sequence[KeyPart]]) -> np.ndarray:
    """Pre-derived stream keys, one per suffix tuple, as a uint64 array.

    ``stream_keys(rng, [("present", proto, t) for t in trials])`` is the
    array-of-trials twin of ``rng.derive("present", proto, t).key``: row
    *t* of the returned vector keys exactly the stream the scalar path
    would use for trial ``t``.  Feed the result to
    :func:`keyed_bits_lattice` / :func:`keyed_uniform_lattice` to draw a
    whole trial axis in one vectorized call.
    """
    keys = [rng.derive(*suffix).key for suffix in suffixes]
    return np.asarray(keys, dtype=np.uint64)


def keyed_bits_lattice(keys: np.ndarray,
                       counters: np.ndarray) -> np.ndarray:
    """A ``(len(keys), n)`` bit matrix: row *t* draws from stream ``keys[t]``.

    ``counters`` is either one shared ``(n,)`` counter vector (every row
    draws at the same addresses — e.g. host ids) or a ``(len(keys), n)``
    matrix (per-row addresses — e.g. per-trial epoch keys).  Row *t* is
    bit-identical to ``CounterRNG`` with ``key == keys[t]`` →
    ``bits_array(counters[t])``; batching over the trial axis is exact,
    not approximate.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    shared = counters.ndim == 1
    out = np.empty((len(keys), counters.shape[-1]), dtype=np.uint64)
    # Row-at-a-time on purpose: the temporaries of one row stay
    # cache-resident, where a single (T, n) evaluation would stream
    # T-times-larger intermediates through memory for the same hashes.
    for t in range(len(keys)):
        row = counters if shared else counters[t]
        out[t] = _mix_array(_mix_array(keys[t] ^ row))
    return out


def keyed_uniform_lattice(keys: np.ndarray,
                          counters: np.ndarray) -> np.ndarray:
    """A ``(len(keys), n)`` float matrix in [0, 1): row *t* from ``keys[t]``.

    The uniform twin of :func:`keyed_bits_lattice`; see there for the
    counter-broadcast contract.  This is the workhorse of the fused
    trial-batched observation kernel (:mod:`repro.sim.batch`): one call
    replaces one ``uniform_array`` call per trial.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    shared = counters.ndim == 1
    out = np.empty((len(keys), counters.shape[-1]), dtype=np.float64)
    for t in range(len(keys)):
        row = counters if shared else counters[t]
        bits = _mix_array(_mix_array(keys[t] ^ row))
        out[t] = (bits >> np.uint64(11)).astype(np.float64) \
            * (1.0 / (1 << 53))
    return out


def scalar_matches_vector(rng: CounterRNG, counter: int, *extra: int) -> bool:
    """True when the scalar and vector paths agree for one draw.

    Exposed for tests and for sanity checks in user code; the agreement is a
    core invariant of the simulator (see module docstring).
    """
    scalar = rng.bits(*extra, counter)
    vector = int(rng.bits_array(np.array([counter]), *extra)[0])
    return scalar == vector
