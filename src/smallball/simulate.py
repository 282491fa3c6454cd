"""Exact simulation of the processes the certificates are checked against.

Fractional Gaussian noise is sampled by circulant embedding in
O(N log N), exact in distribution: the minimal embedding is nonnegative
definite for every H in (0, 1) (Craigmile, J. Time Ser. Anal. 24, 2003).
Every path is a deterministic function of (seed, purpose, stream), via an
SFC64 generator keyed by a SeedSequence, so Monte Carlo results do not
depend on how work is split across workers.  Block samplers derive the
SFC64 states of all their streams in one numpy pass (``_sfc64_states``)
and draw every row from one reused generator.

Stream layout v2: each path's generator writes its normals straight into
the array the sampler transforms (for fGn, the interleaved real and
imaginary slots of the path's half-spectrum), and one in-place multiply
turns them into the spectral or increment values.

One kernel samples every block: ``_Sampler`` (a centered process of a
given law) and ``_Drift`` (the composition y = x + int a) do their set-up
once per block of streams and then run draws, spectral fill, irfft,
running sums and composition on one row slice at a time, in place, in
buffers every slice reuses.  The law of x, a Hurst index or the gaussian
kind's sampling factor, is derived once per call (``_x_law``) and shared
by its blocks.  ``_slices`` is the one rule that cuts a block into slices
of about 2^16 values (``_SLICE_VALUES``), the cache unit, one path at a
time for longer paths.  The Monte Carlo chunks of ``mcverify`` (the pool
and reduction unit) and the public blocks, ``fgn_increments_block`` and
``path_values_block`` (values of y), stream through the same slices, the
public blocks into a new array of their own.  A row's bytes do not
depend on the slice it is sampled in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import special as _special

from .errors import EmbeddingFailureError
from .gausscov import IncrementalVariance, _check_hurst, increment_covariance
from .paths import UniformGrid

__all__ = [
    "SeedSpec",
    "DistSpec",
    "DriftSpec",
    "ProcessSpec",
    "fgn_autocovariance",
    "fgn_increments_block",
    "iid_sums_block",
    "path_values_block",
]

PURPOSE_PROCESS = 0
PURPOSE_DRIFT = 1

# values per row slice: about what a 2 MiB L2 cache holds with its buffers
_SLICE_VALUES = 2**16


@dataclass(frozen=True)
class SeedSpec:
    """Addressable randomness: (seed, purpose, stream) -> generator.

    Distinct tuples give statistically independent SFC64 streams, seeded
    by ``SeedSequence(seed, spawn_key=(purpose, stream))``; equal tuples
    reproduce draws bit for bit regardless of worker scheduling.
    ``generator`` is the scalar reference definition of a stream; the
    block samplers reach the same states in bulk through
    ``_sfc64_states``.
    """

    seed: int
    stream: int = 0
    purpose: int = PURPOSE_PROCESS

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0 or self.purpose < 0:
            raise ValueError("seed, stream and purpose must be non-negative")

    def with_purpose(self, purpose: int) -> "SeedSpec":
        return SeedSpec(self.seed, self.stream, int(purpose))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.purpose), int(self.stream))
        )
        return np.random.Generator(np.random.SFC64(ss))


# numpy's SeedSequence constants (O'Neill's seed_seq design)
_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words32(n: int) -> list:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits it."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hashmix(value, h, mult=_MULT_A):
    """SeedSequence's hashmix of a word (int or uint32 array) under the
    hash constant h; returns the hashed word and the next constant."""
    h_next = (h * mult) & _M32
    value = ((value ^ h) * h_next) & _M32
    return value ^ (value >> 16), h_next


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _absorb(pool, word, h):
    """Mix one entropy word into every pool word; returns the next constant."""
    for i in range(_POOL):
        hashed, h = _hashmix(word, h)
        pool[i] = _mix(pool[i], hashed)
    return h


def _sfc64_states(seed: int, purpose: int, streams) -> np.ndarray:
    """(B, 4) uint64 states of ``SFC64(SeedSequence(seed, spawn_key=(purpose,
    s)))`` for each stream id s in ``streams``, bit for bit.

    The seed and purpose words enter the pool once, in plain Python; the
    stream words (one below 2^32, two below 2^64, selected per row by a
    mask) are mixed in uint32 arithmetic across the block, followed by
    ``generate_state(3, uint64)`` and SFC64's 12 seeding rounds in uint64.
    """
    ids = streams
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
        # exact Python ints: numpy would round a list holding 2^63.. to float
        ids = np.array([int(s) for s in ids], dtype=object)
    ids = ids.reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= 2**64):
        raise ValueError(
            f"stream ids must lie in [0, 2**64), got {ids.min()}..{ids.max()}"
        )
    ids = ids.astype(np.uint64)
    # the seed is padded to the pool size before the spawn key is appended
    entropy = _words32(int(seed))
    entropy += [0] * (_POOL - len(entropy)) + _words32(int(purpose))
    h = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        hashed, h = _hashmix(word, h)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL:]:
        h = _absorb(pool, word, h)
    pool = [np.full(ids.size, word, dtype=np.uint32) for word in pool]
    h = _absorb(pool, (ids & _M32).astype(np.uint32), h)
    high = (ids >> 32).astype(np.uint32)
    longer = list(pool)
    _absorb(longer, high, h)
    two_words = high != 0
    pool = [np.where(two_words, b, a) for a, b in zip(pool, longer)]
    # generate_state(3, uint64): six words cycled from the pool
    h = _INIT_B
    words = []
    for i in range(6):
        word, h = _hashmix(pool[i % _POOL], h, _MULT_B)
        words.append(word.astype(np.uint64))
    s0, s1, s2 = (words[2 * j] | (words[2 * j + 1] << 32) for j in range(3))
    # SFC64 seeding: 12 rounds from counter 1
    for counter in range(1, 13):
        tmp = s0 + s1 + np.uint64(counter)
        s0 = s1 ^ (s1 >> 11)
        s1 = s2 + (s2 << 3)
        s2 = ((s2 << 24) | (s2 >> 40)) + tmp
    return np.stack([s0, s1, s2, np.full(ids.size, 13, dtype=np.uint64)], axis=1)


def _generators(states, rng: np.random.Generator):
    """Yield ``rng`` set to each SFC64 state of ``states`` in turn, so it
    draws what ``SeedSpec(seed, s, purpose).generator()`` would for the
    stream s of that state.  Each row's draws must be taken before the next
    row is requested.
    """
    bitgen = rng.bit_generator
    for state in states:
        bitgen.state = {"bit_generator": "SFC64", "state": {"state": state},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def fgn_autocovariance(H: float, lags) -> np.ndarray:
    """Autocorrelation of unit-variance fractional Gaussian noise.

    rho_H(k) = ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}) / 2.
    """
    _check_hurst(H)
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * H
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


@lru_cache(maxsize=32)
def _embedding_eigenvalues(H: float, N: int) -> np.ndarray:
    """Eigenvalues of the length-2N circulant extension of rho_H."""
    rho = fgn_autocovariance(H, np.arange(N + 1))
    row = np.concatenate([rho, rho[-2:0:-1]]) if N > 1 else rho
    lam = np.fft.fft(row).real
    tol = 1e-10 * lam.max()
    if lam.min() < -tol:
        raise EmbeddingFailureError(
            f"circulant embedding indefinite for H={H}, N={N}: "
            f"min eigenvalue {lam.min():.3e}"
        )
    lam = lam.copy()
    lam[lam < 0] = 0.0
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=32)
def _spectral_coefficients(H: float, N: int, delta: float) -> np.ndarray:
    """Per-slot multipliers taking the 2N+2 interleaved draws
    (Re_0, Im_0, .., Re_N, Im_N) of one path to its half-spectrum at mesh
    delta.

    With m = 2N, slot pair k holds m * sqrt(lambda_k / 2m) for 0 < k < N;
    k = 0 and k = N are real (m * sqrt(lambda_k / m) on Re, exactly 0 on
    Im), so irfft of the product is m times the length-m FFT of the
    hermitian vector, the circulant-embedding sample at unit mesh; every
    slot is then scaled by delta^H.
    """
    lam = _embedding_eigenvalues(H, N)
    m = 2 * N
    c = np.repeat(m * np.sqrt(lam[: N + 1] / (2.0 * m)), 2)
    c[[0, 2 * N]] = m * np.sqrt(lam[[0, N]] / m)
    c[[1, 2 * N + 1]] = 0.0
    c *= delta**H
    c.setflags(write=False)
    return c


def _fgn_from_draws(H: float, N: int, delta: float, draws: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Map (B, 2N+2) interleaved spectral draws to (B, N) fGn increments.

    ``draws`` is overwritten with the half-spectrum; the result is a view
    into the (B, 2N) irfft output, ``out`` when given.
    """
    draws *= _spectral_coefficients(H, N, delta)
    return np.fft.irfft(draws.view(complex), n=2 * N, axis=1, out=out)[:, :N]


class _Sampler:
    """A block of streams of one centered Gaussian process on N steps of
    width delta, sampled one row slice at a time into buffers of ``rows``
    rows that every slice reuses.

    ``law`` is a Hurst index H (fGn increments) or a sampling factor F
    (increments z F^T).  The set-up runs once per block: the SFC64 states
    of its streams and the spectral coefficients (fGn with H != 1/2,
    cached per (H, N, delta)).  ``increments(lo, hi)`` and ``values(lo,
    hi)`` sample rows lo..hi-1 of the block and return views into the
    buffers, which the next call overwrites.  A row depends only on its
    stream, not on the slice it is sampled in.
    """

    def __init__(self, N: int, delta: float, seed: SeedSpec, streams, rows: int,
                 law):
        self._states = _sfc64_states(seed.seed, seed.purpose, streams)
        self._rng = np.random.Generator(np.random.SFC64(0))
        self._N, self._delta, self._law = N, delta, law
        self._values = np.empty((rows, N + 1))
        self._values[:, 0] = 0.0
        if isinstance(law, np.ndarray):
            self._draws = np.empty((rows, N))
            self._inc = np.empty((rows, N))
        elif law == 0.5:
            # embedding eigenvalues are identically 1: increments are iid,
            # drawn where their running sums go
            self._draws = self._inc = self._values[:, 1:]
        else:
            # each path draws its half-spectrum in place, as (Re_k, Im_k)
            self._draws = np.empty((rows, N + 1), dtype=complex).view(float)
            self._wave = np.empty((rows, 2 * N))
            self._inc = self._wave[:, :N]

    def increments(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, N) increments of rows lo..hi-1 of the block."""
        r = hi - lo
        draws = self._draws[:r]
        for row, rng in zip(draws, _generators(self._states[lo:hi], self._rng)):
            rng.standard_normal(out=row)
        if isinstance(self._law, np.ndarray):
            # numpy takes a one-row product through gemv, whose sums differ
            # in the last bits from gemm's, and gemm rows do not depend on
            # the row count: a lone row is multiplied with a stale neighbour
            m = min(max(r, 2), len(self._draws))
            np.matmul(self._draws[:m], self._law.T, out=self._inc[:m])
        elif self._law != 0.5:
            _fgn_from_draws(self._law, self._N, self._delta, draws,
                            out=self._wave[:r])
        else:
            draws *= self._delta**self._law
        return self._inc[:r]

    def values(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, N+1) running sums of the increments, from 0."""
        out = self._values[: hi - lo]
        np.cumsum(self.increments(lo, hi), axis=1, out=out[:, 1:])
        return out


def _slices(n: int, N: int):
    """(rows, [(lo, hi), ..]): the row slices of a block of n paths on N
    steps, and the rows of the largest.

    A slice holds max(1, _SLICE_VALUES // N) rows, at most n: about 2^16
    values, so that the slice's buffers stay in a 2 MiB L2 cache from the
    draws to the counts (8 rows at N = 8192, 64 at N = 1024).  An empty
    block has no slices.
    """
    rows = max(1, min(n, _SLICE_VALUES // N))
    return rows, [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def fgn_increments_block(
    H: float, N: int, delta: float, seed: SeedSpec, streams
) -> np.ndarray:
    """Sample len(streams) independent fGn vectors, one per stream id.

    Returns a new (len(streams), N) array with Cov(Y_i, Y_j) =
    delta^{2H} * rho_H(|i-j|).  Row b depends only on
    (seed.seed, seed.purpose, streams[b]).
    """
    _check_hurst(H)
    if N < 1:
        raise ValueError("N must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rows, slices = _slices(len(streams), N)
    sampler = _Sampler(N, delta, seed, streams, rows, H)
    out = np.empty((len(streams), N))
    for lo, hi in slices:
        out[lo:hi] = sampler.increments(lo, hi)
    return out


# ---------------------------------------------------------------------------
# iid partial sums


@dataclass(frozen=True)
class DistSpec:
    """Bounded scalar distribution on [low, high] with exact E|Z|.

    kinds: "uniform", "rademacher", "scaled_beta" (affine image of a
    Beta(a, b) variable).
    """

    kind: str
    low: float
    high: float
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "rademacher", "scaled_beta"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (self.low < self.high):
            raise ValueError("need low < high")
        if self.kind == "scaled_beta" and (self.a <= 0 or self.b <= 0):
            raise ValueError("beta parameters must be positive")

    @classmethod
    def uniform(cls, low: float, high: float) -> "DistSpec":
        return cls("uniform", float(low), float(high))

    @classmethod
    def rademacher(cls) -> "DistSpec":
        return cls("rademacher", -1.0, 1.0)

    @classmethod
    def scaled_beta(cls, a: float, b: float, low: float, high: float) -> "DistSpec":
        return cls("scaled_beta", float(low), float(high), float(a), float(b))

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.low + self.high)
        if self.kind == "rademacher":
            return 0.0
        return self.low + (self.high - self.low) * self.a / (self.a + self.b)

    @property
    def mean_abs(self) -> float:
        """E|Z|, exact per family (no quadrature)."""
        c, d = self.low, self.high
        if self.kind == "rademacher":
            return 1.0
        if c >= 0:
            return self.mean
        if d <= 0:
            return -self.mean
        if self.kind == "uniform":
            return (c * c + d * d) / (2.0 * (d - c))
        # scaled beta straddling zero: E|Z| = EZ - 2 E[Z; Z < 0], with the
        # partial moment expressed through regularized incomplete betas
        a, b = self.a, self.b
        z0 = -c / (d - c)
        cdf = _special.betainc(a, b, z0)
        partial = (a / (a + b)) * _special.betainc(a + 1.0, b, z0)
        below = c * cdf + (d - c) * partial
        return self.mean - 2.0 * below

    @property
    def abs_bound(self) -> float:
        """sup |Z| = |low| v |high|."""
        return max(abs(self.low), abs(self.high))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size)
        if self.kind == "rademacher":
            return rng.integers(0, 2, size) * 2.0 - 1.0
        return self.low + (self.high - self.low) * rng.beta(self.a, self.b, size)


def iid_sums_block(dist: DistSpec, n: int, seed: SeedSpec, streams) -> np.ndarray:
    """Partial-sum trajectories S_0..S_n, one row per stream: (B, n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.zeros((len(streams), n + 1))
    states = _sfc64_states(seed.seed, seed.purpose, streams)
    rng = np.random.Generator(np.random.SFC64(0))
    for row, rng in zip(out, _generators(states, rng)):
        np.cumsum(dist.sample(rng, n), out=row[1:])
    return out


# ---------------------------------------------------------------------------
# drift and process composition


@dataclass(frozen=True)
class DriftSpec:
    """Drift integrand a(t) added to the process as y = x + int_0^t a ds.

    kinds:
      none         -- a = 0
      constant     -- a = level
      bounded_wave -- a(t) = amplitude * sin(2 pi frequency t)
      fbm          -- independent fBm with Hurst H2 (purpose-1 stream)
      shared_fbm   -- a(t) = x(t), the simulated process itself
    """

    kind: str = "none"
    level: float = 0.0
    amplitude: float = 1.0
    frequency: float = 1.0
    H2: float = 0.5

    def __post_init__(self):
        if self.kind not in ("none", "constant", "bounded_wave", "fbm", "shared_fbm"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "fbm":
            _check_hurst(self.H2)

    def deterministic_values(self, grid: UniformGrid) -> Optional[np.ndarray]:
        if self.kind == "none":
            return np.zeros(grid.N + 1)
        if self.kind == "constant":
            return np.full(grid.N + 1, self.level)
        if self.kind == "bounded_wave":
            return self.amplitude * np.sin(2.0 * np.pi * self.frequency * grid.times)
        return None

    def sup_bound(self) -> Optional[float]:
        """Almost-sure bound on |a|, when one exists."""
        if self.kind == "none":
            return 0.0
        if self.kind == "constant":
            return abs(self.level)
        if self.kind == "bounded_wave":
            return abs(self.amplitude)
        return None


@dataclass(frozen=True)
class ProcessSpec:
    """What to simulate: the centered process x plus an optional drift."""

    kind: str
    H: float = 0.5
    drift: DriftSpec = DriftSpec()
    sigma2: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if self.kind not in ("fbm", "bm", "gaussian"):
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.kind == "fbm":
            _check_hurst(self.H)
        if self.kind == "bm" and self.H != 0.5:
            raise ValueError(f"bm has Hurst index 0.5, got H={self.H}")
        if self.kind == "gaussian" and self.sigma2 is None:
            raise ValueError("gaussian kind requires a sigma2 callable")

    def label(self) -> str:
        if self.kind == "fbm":
            base = f"fbm(H={self.H})"
        elif self.kind == "bm":
            base = "bm"
        else:
            base = "gaussian"
        return base if self.drift.kind == "none" else f"{base}+{self.drift.kind}"


def _x_law(spec: ProcessSpec, grid: UniformGrid):
    """The law of spec's centered process x on grid, as ``_Sampler`` takes
    it: the Hurst index, or for the gaussian kind the sampling factor of
    its increment covariance."""
    if spec.kind != "gaussian":
        return spec.H
    cov = increment_covariance(IncrementalVariance(spec.sigma2), grid)
    return cov.sampling_factor()


class _Drift:
    """A drift over a block of streams, a row slice at a time.

    A deterministic drift is integrated once per block.  A random
    integrand is sampled on first use: ``shared_fbm`` is x itself, of law
    ``law`` on the streams of ``seed`` (purpose 0), and an independent fbm
    drift samples the purpose-1 substream of each stream id, so it cannot
    perturb the process draws.
    """

    def __init__(self, drift: DriftSpec, law, grid: UniformGrid,
                 seed: SeedSpec, streams, rows: int):
        self._block = (drift, law, grid, seed, streams, rows)
        self._kind, self._delta = drift.kind, grid.delta
        self._det = drift.deterministic_values(grid)
        if self._det is not None:
            # left Riemann sums of delta * a, from 0
            self._integral = np.zeros(grid.N + 1)
            np.cumsum(self._det[:-1], out=self._integral[1:])
            self._integral *= grid.delta

    @cached_property
    def _paths(self) -> _Sampler:
        drift, law, grid, seed, streams, rows = self._block
        if self._kind == "shared_fbm":
            return _Sampler(grid.N, grid.delta, seed, streams, rows, law)
        return _Sampler(grid.N, grid.delta, seed.with_purpose(PURPOSE_DRIFT),
                        streams, rows, drift.H2)

    def integrand(self, lo: int, hi: int) -> np.ndarray:
        """The integrand a on rows lo..hi-1: one (N+1,) row shared by every
        stream for a deterministic drift, else (hi - lo, N+1)."""
        return self._det if self._det is not None else self._paths.values(lo, hi)

    def compose(self, x, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """y = x + int_0^t a ds on rows lo..hi-1 into ``out``, the integral a
        left Riemann sum; without a drift, x itself."""
        if self._kind == "none":
            return x
        if self._det is not None:
            return np.add(x, self._integral, out=out)
        # shared_fbm integrates the x values it is given
        a = x if self._kind == "shared_fbm" else self._paths.values(lo, hi)
        out[:, 0] = 0.0
        np.cumsum(a[:, :-1], axis=1, out=out[:, 1:])
        out *= self._delta
        out += x
        return out


def path_values_block(
    spec: ProcessSpec, grid: UniformGrid, seed: SeedSpec, streams
) -> np.ndarray:
    """Values of y = x + int_0^t a ds on the grid for a block of streams:
    (B, N+1), the integral a left Riemann sum; without a drift, x itself."""
    rows, slices = _slices(len(streams), grid.N)
    law = _x_law(spec, grid)
    seed = seed.with_purpose(PURPOSE_PROCESS)
    x = _Sampler(grid.N, grid.delta, seed, streams, rows, law)
    drift = _Drift(spec.drift, law, grid, seed, streams, rows)
    out = np.empty((len(streams), grid.N + 1))
    for lo, hi in slices:
        # numpy skips the copy when compose wrote into out's own rows
        out[lo:hi] = drift.compose(x.values(lo, hi), lo, hi, out[lo:hi])
    return out
