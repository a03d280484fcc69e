"""Code generation: brute-force oracles, algebraic identity, code checks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from aoimux import codes, demux, fileio
from aoimux.errors import InvalidOrder

# hand-derived list of primes p <= 103 with p = 3 (mod 4)
VALID_ORDERS_TO_103 = [3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103]


def brute_force_sequences(n):
    """All length-n binary vectors whose circulant satisfies the identity.

    Independent oracle: checks S S^T == ((n+1)/4)(I + J) by direct
    enumeration, no shared code with the generator.
    """
    target = ((n + 1) // 4) * (np.eye(n, dtype=int) + np.ones((n, n), dtype=int))
    hits = []
    for bits in itertools.product((0, 1), repeat=n):
        s = np.empty((n, n), dtype=int)
        for r in range(n):
            for c in range(n):
                s[r, c] = bits[(c - r) % n]
        if np.array_equal(s @ s.T, target):
            hits.append(bits)
    return hits


def trial_division_order(n):
    """Independent oracle: n is prime, 3 mod 4 and at most MAX_ORDER."""
    if n < 3 or n % 4 != 3 or n > codes.MAX_ORDER:
        return False
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


class TestValidateOrder:
    def test_reference_order_79(self):
        assert codes.validate_order(79)

    def test_composite_rejected(self):
        assert not codes.validate_order(4)

    def test_prime_of_wrong_residue_rejected(self):
        # 13 is prime but 13 = 1 (mod 4)
        assert not codes.validate_order(13)

    def test_total_function_on_small_inputs(self):
        assert not codes.validate_order(1)
        assert not codes.validate_order(2)
        assert codes.validate_order(3)

    def test_equals_trial_division(self):
        # negative n must not wrap around into the table
        for n in range(-10, 200_000):
            assert codes.validate_order(n) == trial_division_order(n), n

    def test_above_cap_rejected(self):
        # 2^21 - 9 = 2097143 and 2^61 - 1 are primes = 3 mod 4
        for n in [*range(codes.MAX_ORDER + 1, codes.MAX_ORDER + 9), 2097143, 2**61 - 1]:
            assert not codes.validate_order(n), n

    def test_valid_orders_listing(self):
        assert codes.valid_orders(103) == VALID_ORDERS_TO_103

    def test_valid_orders_every_small_limit(self):
        for limit in range(-1, 104):
            assert codes.valid_orders(limit) == [n for n in VALID_ORDERS_TO_103 if n <= limit]

    def test_valid_orders_count_at_max_order(self):
        orders = codes.valid_orders(codes.MAX_ORDER)
        assert len(orders) == 41072
        assert orders[-1] == 1048571
        assert all(type(n) is int for n in orders[:3])

    def test_valid_orders_capped(self):
        assert codes.valid_orders(2**21) == codes.valid_orders(codes.MAX_ORDER)

    def test_huge_limit_allocates_nothing_new(self):
        # an uncapped sieve to 10^12 would need 250 GB
        codes.valid_orders(3)  # builds the table
        tracemalloc.start()
        try:
            orders = codes.valid_orders(10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert orders == codes.valid_orders(codes.MAX_ORDER)
        assert peak < 8 * 2**20


class TestResidueBits:
    @pytest.mark.parametrize("n", [*VALID_ORDERS_TO_103, 1019, 1031])
    def test_bits_are_zero_and_the_quadratic_residues(self, n):
        residues = {k * k % n for k in range(1, (n - 1) // 2 + 1)}
        assert len(residues) == (n - 1) // 2
        assert 0 not in residues
        bits = codes.generate_s_sequence(n)
        assert set(np.flatnonzero(bits).tolist()) == {0} | residues


class TestGeneration:
    def test_order3_matches_brute_force(self):
        oracle = brute_force_sequences(3)
        # exactly the cyclic shifts of (0, 1, 1)
        assert sorted(oracle) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        seq = codes.generate_s_sequence(3)
        assert tuple(seq) in oracle

    def test_order7_matches_brute_force(self):
        oracle = brute_force_sequences(7)
        seq = codes.generate_s_sequence(7)
        assert tuple(seq) in oracle
        assert seq.sum() == 4

    def test_order7_frozen_pattern(self):
        bits = codes.generate_s_sequence(7)
        assert bits.dtype == np.uint8 and bits.shape == (7,)
        assert bits.tolist() == [1, 1, 1, 0, 1, 0, 0]

    def test_order79_weight(self):
        assert codes.generate_s_sequence(79).sum() == 40

    @pytest.mark.parametrize("n", VALID_ORDERS_TO_103)
    def test_identity_exact(self, n):
        seq = codes.generate_s_sequence(n)
        assert codes.s_matrix_identity_error(seq) == 0

    @pytest.mark.parametrize("n", VALID_ORDERS_TO_103)
    def test_row_and_column_sums(self, n):
        s = codes.circulant_matrix(codes.generate_s_sequence(n))
        assert np.all(s.sum(axis=0) == (n + 1) // 2)
        assert np.all(s.sum(axis=1) == (n + 1) // 2)

    @pytest.mark.parametrize("n", [*VALID_ORDERS_TO_103, 1019])
    def test_circulant_matrix_is_the_explicit_shift(self, n):
        seq = codes.generate_s_sequence(n)
        r, c = np.indices((n, n))
        s = codes.circulant_matrix(seq)
        assert s.dtype == np.int64 and s.flags.c_contiguous and s.flags.writeable
        assert np.array_equal(s, seq[(c - r) % n])
        view = codes.circulant_view(seq, np.float64)
        assert view.dtype == np.float64 and not view.flags.writeable
        assert np.array_equal(view, s)

    @pytest.mark.parametrize("n", [7, 19])
    def test_cyclic_shift_closure(self, n):
        seq = codes.generate_s_sequence(n)
        for k in range(n):
            shifted = np.roll(seq, k)
            assert codes.s_matrix_identity_error(shifted) == 0

    @pytest.mark.parametrize("bad", [4, 13, 1, 0, -7, 25])
    def test_invalid_orders_raise(self, bad):
        with pytest.raises(InvalidOrder):
            codes.generate_s_sequence(bad)

    def test_order_above_cap_raises(self):
        # 2^21 - 9 = 2097143 is prime and 3 mod 4, but above the cap
        with pytest.raises(InvalidOrder):
            codes.generate_s_sequence(2097143)

    def test_memoised_per_order(self):
        assert codes.generate_s_sequence(79) is codes.generate_s_sequence(79)

    def test_cached_bits_are_read_only(self):
        seq = codes.generate_s_sequence(79)
        with pytest.raises(ValueError):
            seq[0] = 0
        assert seq[0] == 1

    def test_order_above_1024_full_check(self):
        # every order gets the exact all-lags check; confirm it with the
        # independent dense identity just above the old 1024 limit
        seq = codes.generate_s_sequence(1031)
        assert seq.sum() == 516
        assert codes.s_matrix_identity_error(seq) == 0

    def test_huge_order_rejected_before_primality_test(self):
        # 2^61 - 1 is prime and 3 mod 4, far beyond the order table
        with pytest.raises(InvalidOrder, match="exceeds"):
            codes.generate_s_sequence(2**61 - 1)


def multiplicative_order(q, n):
    k, x = 1, q % n
    while x != 1:
        k, x = k + 1, x * q % n
    return k


def odd_prime_factors(m):
    """Independent oracle: the distinct prime factors of an odd m."""
    divisors = (p for p in range(3, m + 1, 2) if m % p == 0)
    return [p for p in divisors if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def run_of_ones(n):
    """(n+1)/2 ones then zeros: the construction's weight, lag 1 = (n-1)/2."""
    return (np.arange(n) <= n // 2).astype(np.uint8)


class TestIdentityCheck:
    @pytest.mark.parametrize("n", [*codes.valid_orders(1019), 4099])
    def test_accepts_exactly_when_the_identity_holds(self, n):
        # the generated code, its mirror bits[-j] (zero and the non-residues,
        # another S-sequence), a run of (n+1)/2 ones (the code itself at 3)
        # and one-bit flips of the generated code
        seq = codes.generate_s_sequence(n)
        mirror = seq[(-np.arange(n)) % n]
        others = [run_of_ones(n)]
        for pos in (0, n // 2, n - 1):
            bits = seq.copy()
            bits[pos] ^= 1
            others.append(bits)
        for cand in (seq, mirror, *others):
            try:
                codes._check_identity(cand)
                accepted = True
            except InvalidOrder:
                accepted = False
            assert accepted == (codes.s_matrix_identity_error(cand) == 0)
        assert codes.s_matrix_identity_error(mirror) == 0

    @pytest.mark.parametrize("n", [7, 79, 1019])
    def test_one_flipped_bit_rejected(self, n):
        seq = codes.generate_s_sequence(n)
        codes._check_identity(seq)
        for pos in (0, 1, n - 1):
            bits = seq.copy()
            bits[pos] ^= 1
            with pytest.raises(InvalidOrder, match="identity"):
                codes._check_identity(bits)

    @pytest.mark.parametrize("n", [7, 79, 1019])
    def test_right_weight_wrong_lag_1_rejected_as_the_identity(self, n):
        seq = run_of_ones(n)
        assert seq.sum() == (n + 1) // 2
        with pytest.raises(InvalidOrder, match="identity"):
            codes._check_identity(seq)

    @pytest.mark.parametrize("n", [7, 79, 1019])
    def test_shifted_sequence_rejected_as_not_the_construction(self, n):
        # a shift meets the identity, which s_matrix_identity_error checks,
        # but generation checks for the construction itself
        seq = codes.generate_s_sequence(n)
        for k in (1, 2, n - 1):
            shifted = np.roll(seq, k)
            assert codes.s_matrix_identity_error(shifted) == 0
            with pytest.raises(InvalidOrder, match="not the quadratic-residue construction"):
                codes._check_identity(shifted)

    def test_order_3_multiplier_is_one(self):
        # every weight-2 code of order 3 is a shift of 110, and q = 1 fixes all
        assert codes._square_generator(3) == 1
        for bits in ([1, 1, 0], [0, 1, 1], [1, 0, 1]):
            codes._check_identity(np.array(bits, dtype=np.uint8))

    @pytest.mark.parametrize("n", codes.valid_orders(1999))
    def test_square_generator_order_brute_force(self, n):
        q = codes._square_generator(n)
        assert multiplicative_order(q, n) == (n - 1) // 2
        assert q in {k * k % n for k in range(1, n)}

    @pytest.mark.parametrize("n", [3, 1048571])
    def test_square_generator_order_by_prime_factors(self, n):
        h = (n - 1) // 2
        q = codes._square_generator(n)
        assert pow(q, h, n) == 1
        assert all(pow(q, h // p, n) != 1 for p in odd_prime_factors(h))

    def test_max_order_factors(self):
        # (1048571 - 1) / 2 = 5 * 23 * 47 * 97
        assert odd_prime_factors(524285) == [5, 23, 47, 97]

    @pytest.mark.parametrize("n", [1, 4, 13, 15, 25, 35, 1048573])
    def test_square_generator_rejects_non_orders(self, n):
        # 15, 35 are 3 mod 4 but composite; 13 and 1048573 are 1 mod 4
        with pytest.raises(InvalidOrder, match="prime congruent to 3 mod 4"):
            codes._square_generator(n)

    def test_max_order_lags_exact(self):
        # every lag, from a zero-padded FFT here and no code of the package's:
        # linear lag m of the padded transform sits at m mod 2**21, and
        # cyclic lag l is linear lag l plus linear lag l - N
        n = 1048571  # the largest usable order
        assert codes.validate_order(n)
        assert not any(map(codes.validate_order, range(n + 1, codes.MAX_ORDER + 1)))
        size = 1 << 21
        assert size >= 2 * n - 1
        spectrum = np.fft.rfft(codes.generate_s_sequence(n).astype(np.float64), size)
        spectrum *= spectrum.conj()
        linear = np.fft.irfft(spectrum, size)
        del spectrum
        lags = linear[:n]
        lags[1:] += linear[size - n + 1:]
        del linear
        rounded = np.rint(lags)
        assert np.abs(lags - rounded).max() < 0.25
        assert rounded[0] == (n + 1) // 2
        assert set(np.unique(rounded[1:]).tolist()) == {(n + 1) // 4}


def _entry_points(tmp_path):
    """Each public function that takes a code, called with the code alone."""
    return {
        "CirculantSystem": lambda code: demux.CirculantSystem(code, "spectral"),
        "build_system": lambda code: demux.build_system(code, "dense"),
        "circulant_matrix": codes.circulant_matrix,
        "s_matrix_identity_error": codes.s_matrix_identity_error,
        "write_sequence": lambda code: fileio.write_sequence(code, tmp_path / "code.txt"),
    }


class TestCodeChecks:
    @pytest.mark.parametrize(
        "entry",
        ["CirculantSystem", "build_system", "circulant_matrix", "s_matrix_identity_error",
         "write_sequence"],
    )
    @pytest.mark.parametrize(
        "bits, message",
        [
            (np.array([1, 1, 257, 0, 256, 0, 0]), "0 or 1"),  # a uint8 cast wraps these to 1 and 0
            (np.array([1.5, 1, 1, 0, 1, 0, 0]), "0 or 1"),  # and truncates this to 1
            (np.array([1, 1, 1, 0, -1, 0, 0]), "0 or 1"),
            (np.array([1, 1, 1, 0, 2, 0, 0], dtype=np.uint8), "0 or 1"),
            (np.array([[1, 1, 1, 0, 1, 0, 0]]), "one-dimensional"),
            (np.zeros(0, dtype=np.uint8), "at least one entry"),
        ],
        ids=["wraps", "truncates", "negative", "uint8-2", "2-d-row", "empty"],
    )
    def test_bad_code_rejected_before_the_cast(self, tmp_path, entry, bits, message):
        with pytest.raises(InvalidOrder, match=message):
            _entry_points(tmp_path)[entry](bits)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.int8, np.float64, np.uint8])
    def test_zero_one_entries_of_any_dtype_pass(self, tmp_path, dtype):
        bits = codes.check_bits(np.array([1, 1, 1, 0, 1, 0, 0], dtype=dtype))
        assert bits.dtype == np.uint8 and bits.tolist() == [1, 1, 1, 0, 1, 0, 0]
        fileio.write_sequence(np.array([1, 1, 1, 0, 1, 0, 0], dtype=dtype), tmp_path / "c.txt")
        assert (tmp_path / "c.txt").read_text() == "7:1110100\n"
        with pytest.raises(InvalidOrder, match="at least one entry"):
            codes.check_bits(np.zeros(0, dtype=dtype))

    def test_generated_code_passes_without_a_copy(self):
        bits = codes.generate_s_sequence(79)
        assert codes.check_bits(bits) is bits
