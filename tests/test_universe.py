import time

import pytest

from dld.cli import main
from dld.errors import DldError
from dld.universe import _is_prime, small_universe


def _trial_division(n):
    """The reference: no divisor from 2 up to the square root."""
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(10_000) if _is_prime(n)] == \
        [n for n in range(10_000) if _trial_division(n)]


def test_large_prime_moduli_are_tested_at_once():
    start = time.perf_counter()
    assert small_universe(1, 1, 1, 2 ** 61 - 1).modulus == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DldError, match="prime"):
        small_universe(1, 1, 1, 2 ** 61 + 1)


def test_moduli_beyond_the_exact_test_are_user_errors(capsys):
    start = time.perf_counter()
    assert main(["normalize", "--spots", "1", "--fields", "1", "--atoms", "1",
                 "--modulus", str(2 ** 89 - 1), "0"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "3,317,044,064,679,887,385,961,981" in err
