import pytest

from fluxbench.stats import beyond, median, nearest_rank


def test_nearest_rank_is_always_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank(values, 1) == 1.0
    # ceil(5 * 0.95) = 5: the largest sample.
    assert nearest_rank(values, 95) == 5.0


def test_nearest_rank_p95_of_twenty_is_the_nineteenth():
    values = list(range(1, 21))
    assert nearest_rank(values, 95) == 19
    assert beyond(values, 95) == 1


def test_nearest_rank_even_count_takes_the_lower_middle():
    assert nearest_rank([1, 2, 3, 4], 50) == 2


def test_beyond_ignores_ties_at_the_cut():
    assert beyond([1, 2, 2, 2], 50) == 0
    assert beyond(list(range(200)), 95) == 10


@pytest.mark.parametrize("p", [0, -1, 101])
def test_nearest_rank_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        nearest_rank([1.0], p)


def test_nearest_rank_rejects_empty():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])
