"""Query generation: seeded, distinct within a run, and balanced in cost."""

import workloads as w


def _argvs(make, seed, rounds, context=None):
    return [tuple(q["argv"]) for index in range(rounds) for q in make(seed, index, context)]


def test_walk_visits_every_input_once_per_cycle():
    stratum = tuple(range(17))
    for offset in (0, 5, 16):
        seen = [w.walk(stratum, offset, index) for index in range(17)]
        assert sorted(seen) == list(stratum)


def test_walk_prefixes_sample_the_whole_cost_range():
    stratum = tuple(range(17))     # sorted by cost
    for offset in range(17):
        for rounds in range(6, 18):
            prefix = [w.walk(stratum, offset, index) for index in range(rounds)]
            assert abs(sum(prefix) / rounds - 8) < 2


def test_every_cold_stratum_is_long_enough():
    assert all(len(s) >= w.ROUNDS_MAX for s in w.POSET_STRATA)
    assert all(len(s) >= w.ROUNDS_MAX for _p, s in w.BRANCH_STRATA)
    assert all(len(set(s)) == len(s) for s in w.POSET_STRATA)


def test_posets_queries_are_seeded_and_never_repeat_within_a_run():
    one = _argvs(w.posets_round, 1, w.ROUNDS_MAX)
    assert len(set(one)) == len(one)
    assert one == _argvs(w.posets_round, 1, w.ROUNDS_MAX)
    assert one != _argvs(w.posets_round, 2, w.ROUNDS_MAX)
    shapes = {len(w.posets_round(seed, index, None)) for seed in (1, 2) for index in (0, 9)}
    assert shapes == {len(w.POSET_STRATA)}


def test_branch_inputs_never_repeat_within_a_run():
    seen = [(preset, w.walk(s, 3, index))
            for preset, s in w.BRANCH_STRATA for index in range(w.ROUNDS_MAX)]
    assert len(set(seen)) == len(seen)


def test_failing_queries_do_not_depend_on_the_seed_and_never_repeat():
    queries = [tuple(argv) for index in range(w.ROUNDS_MAX)
               for argv in w.failing_tensor_queries(index)]
    assert len(set(queries)) == len(queries)
    assert all("--coeff" in q and q[q.index("--coeff") + 1] != "char0" for q in queries)


def test_session_round_is_seeded():
    assert w.session_round(4, 1, None) == w.session_round(4, 1, None)
    assert w.session_round(4, 1, None) != w.session_round(4, 2, None)


def test_central_median_averages_the_middle_fifth():
    import run

    assert run.central_median([7.0]) == 7.0
    assert run.central_median(range(10)) == 4.5
    # two clusters: the estimate moves by little when one value crosses over
    low, high = [1.0] * 7 + [3.0] * 7, [1.0] * 6 + [3.0] * 8
    assert abs(run.central_median(high) - run.central_median(low)) < 1.0
    assert run.central_median([1.0, 2.0, float("inf")]) == 2.0
