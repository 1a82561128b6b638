import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tracing import Tracer, self_times


def test_self_time_subtracts_sequential_children():
    # parent 0 on [0, 10] with children [1, 3] and [4, 8] on its thread,
    # and a grandchild [5, 6] inside the second child
    ids = [0, 1, 2, 3]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    threads = [0, 0, 0, 0]
    got = self_times(ids, parents, starts, ends, threads)
    np.testing.assert_allclose(got, [10 - 2 - 4, 2, 4 - 1, 1])


def test_self_time_takes_union_of_overlapping_pool_children():
    # compare on [0, 10]; two trials on pool threads overlap on [2, 5]
    # and [3, 7], a third runs alone on [8, 9]
    ids = [10, 11, 12, 13]
    parents = [-1, 10, 10, 10]
    starts = [0.0, 2.0, 3.0, 8.0]
    ends = [10.0, 5.0, 7.0, 9.0]
    threads = [0, 1, 2, 1]
    got = self_times(ids, parents, starts, ends, threads)
    np.testing.assert_allclose(got, [10 - 5 - 1, 3, 4, 1])


def test_self_time_clips_children_to_parent_and_ignores_unknown_parents():
    ids = [5, 6, 7]
    parents = [-1, 5, 99]
    starts = [1.0, 0.5, 0.0]
    ends = [2.0, 1.5, 1.0]
    threads = [0, 1, 0]
    got = self_times(ids, parents, starts, ends, threads)
    np.testing.assert_allclose(got, [0.5, 1.0, 1.0])


def _module():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2
    return mod


def test_tracer_records_parents_and_restores_attributes():
    mod = _module()
    leaf, outer = mod.leaf, mod.outer
    tr = Tracer()
    seen = []
    tr.install(mod, "leaf", "leaf", observe=lambda out, args: seen.append(out))
    tr.install(mod, "outer", "outer")
    tr.pass_no = 3
    assert mod.outer(1) == 4
    spans = tr.spans()
    names = spans["names"][spans["name"]].tolist()
    assert sorted(names) == ["leaf", "outer"]
    by = dict(zip(names, range(len(names))))
    assert spans["parent"][by["leaf"]] == spans["id"][by["outer"]]
    assert spans["parent"][by["outer"]] == -1
    assert set(spans["pass"].tolist()) == {3}
    assert seen == [2]
    tr.uninstall()
    assert mod.leaf is leaf and mod.outer is outer


def test_tracer_parents_pool_spans_to_the_open_main_span():
    mod = types.SimpleNamespace()
    mod.trial = lambda k: k
    tr = Tracer()
    tr.install(mod, "trial", "trial")

    def compare(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda k: mod.trial(k), range(n)))

    mod.compare = compare
    tr.install(mod, "compare", "compare")
    assert mod.compare(4) == [0, 1, 2, 3]
    spans = tr.spans()
    names = spans["names"][spans["name"]]
    cmp_id = spans["id"][names == "compare"][0]
    assert np.all(spans["parent"][names == "trial"] == cmp_id)
    main_thread = spans["thread"][names == "compare"][0]
    assert np.any(spans["thread"][names == "trial"] != main_thread)
    tr.uninstall()


def test_tracer_counts_failures_and_reraises():
    mod = types.SimpleNamespace()

    def boom():
        raise RuntimeError("no")

    mod.boom = boom
    tr = Tracer()
    tr.pass_no = 0
    tr.install(mod, "boom", "boom", on_error=lambda exc: tr.count("failed"))
    with pytest.raises(RuntimeError):
        mod.boom()
    assert tr.counters(0) == {"failed": 1.0}
    assert len(tr.spans()["id"]) == 1
    tr.uninstall()


def test_tracer_counters_are_consistent_under_threads():
    tr = Tracer()
    tr.pass_no = 0

    def work():
        for _ in range(2000):
            tr.count("n")

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert tr.counters(0)["n"] == 8000
