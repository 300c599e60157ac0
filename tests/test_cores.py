import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed import cores


class Fails(Exception):
    pass


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool


class TestShare:
    def test_results_in_item_order_from_both_threads(self, pool):
        threads = set()

        def fn(x):
            threads.add(threading.get_ident())
            time.sleep(0.01)  # long enough that the helper takes items too
            return x * x

        assert cores.share(pool, fn, range(10)) == [x * x for x in range(10)]
        assert len(threads) == 2
        assert cores.share(None, fn, range(4)) == [0, 1, 4, 9]
        assert cores.share(pool, fn, []) == []

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_failure_stops_taking_items_and_waits_for_the_other_thread(self, pool, where):
        main = threading.main_thread()
        started, finished, taken = threading.Event(), threading.Event(), []

        def fn(x):
            taken.append(x)
            if threading.current_thread() is main:
                started.wait(timeout=30)  # the helper holds an item
                if where == "caller":
                    raise RuntimeError("caller's item")
            else:
                started.set()
                if where == "helper":
                    raise RuntimeError("helper's item")
                time.sleep(0.2)
                finished.set()

        with pytest.raises(RuntimeError, match=f"{where}'s item"):
            cores.share(pool, fn, range(20))
        assert len(taken) <= 3
        assert where == "helper" or finished.is_set()

    def test_the_lowest_failure_is_raised_though_a_later_one_came_first(self, pool):
        one_failed = threading.Event()

        def fn(x):
            if x == 0:  # the two threads hold items 0 and 1 at once
                assert one_failed.wait(timeout=30)
            else:
                one_failed.set()
            raise Fails(x)

        for _ in range(20):
            one_failed.clear()
            with pytest.raises(Fails) as exc:
                cores.share(pool, fn, range(2))
            assert exc.value.args == (0,)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12),
        failing=st.sets(st.integers(0, 11)),
        sleeps=st.lists(st.sampled_from([0.0, 0.0005, 0.002]), min_size=12, max_size=12),
    )
    def test_returns_or_raises_what_the_loop_does(self, n, failing, sleeps):
        def fn(x):
            time.sleep(sleeps[x])
            if x in failing:
                raise Fails(x)
            return x * x

        def outcome(run):
            try:
                return run()
            except Fails as e:
                return "raised", e.args

        want = outcome(lambda: [fn(x) for x in range(n)])
        with ThreadPoolExecutor(max_workers=1) as pool:
            for two_threads in (None, pool):
                assert outcome(lambda: cores.share(two_threads, fn, range(n))) == want


class TestHelperPool:
    def test_pool_only_on_two_cpus(self, monkeypatch):
        for cpus in (1, 2):
            monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
            with cores.helper_pool() as pool:
                assert (pool is not None) == (cpus > 1)

    def test_one_item_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        before = threading.active_count()
        with cores.helper_pool() as pool:
            assert cores.share(pool, lambda x: threading.active_count(), [0]) == [before]

    def test_thread_joined_on_exit(self, monkeypatch):
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        before = threading.active_count()
        with cores.helper_pool() as pool:
            cores.share(pool, time.sleep, [0.01] * 4)
            assert threading.active_count() == before + 1
        assert threading.active_count() == before
