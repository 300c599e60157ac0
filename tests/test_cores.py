import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from walkembed import cores


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
