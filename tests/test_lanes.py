import os

from conftest import no_child_left

import incflow.lanes as lanes


def test_a_result_that_does_not_pickle_is_computed_here(forks):
    # lane 1 holds items 1 and 3; item 3's result is a closure, which cannot
    # cross the pipe: the worker's stream ends there, after item 1's result,
    # and the caller computes item 3
    parent, here = os.getpid(), []

    def fn(k):
        if os.getpid() == parent:
            here.append(k)
        return (lambda: k) if k == 3 else k

    out = lanes.run(fn, [(k,) for k in range(5)])
    no_child_left()
    assert len(forks) == 1
    assert out[3]() == 3 and out[:3] + out[4:] == [0, 1, 2, 4]
    assert here == [0, 2, 4, 3]
