"""The names the benchmark's measured child (``perfbench/child.py``) reaches
into: each layer entry point it wraps, and ``NetView.of`` on a built
connectome, which its traced runs call to count what the learning rule saw.

The child is loaded as a module without running its ``main``, and without
a bytecode cache, so nothing under ``perfbench/`` is written.
"""

import numpy as np


def test_every_wrapped_layer_entry_point_exists(load_perfbench):
    child = load_perfbench("child")
    for name, targets in child.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
    assert callable(child.protocol.run)


def test_netview_of_a_built_connectome(organism_net, load_perfbench):
    view = load_perfbench("child").ortus.NetView.of(organism_net)
    assert view.n == organism_net.n
    np.testing.assert_array_equal(view.syn_pre, [s.pre for s in organism_net.chem])
    np.testing.assert_array_equal(view.syn_mi, [s.mutability for s in organism_net.chem])
